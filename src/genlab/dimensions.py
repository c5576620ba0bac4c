"""Shattering dimensions of partial concept classes and of domain families.

A hypothesis h induces a partial 0/1/unknown concept over a domain family: value
1 where h's error strictly exceeds tau, 0 where it is strictly below tau-alpha,
unknown in between. The family's shattering dimension at (tau, alpha) is the VC
dimension of that induced partial class, and each dimension value is certified
by an explicit witness map.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from operator import itemgetter, or_
from typing import Iterable, NamedTuple

from .core import (
    CertificateError,
    DomainFamily,
    ErrorMatrix,
    Frozen,
    HypothesisClass,
    SpaceMismatchError,
    domain_error,
    exact_values,
)

DEFAULT_SEARCH_CAP = 20


# Each value's code byte: 0, 1, or 2 for undefined; and the bit strings
# that mark the codes of 0 and of 1.
_CODES = {0: 0, 1: 1, None: 2}
_VALUES = (0, 1, None)
_VALUE_TYPES = {int, bool, type(None)}
_ZERO_BITS = bytes.maketrans(b"\x00\x01\x02", b"100")
_ONE_BITS = bytes.maketrans(b"\x00\x01\x02", b"010")


class PartialConceptClass(Frozen):
    """Concepts mapping universe points to 0, 1, or None (undefined).

    Held only as `masks`, each concept as a (zero, one) int pair, bit p set
    where it is 0 (resp. 1) at p, and as one code byte per concept and point,
    a `bytes` column per point; `concepts` are made from the columns on first
    read. Equality and hashing read the masks and the columns, which fix the
    concept count and every value, and repr the concepts. A value is an int
    0 or 1 (a bool is read as its int) or None for undefined."""

    _key = ("masks", "_columns")

    def __init__(self, universe_size: int, concepts: Iterable[Iterable[int | None]]) -> None:
        if type(universe_size) is not int:
            raise ValueError(f"universe size must be an int, got {universe_size!r}")
        if universe_size < 0:
            raise ValueError("universe size must be non-negative")
        concepts = tuple(tuple(c) for c in concepts)
        if not concepts:
            raise ValueError("partial concept class must be non-empty")
        rows = []
        for i, c in enumerate(concepts):
            if len(c) != universe_size:
                raise ValueError(
                    f"concept {i} has {len(c)} values, universe has {universe_size}"
                )
            # types first: 1.0 and 0.0 equal keys of _CODES
            if not (set(map(type, c)) <= _VALUE_TYPES and set(c) <= _CODES.keys()):
                raise ValueError(f"concept {i} takes values outside {{0, 1, None}}")
            rows.append(bytes(map(_CODES.__getitem__, c)))
        codes = b"".join(rows)
        self._hold(len(concepts), [codes[p::universe_size] for p in range(universe_size)])

    @classmethod
    def _from_columns(cls, count: int, columns: list[bytes]) -> PartialConceptClass:
        """The class of `count` concepts whose concept i takes at point p the
        value byte i of columns[p] codes."""
        pcc = cls.__new__(cls)
        pcc._hold(count, columns)
        return pcc

    def _hold(self, count: int, columns: list[bytes]) -> None:
        # most significant point first, so one strided slice per concept
        # reads as a base-2 numeral; a leading undefined row keeps it non-empty
        codes = b"\x02" * count + b"".join(reversed(columns))
        zeros, ones = codes.translate(_ZERO_BITS), codes.translate(_ONE_BITS)
        masks = tuple((int(zeros[i::count], 2), int(ones[i::count], 2)) for i in range(count))
        # two points are twins iff their columns are equal
        self._set(universe_size=len(columns), masks=masks, _columns=tuple(columns))

    @classmethod
    def from_hypothesis_class(cls, hc: HypothesisClass) -> PartialConceptClass:
        """Total concepts: each hypothesis read as a concept over its instances."""
        return cls._from_columns(len(hc), [hc.rows[x::hc.space] for x in range(hc.space)])

    @cached_property
    def concepts(self) -> tuple[tuple[int | None, ...], ...]:
        codes, count = b"".join(self._columns), len(self.masks)
        return tuple(tuple(map(_VALUES.__getitem__, codes[i::count])) for i in range(count))

    def __repr__(self) -> str:
        return (f"PartialConceptClass(universe_size={self.universe_size!r}, "
                f"concepts={self.concepts!r})")

    def __len__(self) -> int:
        return len(self.masks)


class DimensionQuery(Frozen):
    """Thresholds for a shattering question, ints or Fractions: 0 <= alpha < tau <= 1."""

    _key = ("tau", "alpha", "size_cap")

    def __init__(self, tau: Fraction, alpha: Fraction, size_cap: int | None = None) -> None:
        tau, alpha = map(Fraction, exact_values((tau, alpha), "tau and alpha"))
        if not (0 <= alpha < tau <= 1):
            raise ValueError(f"need 0 <= alpha < tau <= 1, got alpha={alpha}, tau={tau}")
        if size_cap is not None and (type(size_cap) is not int or size_cap < 1):
            raise ValueError("size cap must be a positive integer")
        self._set(tau=tau, alpha=alpha, size_cap=size_cap)


class ShatteringCertificate(Frozen):
    """Witnessed shattering of an ordered set of domain indices.

    witnesses[mask] is a hypothesis index for the subset E = {domain_indices[t]
    : bit t of mask is set}; the witness must sit strictly below tau-alpha on E
    and strictly above tau on the rest of the set.
    """

    _key = ("domain_indices", "witnesses")

    def __init__(self, domain_indices: Iterable[int], witnesses: Iterable[int]) -> None:
        idx = tuple(domain_indices)
        wit = tuple(witnesses)
        for v in idx + wit:
            if type(v) is not int:
                raise CertificateError(f"certificate entries must be integers, got {v!r}")
        if len(set(idx)) != len(idx):
            raise CertificateError("certificate domain indices must be distinct")
        if len(wit) != (1 << len(idx)):
            raise CertificateError(
                f"certificate needs {1 << len(idx)} witnesses, got {len(wit)}"
            )
        self._set(domain_indices=idx, witnesses=wit)


class VcResult(NamedTuple):
    dimension: int
    shattered: tuple[int, ...]
    exact: bool


class GdimResult(NamedTuple):
    dimension: int
    certificate: ShatteringCertificate
    exact: bool


def induce_partial_class(
    hc: HypothesisClass, g: DomainFamily, q: DimensionQuery
) -> PartialConceptClass:
    """Partial concepts over g's domains induced by error thresholds."""
    if hc.space != g.space:
        raise SpaceMismatchError(f"class space {hc.space} != family space {g.space}")
    m = ErrorMatrix(hc, g.domains)
    # integer numerators: e > tau iff e > hi, and e < tau - alpha iff e < lo
    hi = math.floor(q.tau * m.denominator)
    lo = math.ceil((q.tau - q.alpha) * m.denominator)
    columns = []
    for col in m.columns:  # one code byte per hypothesis, worked out once per distinct error
        code = {e: 1 if e > hi else 0 if e < lo else 2 for e in set(col)}
        columns.append(bytes(map(code.__getitem__, col)))
    return PartialConceptClass._from_columns(m.rows, columns)


def _bits(column: bytes, table: bytes) -> int:
    """A code column as an int, bit i set where `table` maps byte i to b"1"."""
    return int(column[::-1].translate(table), 2)


def partial_vc_dim(pcc: PartialConceptClass, size_cap: int | None = None) -> VcResult:
    """Largest shattered point set, by depth-first search with pruning.

    Each point p is held as two ints over the concepts, `zeros[p]` with bit i
    set where concept i is 0 at p and `ones[p]` where it is 1. A set is
    shattered when the concepts defined on it leave all 2^|set| zero patterns
    on it. Every subset of a shattered set is shattered, so the search visits
    shattered sets only, depth first in lexicographic preorder. A node carries
    the distinct concepts defined on its set as one int per zero pattern on it,
    and the points after its largest one that extend it to a shattered set: p
    extends it iff every group g meets `zeros[p]` and `ones[p]`, which split g.
    With `target` one more than the largest size found so far, a node's subtree
    is pruned when
      - its size plus its extensions still to be tried is below `target`;
      - some zero pattern on its set comes from fewer than 2^(target - size)
        concepts, too few to extend it to 2^(target - size) more (Sauer-Shelah).
    In preorder the first set that reaches a new size is the lexicographically
    first shattered set of that size, so `shattered` is the lex-first maximum
    shattered set. Only the first of each class of twins (points where every
    concept takes the same value, None included) is searched: no shattered set
    holds twins p < q, and if it holds q but not p, swapping q for p leaves it
    shattered and lexicographically smaller. The search stops at `size_cap`
    (default 20; a cap that is not an int of at least 1 is refused): once a
    set of that size is found, the result is that set, the lex-first of its
    size, with `dimension` equal to the cap and `exact` False, a lower bound
    on the dimension.
    """
    if size_cap is not None and (type(size_cap) is not int or size_cap < 1):
        raise ValueError("size cap must be a positive integer")
    cap = DEFAULT_SEARCH_CAP if size_cap is None else size_cap
    best: tuple[int, ...] = ()
    zeros = [_bits(column, _ZERO_BITS) for column in pcc._columns]
    ones = [_bits(column, _ONE_BITS) for column in pcc._columns]

    def visit(points: tuple[int, ...], groups: list[int], candidates: list[int]) -> bool:
        # `points` is shattered and `groups` holds the concepts defined on it,
        # one group per zero pattern on it; True once a set of size `cap` is found
        nonlocal best
        size = len(points)
        if size > len(best):
            best = points
            if size == cap:
                return True
        target = len(best) + 1
        if min(map(int.bit_count, groups)) < 1 << (target - size):
            return False
        extensions = [p for p in candidates
                      if all(g & zeros[p] and g & ones[p] for g in groups)]
        for k, p in enumerate(extensions):
            if size + len(extensions) - k <= len(best):
                break
            split = [h for g in groups for h in (g & zeros[p], g & ones[p])]
            if visit(points + (p,), split, extensions[k + 1:]):
                return True
        return False

    distinct: dict[tuple[int, int], int] = {}
    for i, masks in enumerate(pcc.masks):
        distinct.setdefault(masks, i)
    first: dict[bytes, int] = {}
    for p, column in enumerate(pcc._columns):
        first.setdefault(column, p)
    capped = visit((), [sum(1 << i for i in distinct.values())], list(first.values()))
    return VcResult(len(best), best, not capped)


def _witnesses(pcc: PartialConceptClass, points: tuple[int, ...]) -> tuple[int, ...]:
    """The lowest concept index with each zero pattern on `points`: from all the
    concepts, each of `points`, last to first, splits every group g in order
    into `g & ones[p]` and `g & zeros[p]`, so group t has zero pattern t."""
    groups = [(1 << len(pcc.masks)) - 1]
    for p in reversed(points):
        zero, one = (_bits(pcc._columns[p], table) for table in (_ZERO_BITS, _ONE_BITS))
        groups = [h for g in groups for h in (g & one, g & zero)]
    if not all(groups):
        raise AssertionError("shattered set lost a witness; search is inconsistent")
    return tuple((g & -g).bit_length() - 1 for g in groups)


def gdim(hc: HypothesisClass, g: DomainFamily, q: DimensionQuery) -> GdimResult:
    """Shattering dimension of the domain family with a witness certificate.

    Computed as the partial VC dimension of the induced partial class over g's
    domains; the two notions coincide by construction. `partial_vc_dim`
    searches depth first in lexicographic preorder with its two prunes, and
    the certificate covers the lex-first maximum shattered set of domains. At
    `q.size_cap` the dimension equals the cap, `exact` is False and the set is
    the lex-first shattered set of that size. Each subset's witness is the
    lowest-index hypothesis realizing it, read off `_witnesses`' splits.
    """
    pcc = induce_partial_class(hc, g, q)
    vc = partial_vc_dim(pcc, q.size_cap)
    cert = ShatteringCertificate(vc.shattered, _witnesses(pcc, vc.shattered))
    return GdimResult(vc.dimension, cert, vc.exact)


def verify_certificate(
    cert: ShatteringCertificate, hc: HypothesisClass, g: DomainFamily, q: DimensionQuery
) -> bool:
    """Check every (subset, witness) pair against the strict error thresholds.

    Evaluates errors directly; shares nothing with the gdim search path. Each
    domain calls `domain_error` once per distinct witness restriction to its
    support and keeps the verdict: 0 below tau - alpha, 1 above tau, None
    between. Raises CertificateError for out-of-range indices, returns False
    for value failures.
    """
    if hc.space != g.space:
        raise SpaceMismatchError(f"class space {hc.space} != family space {g.space}")
    for j in cert.domain_indices:
        if not (0 <= j < len(g)):
            raise CertificateError(f"certificate domain index {j} out of range")
    for w in cert.witnesses:
        if not (0 <= w < len(hc)):
            raise CertificateError(f"certificate witness index {w} out of range")
    lo = q.tau - q.alpha
    # each witness's labels, byte x the label of point x; a witness becomes a
    # `Hypothesis` only to score a restriction not seen before
    rows = [hc.masks[w].to_bytes(hc.space, "little") for w in cert.witnesses]
    for t, j in enumerate(cert.domain_indices):
        d = g.domains[j]
        restrict = itemgetter(*d.support())
        verdicts: dict[object, int | None] = {}
        for mask, key in enumerate(map(restrict, rows)):
            if key not in verdicts:
                e = domain_error(hc.member(cert.witnesses[mask]), d)
                verdicts[key] = 0 if e < lo else 1 if e > q.tau else None
            if verdicts[key] != 1 - (mask >> t & 1):
                return False
    return True


def restriction_count(pcc: PartialConceptClass, points: tuple[int, ...]) -> int:
    """Number of distinct restrictions of the concepts to the given points.

    All concepts must be defined (0/1) on every listed point.
    """
    pts = tuple(points)
    if not pts:
        raise ValueError("restriction needs at least one point")
    for p in pts:
        if not (0 <= p < pcc.universe_size):
            raise ValueError(f"point {p} outside universe of size {pcc.universe_size}")
    on = reduce(or_, [1 << p for p in pts])
    ones = set()
    for i, (zero, one) in enumerate(pcc.masks):
        if (zero | one) & on != on:
            raise ValueError(f"concept {i} is undefined on a restriction point")
        ones.add(one & on)
    return len(ones)
