"""Shattering dimensions of partial concept classes and of domain families.

A hypothesis h induces a partial 0/1/unknown concept over a domain family: value
1 where h's error strictly exceeds tau, 0 where it is strictly below tau-alpha,
unknown in between. The family's shattering dimension at (tau, alpha) is the VC
dimension of that induced partial class, and each dimension value is certified
by an explicit witness map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import (
    CertificateError,
    DomainFamily,
    ErrorMatrix,
    HypothesisClass,
    SpaceMismatchError,
    domain_error,
)

DEFAULT_SEARCH_CAP = 20


@dataclass(frozen=True)
class PartialConceptClass:
    """Concepts mapping universe points to 0, 1, or None (undefined)."""

    universe_size: int
    concepts: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        if self.universe_size < 0:
            raise ValueError("universe size must be non-negative")
        concepts = tuple(tuple(c) for c in self.concepts)
        if not concepts:
            raise ValueError("partial concept class must be non-empty")
        for i, c in enumerate(concepts):
            if len(c) != self.universe_size:
                raise ValueError(
                    f"concept {i} has {len(c)} values, universe has {self.universe_size}"
                )
            if any(v not in (0, 1, None) for v in c):
                raise ValueError(f"concept {i} takes values outside {{0, 1, None}}")
        object.__setattr__(self, "concepts", concepts)

    @classmethod
    def from_hypothesis_class(cls, hc: HypothesisClass) -> "PartialConceptClass":
        """Total concepts: each hypothesis read as a concept over its instances."""
        return cls(hc.space, tuple(h.labels for h in hc.members))

    def __len__(self) -> int:
        return len(self.concepts)


@dataclass(frozen=True)
class DimensionQuery:
    """Thresholds for a shattering question: 0 <= alpha < tau <= 1."""

    tau: Fraction
    alpha: Fraction
    size_cap: int | None = None

    def __post_init__(self) -> None:
        tau = Fraction(self.tau)
        alpha = Fraction(self.alpha)
        if not (0 <= alpha < tau <= 1):
            raise ValueError(f"need 0 <= alpha < tau <= 1, got alpha={alpha}, tau={tau}")
        if self.size_cap is not None and self.size_cap < 1:
            raise ValueError("size cap must be a positive integer")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class ShatteringCertificate:
    """Witnessed shattering of an ordered set of domain indices.

    witnesses[mask] is a hypothesis index for the subset E = {domain_indices[t]
    : bit t of mask is set}; the witness must sit strictly below tau-alpha on E
    and strictly above tau on the rest of the set.
    """

    domain_indices: tuple[int, ...]
    witnesses: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.domain_indices)
        wit = tuple(int(w) for w in self.witnesses)
        if len(set(idx)) != len(idx):
            raise CertificateError("certificate domain indices must be distinct")
        if len(wit) != (1 << len(idx)):
            raise CertificateError(
                f"certificate needs {1 << len(idx)} witnesses, got {len(wit)}"
            )
        object.__setattr__(self, "domain_indices", idx)
        object.__setattr__(self, "witnesses", wit)


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
    concepts = [
        tuple(1 if col[i] > hi else 0 if col[i] < lo else None for col in m.columns)
        for i in range(m.rows)
    ]
    return PartialConceptClass(len(g), tuple(concepts))


def _zero_pattern(concept: tuple[int | None, ...], points: tuple[int, ...]) -> int | None:
    """Bitmask of points where the concept is 0; None if undefined anywhere."""
    mask = 0
    for t, p in enumerate(points):
        v = concept[p]
        if v is None:
            return None
        if v == 0:
            mask |= 1 << t
    return mask


def _is_shattered(pcc: PartialConceptClass, points: tuple[int, ...]) -> bool:
    need = 1 << len(points)
    seen: set[int] = set()
    for c in pcc.concepts:
        m = _zero_pattern(c, points)
        if m is not None:
            seen.add(m)
            if len(seen) == need:
                return True
    return False


def partial_vc_dim(pcc: PartialConceptClass, size_cap: int | None = None) -> VcResult:
    """Largest shattered point set, by breadth-first extension with pruning.

    Every subset of a shattered set is shattered, so level s+1 candidates extend
    level-s survivors with strictly larger points only. The search stops at
    `size_cap` (default 20); if a level is still alive there, the result is a
    lower bound and `exact` is False.
    """
    cap = DEFAULT_SEARCH_CAP if size_cap is None else size_cap
    n = pcc.universe_size
    level: list[tuple[int, ...]] = [()]
    size = 0
    while True:
        if size >= cap:
            return VcResult(size, level[0], False)
        grown: list[tuple[int, ...]] = []
        for s in level:
            start = s[-1] + 1 if s else 0
            for p in range(start, n):
                cand = s + (p,)
                if _is_shattered(pcc, cand):
                    grown.append(cand)
        if not grown:
            return VcResult(size, level[0], True)
        level = grown
        size += 1


def _witness_for(pcc: PartialConceptClass, points: tuple[int, ...], mask: int) -> int:
    for i, c in enumerate(pcc.concepts):
        if _zero_pattern(c, points) == mask:
            return i
    raise AssertionError("shattered set lost a witness; search is inconsistent")


def gdim(hc: HypothesisClass, g: DomainFamily, q: DimensionQuery) -> GdimResult:
    """Shattering dimension of the domain family with a witness certificate.

    Computed as the partial VC dimension of the induced partial class; the two
    notions coincide by construction.
    """
    pcc = induce_partial_class(hc, g, q)
    vc = partial_vc_dim(pcc, q.size_cap)
    points = vc.shattered
    witnesses = tuple(
        _witness_for(pcc, points, mask) for mask in range(1 << len(points))
    )
    cert = ShatteringCertificate(points, witnesses)
    return GdimResult(vc.dimension, cert, vc.exact)


def verify_certificate(
    cert: ShatteringCertificate, hc: HypothesisClass, g: DomainFamily, q: DimensionQuery
) -> bool:
    """Check every (subset, witness) pair against the strict error thresholds.

    Evaluates errors directly; shares nothing with the gdim search path. Raises
    CertificateError for out-of-range indices, returns False for value failures.
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
    points = cert.domain_indices
    for mask, w in enumerate(cert.witnesses):
        h = hc.members[w]
        for t, j in enumerate(points):
            e = domain_error(h, g.domains[j])
            if mask >> t & 1:
                if not e < lo:
                    return False
            elif not e > q.tau:
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
    traces: set[tuple[int, ...]] = set()
    for i, c in enumerate(pcc.concepts):
        values = tuple(c[p] for p in pts)
        if any(v is None for v in values):
            raise ValueError(f"concept {i} is undefined on a restriction point")
        traces.add(values)  # type: ignore[arg-type]
    return len(traces)
