"""Exact primitives: finite labeled distributions, hypothesis classes, error rates.

Every probability mass and error value in this package is a `fractions.Fraction`,
so all comparisons (strict or not) are exact. Instance spaces are finite and are
represented by their size; points are the integers 0..space-1, labels are 0/1.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul, or_
from typing import Callable, Iterable, NamedTuple, Sequence

ZERO = Fraction(0)


class GenlabError(Exception):
    """Base class for structural errors raised by genlab."""


class SpaceMismatchError(GenlabError):
    """Operands live on different instance spaces."""


class CertificateError(GenlabError):
    """A certificate is malformed: bad indices, sparse witness map, wrong arity."""


class ConstructionError(GenlabError):
    """A generator cannot produce an object satisfying its contract."""


class ConfigError(GenlabError):
    """An experiment configuration violates a runtime precondition."""


def _check_space(size: int) -> None:
    if type(size) is not int or size < 1:
        raise ValueError(f"instance space size must be a positive integer, got {size!r}")


def exact_values(values: Iterable[Fraction], what: str) -> tuple[Fraction, ...]:
    """The values as a tuple; each must be an `int` (not a `bool`) or a `Fraction`."""
    values = tuple(values)
    if not set(map(type, values)) <= {int, Fraction}:
        bad = next(v for v in values if type(v) not in (int, Fraction))
        raise ValueError(f"{what} must be ints or Fractions, got {bad!r}")
    return values


def unit_weights(weights: Iterable[Fraction], what: str) -> tuple[list[int], int]:
    """(numerators, denominator) of exact weights that are non-negative and sum
    to exactly 1: each weight's integer numerator over the LCM of their
    denominators. `what` names the weights in a refusal."""
    weights = exact_values(weights, what)
    den = math.lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (den // w.denominator) for w in weights]
    return _unit(nums, den, what)


def _unit(nums: Sequence[int], den: int, what: str) -> tuple[Sequence[int], int]:
    """(nums, den), refused unless the int numerators over den are
    non-negative and sum to den."""
    if min(nums, default=0) < 0:
        raise ValueError(f"{what} must be non-negative")
    if sum(nums) != den:
        raise ValueError(f"{what} must sum to 1, got {Fraction(sum(nums), den)}")
    return nums, den


class Frozen:
    """Base of genlab's checked values. A subclass's `__init__` checks its
    arguments and stores them with `_set`. Equality, hashing and repr read
    the fields named in `_key`, and assigning or deleting an attribute raises
    `dataclasses.FrozenInstanceError`, as a frozen dataclass of those fields
    would. That error is imported only when raised, so that loading genlab
    does not load `dataclasses`."""

    _key: tuple[str, ...] = ()

    def _set(self, **values: object) -> None:
        # object's own setattr, as reading or filling `__dict__` would make
        # each instance a full dict, about twice the memory of its attributes
        store = super().__setattr__
        for name, value in values.items():
            store(name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, k) for k in self._key])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._key, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Hypothesis(Frozen):
    """A total binary labeling of the instance space, held as the ints 0 and 1."""

    _key = ("labels",)

    def __init__(self, labels: Iterable[int]) -> None:
        labels = tuple(labels)
        if len(labels) < 1:
            raise ValueError("hypothesis needs at least one instance")
        try:  # bytes() refuses a label that is not an int in 0..255
            row = bytes(labels)
            if row.translate(None, b"\x00\x01"):
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError("hypothesis labels must be 0 or 1") from None
        self._set(labels=tuple(row))

    @property
    def space(self) -> int:
        return len(self.labels)

    def __call__(self, x: int) -> int:
        return self.labels[x]


class HypothesisClass(Frozen):
    """An ordered, duplicate-free collection of hypotheses on one space.

    Held as `space` and `masks`, one int per member whose byte x holds the label
    of point x; `members`, and `rows` if not built from them, are made from the
    masks on first read. Equality and hashing read space and masks, repr members."""

    _key = ("space", "masks")

    def __init__(self, space: int, members: Iterable[Hypothesis]) -> None:
        _check_space(space)
        members = tuple(members)
        if not members:
            raise ValueError("hypothesis class must be non-empty")
        for i, h in enumerate(members):
            if h.space != space:
                raise SpaceMismatchError(
                    f"member {i} labels {h.space} instances, class space is {space}"
                )
        # every row has `space` labels here, so distinct rows give distinct masks
        self._hold(space, tuple(int.from_bytes(bytes(h.labels), "little") for h in members))

    @classmethod
    def from_masks(cls, space: int, masks: Iterable[int]) -> HypothesisClass:
        """The class whose member i labels point x with byte x of masks[i]:
        every byte below `space` must be 0 or 1, and none above it set."""
        _check_space(space)
        masks = tuple(masks)
        if not masks:
            raise ValueError("hypothesis class must be non-empty")
        if not set(map(type, masks)) <= {int} or min(masks) < 0 or max(masks) >> 8 * space:
            raise ValueError(f"hypothesis masks must be ints in [0, 256**{space})")
        return cls._from_rows(space, b"".join([m.to_bytes(space, "little") for m in masks]), masks)

    @classmethod
    def _from_rows(cls, space: int, rows: bytes, masks: tuple[int, ...] | None = None
                   ) -> HypothesisClass:
        """`from_masks` for labels already held as bytes: the class whose
        member i labels point x with byte x of row i, where `rows` joins one
        or more rows of `space` bytes each. The labels are checked on those
        bytes, and the masks, unless given, read from them."""
        _check_space(space)
        if rows.translate(None, b"\x00\x01"):
            raise ValueError("hypothesis labels must be 0 or 1")
        if masks is None:
            masks = tuple([int.from_bytes(rows[i:i + space], "little")
                           for i in range(0, len(rows), space)])
        hc = cls.__new__(cls)
        hc._hold(space, masks)
        hc._set(rows=rows)
        return hc

    def _hold(self, space: int, masks: tuple[int, ...]) -> None:
        if len(set(masks)) != len(masks):
            raise ValueError("hypothesis class members must be pairwise distinct labelings")
        self._set(space=space, masks=masks)

    def member(self, i: int) -> Hypothesis:
        """Member i, made from its mask."""
        return Hypothesis(tuple(self.masks[i].to_bytes(self.space, "little")))

    @cached_property
    def members(self) -> tuple[Hypothesis, ...]:
        return tuple(map(self.member, range(len(self.masks))))

    @cached_property
    def rows(self) -> bytes:
        """The labels as bytes, row i (`space` bytes) member i's."""
        return b"".join([m.to_bytes(self.space, "little") for m in self.masks])

    def __repr__(self) -> str:
        return f"HypothesisClass(space={self.space!r}, members={self.members!r})"

    def __len__(self) -> int:
        return len(self.masks)


class Atom(NamedTuple):
    """Point mass: instance x carries label y with probability `mass`."""

    x: int
    y: int
    mass: Fraction


class LabeledDistribution(Frozen):
    """A finite distribution over labeled instances (a "domain").

    Held only as `space`, `weighted` and `denominator`: each atom is an
    (x, y, w) triple of an integer point, a 0/1 label and a positive integer
    numerator w, so that its mass is w / `denominator`. The triples are sorted
    by (x, y), their numerators sum to `denominator`, and `denominator` is the
    LCM of the atoms' reduced mass denominators (the numerators share no
    factor with it), so the form is canonical: equality and hashing read these
    three fields. `atoms`, the (x, y, Fraction mass) view, is made on first
    read; repr shows the space and the atoms.
    """

    _key = ("space", "weighted", "denominator")

    def __init__(self, space: int, atoms: Iterable[Atom]) -> None:
        _check_space(space)
        raw = tuple(atoms)
        nums, den = unit_weights([m for _, _, m in raw], "atom masses")
        self._hold(space, [(x, y, w) for (x, y, _), w in zip(raw, nums)], den)

    @classmethod
    def from_weighted(cls, space: int, weighted: Iterable[tuple[int, int, int]],
                      denominator: int) -> LabeledDistribution:
        """The domain whose atom (x, y, w) has mass w / denominator, w and the
        denominator ints; checked and refused as `__init__` checks its atoms,
        and reduced by the numerators' common factor."""
        d = cls.__new__(cls)
        d._hold(space, tuple(weighted), denominator)
        return d

    def _hold(self, space: int, weighted: Sequence[tuple[int, int, int]], den: int) -> None:
        """Check the atoms (x, y, w), w an int numerator over den, and store
        them reduced and sorted. The checks, in order: the space, int
        numerators and denominator, non-negative masses summing to 1, then
        atom by atom integer points and labels, the range, the label, a zero
        mass and a repeated (x, y)."""
        _check_space(space)
        nums = [w for _, _, w in weighted]
        if type(den) is not int or den < 1 or not set(map(type, nums)) <= {int}:
            raise ValueError("atom mass numerators and denominator must be ints, "
                             "the denominator positive")
        _unit(nums, den, "atom masses")
        seen: set[tuple[int, int]] = set()
        for x, y, w in weighted:
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"atom instance and label must be integers, got {(x, y)!r}")
            if not (0 <= x < space):
                raise ValueError(f"atom instance {x} outside space of size {space}")
            if y not in (0, 1):
                raise ValueError(f"atom label must be 0 or 1, got {y}")
            if not w:
                raise ValueError("atom mass must be positive, got 0")
            if (x, y) in seen:
                raise ValueError(f"duplicate atom for (x={x}, y={y})")
            seen.add((x, y))
        g = math.gcd(*nums)
        # (x, y) pairs are distinct, so the sort never compares numerators
        weighted = sorted([(x, y, w // g) for x, y, w in weighted])
        self._set(space=space, weighted=tuple(weighted), denominator=den // g)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        den = self.denominator
        return tuple([Atom(x, y, Fraction(w, den)) for x, y, w in self.weighted])

    def __repr__(self) -> str:
        return f"LabeledDistribution(space={self.space!r}, atoms={self.atoms!r})"

    def support(self) -> tuple[int, ...]:
        """Distinct instances carrying mass, ascending."""
        return tuple(dict.fromkeys([x for x, _, _ in self.weighted]))


class DomainFamily(Frozen):
    """An ordered list of domains sharing one instance space. May be empty."""

    _key = ("space", "domains")

    def __init__(self, space: int, domains: Iterable[LabeledDistribution]) -> None:
        _check_space(space)
        domains = tuple(domains)
        for i, d in enumerate(domains):
            if d.space != space:
                raise SpaceMismatchError(
                    f"domain {i} has space {d.space}, family space is {space}"
                )
        self._set(space=space, domains=domains)

    def __len__(self) -> int:
        return len(self.domains)


class MetaDistribution(Frozen):
    """A distribution over a domain family: weight i is the mass of domain i."""

    _key = ("family", "weights")

    def __init__(self, family: DomainFamily, weights: Iterable[Fraction]) -> None:
        weights = tuple(weights)
        if len(weights) != len(family):
            raise ValueError(
                f"{len(weights)} weights for {len(family)} domains"
            )
        unit_weights(weights, "weights")
        self._set(family=family, weights=tuple(map(Fraction, weights)))

    def support(self) -> tuple[int, ...]:
        """Indices of domains with positive weight."""
        return tuple(i for i, w in enumerate(self.weights) if w > 0)


class LabeledSample(Frozen):
    """A finite sequence of labeled points drawn from some domain."""

    _key = ("points",)

    def __init__(self, points: Iterable[tuple[int, int]]) -> None:
        points = tuple((x, y) for (x, y) in points)
        for x, y in points:
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"sample points must be integer pairs, got {(x, y)!r}")
            if x < 0:
                raise ValueError("sample instances must be non-negative")
            if y not in (0, 1):
                raise ValueError("sample labels must be 0 or 1")
        self._set(points=points)

    def __len__(self) -> int:
        return len(self.points)


def domain_error(h: Hypothesis, d: LabeledDistribution) -> Fraction:
    """Exact misclassification mass of h under d, summed on d's integer
    numerators."""
    if h.space != d.space:
        raise SpaceMismatchError(f"hypothesis space {h.space} != domain space {d.space}")
    labels = h.labels
    return Fraction(sum(w for x, y, w in d.weighted if labels[x] != y), d.denominator)


def popcount_column(
    masks: Sequence[int], weighted: Iterable[tuple[int, int, int]]
) -> tuple[int, ...]:
    """Total weight each labeling gets wrong over (x, y, weight) triples, the
    labelings given as `HypothesisClass.masks`.

    The points are grouped into one bit mask per distinct nonzero gain; an
    error is base plus each gain times a popcount, summed once per distinct
    restriction `mask & support`. `ErrorMatrix` sums domain columns on lanes;
    this remains for the learner's sample columns and for a denominator or
    tally total of 2**64 or more."""
    base, groups = _gains(weighted, lambda x: 1 << 8 * x)  # gain: bit 8x set per point x
    support = sum(groups.values())
    terms = tuple(groups.items())
    error: dict[int, int] = {}  # distinct restriction: its error
    column = []
    for mask in masks:
        r = mask & support
        e = error.get(r)
        if e is None:
            e = base
            for g, group in terms:
                e += g * (r & group).bit_count()
            error[r] = e
        column.append(e)
    return tuple(column)


def _gains(weighted: Iterable[tuple[int, int, int]], lane: Callable) -> tuple[int, dict]:
    """(base, groups): a labeling's error on (x, y, weight) triples is base,
    the label-1 weight, plus the gain of each point it labels 1; groups maps
    each distinct nonzero gain to the sum of lane(x) over its points x."""
    base = 0
    gain: dict[int, int] = {}
    for x, y, w in weighted:
        if y:
            base += w
            w = -w
        gain[x] = gain.get(x, 0) + w
    groups: dict[int, int] = {}
    for x, g in gain.items():
        if g:
            groups[g] = groups.get(g, 0) + lane(x)
    return base, groups


def _meet(levels: Iterable[tuple[list[int], list[int]]], t: int) -> int:
    """Bit mask of the rows whose entry is at most t in every level, t at least
    each level's smallest value."""
    rows = -1
    for values, masks in levels:
        rows &= masks[bisect_right(values, t) - 1]
        if not rows:
            break
    return rows


def argmin_max(columns: Iterable[Sequence[int]]) -> tuple[int, int]:
    """(i, worst): the lowest row index minimizing its largest entry over the
    given columns, and that entry."""
    worst = list(map(max, zip(*columns)))
    if not worst:
        raise ValueError("min-max needs at least one domain")
    best = min(worst)
    return worst.index(best), best


# lane width in bytes by the bit length of the largest value a lane holds, and its
# memoryview format; lanes are laid in native byte order, so one cast reads them,
# and a lane's low byte is its last on a big-endian machine
_LANE_WIDTHS = (1,) * 9 + (2,) * 8 + (4,) * 16 + (8,) * 32
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BIG_ENDIAN = sys.byteorder == "big"


def _point_lanes(hc: HypothesisClass, width: int, points: Iterable[int]) -> tuple[int, dict]:
    """(ones, lanes): 1 in every `width`-byte lane; per point x, member i's label in lane i."""
    spread = bytearray(width * len(hc))
    lanes = {}
    for x in points:
        spread[(width - 1) * _BIG_ENDIAN::width] = hc.rows[x::hc.space]
        lanes[x] = int.from_bytes(spread, sys.byteorder)
    return (1 << 8 * width * len(hc)) // ((1 << 8 * width) - 1), lanes


def _unpack(packed: int, width: int, n: int) -> tuple[int, ...]:
    """The n lanes of `width` bytes of a packed non-negative int."""
    return tuple(memoryview(packed.to_bytes(width * n, sys.byteorder)).cast(_LANE_FORMATS[width]))


class ErrorMatrix:
    """Exact error of every hypothesis of a class on every domain of a list.

    Built once per (class, domain list); every reader of a class's exact
    errors over a domain list goes through one, the clean-domain check of
    `lower_bound_family` included. Single errors come from `domain_error`,
    which shares no code with this class: `verify_certificate` must not share
    code with the search it checks, and `domain_risk` also calls it. Column j
    holds the errors on domain j as integer numerators over one common
    `denominator`, the LCM of all atom-mass denominators, so comparisons,
    maxima and gaps run on ints and `Fraction`s appear only in return values.
    Row i is hypothesis i. Domain columns are sums of per-point lanes (`_point_lanes`, not
    kept): base*ones plus each `_gains` gain times its points' lanes, in the narrowest lanes
    that hold `denominator`; no error exceeds it, so the sum's lanes are the errors even
    where a negative gain borrows. A denominator of 2**64 or more goes to `popcount_column`,
    and so does a domain whose numerators are not non-negative with a sum of at most its
    denominator (only one built around `LabeledDistribution`'s checks); only such a column
    can leave [0, 1], which is refused.
    Sample columns (`tally`) sum per-atom lanes, lane_x or ones - lane_x for label 1, made
    on first use per (column, lane width). `minmax` reads per-column threshold levels
    (`_level`), made on first read. The matrix keeps no `Atom`.
    """

    def __init__(self, hc: HypothesisClass, domains: Sequence[LabeledDistribution]) -> None:
        domains = tuple(domains)
        for j, d in enumerate(domains):
            if d.space != hc.space:
                raise SpaceMismatchError(
                    f"domain {j} has space {d.space}, class space is {hc.space}"
                )
        den = math.lcm(*(d.denominator for d in domains))
        wide = den >> 64
        if not wide:
            width = _LANE_WIDTHS[den.bit_length()]
            ones, lanes = _point_lanes(hc, width, {x for d in domains for x, _, _ in d.weighted})
        columns = []
        for j, d in enumerate(domains):
            scale = den // d.denominator
            ws = [w for _, _, w in d.weighted]
            if wide or min(ws, default=0) < 0 or sum(ws) > d.denominator:
                # numerators forged around LabeledDistribution's checks can carry or
                # borrow across lanes, so such a domain is summed exactly and checked
                column = popcount_column(hc.masks, [(x, y, w * scale) for x, y, w in d.weighted])
                if min(column) < 0 or max(column) > den:
                    raise ValueError(f"domain {j} yields an error outside [0, 1]")
            else:
                base, groups = _gains(d.weighted, lanes.__getitem__)
                packed = base * ones + sum([g * group for g, group in groups.items()])
                column = _unpack(scale * packed, width, len(hc))
            columns.append(column)
        self.rows = len(hc)
        self.denominator = den
        self.columns: tuple[tuple[int, ...], ...] = tuple(columns)
        self._class = hc
        self._weighted = [d.weighted for d in domains]
        self._lanes: dict[tuple[int, int], tuple[int, ...]] = {}

    def error(self, i: int, j: int) -> Fraction:
        """Error of hypothesis i on domain j."""
        return Fraction(self.columns[j][i], self.denominator)

    def minmax(self, columns: Iterable[int]) -> tuple[int, Fraction]:
        """(i, worst): the lowest-index hypothesis minimizing its largest error
        over the listed domains, and that error; what `argmin_max` gives on the
        distinct listed columns. A negative index raises `IndexError`.

        worst is the smallest threshold t at which some row has every listed
        entry at most t, and t qualifies when the AND of the columns' `_level`
        masks at t is nonzero; the lowest set bit of that AND is i. No t below
        the largest column minimum qualifies, so the search tries that first,
        then gallops up the listed columns' larger values and bisects.
        Levels are cached per column, which pays where the same columns are
        read again and again (the trials' meta columns); a column read once,
        such as a sample's `tally` or a `minmax_erm` table, costs less through
        `argmin_max`."""
        js = set(columns)
        if not js:
            raise ValueError("min-max needs at least one domain")
        cache = self._levels
        levels = [cache.get(j) or self._level(j) for j in js]
        worst = max([values[0] for values, _ in levels])
        rows = _meet(levels, worst)
        if not rows:
            # gallop up from the largest minimum, then bisect; every mask at the
            # largest value is full, so ts[-1] meets every row and row 0 answers
            ts = sorted({t for values, _ in levels for t in values if t > worst})
            lo, hi, rows, step = 0, len(ts) - 1, 1, 1
            while lo < hi:
                mid = min(lo + step - 1, (lo + hi) // 2)
                meet = _meet(levels, ts[mid])
                if meet:
                    hi, rows = mid, meet
                else:
                    lo, step = mid + 1, 2 * step
            worst = ts[lo]
        return (rows & -rows).bit_length() - 1, Fraction(worst, self.denominator)

    @cached_property
    def _levels(self) -> dict[int, tuple[list[int], list[int]]]:
        """Column index: its level, made on first read by `minmax`."""
        return {}

    def _level(self, j: int) -> tuple[list[int], list[int]]:
        """(values, masks): column j's distinct entries ascending, and for each
        value v the bit mask of the rows whose entry is at most v; cached."""
        if j < 0:
            raise IndexError(f"column index {j} is negative")
        exact: dict[int, int] = {}
        for i, v in enumerate(self.columns[j]):
            exact[v] = exact.get(v, 0) | 1 << i
        values = sorted(exact)
        self._levels[j] = level = (values, list(accumulate([exact[v] for v in values], or_)))
        return level

    def mistakes(self, j: int, atom_indices: Iterable[int]) -> tuple[int, ...]:
        """How many points of a sample of domain j each hypothesis mislabels,
        the sample given as the index into domain j's atoms of each point."""
        return self.tally(j, Counter(atom_indices).items())

    def tally(self, j: int, counts: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """`mistakes` on a sample of domain j given as (atom index, number of
        points) pairs, atoms indexed in `weighted` order.

        The mistakes are sum(count_k * lane_k), unpacked with one `to_bytes`
        and one `memoryview.cast`. No lane can exceed the total count, so the
        lane width is the narrowest of 1, 2, 4 and 8 bytes that holds it.
        Counts that are not all ints, a negative count, or a total of 2**64
        or more go to `popcount_column`."""
        pairs = tuple(counts)
        cs = [c for _, c in pairs]
        total = sum(cs)
        if type(total) is not int or total >> 64 or min(cs, default=0) < 0:
            weighted = self._weighted[j]
            return popcount_column(self._class.masks, ((*weighted[k][:2], c) for k, c in pairs))
        width = _LANE_WIDTHS[total.bit_length()]
        lanes = self._lanes.get((j, width)) or self._lay_lanes(j, width)
        return _unpack(sum(map(mul, cs, [lanes[k] for k, _ in pairs])), width, self.rows)

    def _lay_lanes(self, j: int, width: int) -> tuple[int, ...]:
        """Domain j's atoms as ints of `width`-byte lanes, lane i 1 where
        hypothesis i mislabels the atom; cached per (j, width)."""
        atoms = self._weighted[j]
        ones, at = _point_lanes(self._class, width, {x for x, _, _ in atoms})
        self._lanes[j, width] = lanes = tuple([ones - at[x] if y else at[x] for x, y, _ in atoms])
        return lanes

    def divergence(self, j: int, k: int, tau: Fraction | None = None) -> Fraction | None:
        """Largest error gap between domains j and k over the hypotheses whose
        smaller error of the two is at most tau (all of them when tau is None);
        None when no hypothesis qualifies."""
        # every entry lies in [0, denominator], so that limit admits every row
        limit = self.denominator if tau is None else math.floor(tau * self.denominator)
        gaps = [abs(x - y) for x, y in zip(self.columns[j], self.columns[k])
                if x <= limit or y <= limit]
        return Fraction(max(gaps), self.denominator) if gaps else None


def empirical_error(h: Hypothesis, s: LabeledSample) -> Fraction:
    """Fraction of sample points h mislabels, as an exact rational."""
    if len(s) == 0:
        raise ValueError("empirical error over an empty sample is undefined")
    mistakes = sum(1 for (x, y) in s.points if h.labels[x] != y)
    return Fraction(mistakes, len(s))


def flip_labels(d: LabeledDistribution) -> LabeledDistribution:
    """The domain with every label complemented; masses untouched."""
    return LabeledDistribution.from_weighted(
        d.space, [(x, 1 - y, w) for x, y, w in d.weighted], d.denominator)


def mix(
    d0: LabeledDistribution, d1: LabeledDistribution, lam: Fraction, *, flip: bool = False
) -> LabeledDistribution:
    """Convex combination (1-lam)*d0 + lam*d1 with atom merging; lam is an int
    or Fraction. With `flip`, d1's labels are complemented first, in the same
    pass: the result equals mix(d0, flip_labels(d1), lam)."""
    if d0.space != d1.space:
        raise SpaceMismatchError(f"cannot mix spaces {d0.space} and {d1.space}")
    lam = Fraction(*exact_values((lam,), "mixture weight"))
    if not (0 <= lam <= 1):
        raise ValueError(f"mixture weight must lie in [0, 1], got {lam}")
    # masses as integer numerators over q * den, with lam = p/q
    p, q = lam.numerator, lam.denominator
    den = math.lcm(d0.denominator, d1.denominator)
    acc: dict[tuple[int, int], int] = {}
    for scale, d, f in (((q - p) * (den // d0.denominator), d0, 0),
                        (p * (den // d1.denominator), d1, 1 if flip else 0)):
        if scale:
            for x, y, w in d.weighted:
                acc[x, y ^ f] = acc.get((x, y ^ f), 0) + scale * w
    return LabeledDistribution.from_weighted(
        d0.space, [(x, y, m) for (x, y), m in acc.items()], q * den)


def domain_risk(p: MetaDistribution, tau: Fraction, h: Hypothesis) -> Fraction:
    """Mass of domains on which h's error strictly exceeds tau (an int or Fraction)."""
    if h.space != p.family.space:
        raise SpaceMismatchError(
            f"hypothesis space {h.space} != family space {p.family.space}"
        )
    tau = Fraction(*exact_values((tau,), "tau"))
    total = ZERO
    for w, d in zip(p.weights, p.family.domains):
        if w > 0 and domain_error(h, d) > tau:
            total += w
    return total


def optimal_tau(p: MetaDistribution, hc: HypothesisClass) -> tuple[Fraction, int]:
    """Smallest threshold with zero domain risk, with its achieving hypothesis.

    Returns (min over h of max error over p's support, index of the first
    hypothesis achieving it). Ties break to the lowest index.
    """
    if hc.space != p.family.space:
        raise SpaceMismatchError(
            f"class space {hc.space} != family space {p.family.space}"
        )
    support = p.support()
    matrix = ErrorMatrix(hc, [p.family.domains[j] for j in support])
    # each column is read once, so no `minmax` levels
    best_idx, best = argmin_max(matrix.columns)
    return Fraction(best, matrix.denominator), best_idx
