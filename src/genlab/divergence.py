"""Error-gap divergence between domains, greedy covers, and smooth families.

The divergence between two domains is the largest gap between their error
rates over the class; the thresholded variant restricts the sup to hypotheses
that are reasonable (error at most tau) on at least one side. A small cover
under the thresholded divergence caps the family's shattering dimension.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import le
from typing import Callable, Iterable, Sequence

from .core import (
    ConstructionError,
    DomainFamily,
    ErrorMatrix,
    Frozen,
    HypothesisClass,
    LabeledDistribution,
    SpaceMismatchError,
    ZERO,
    exact_values,
    unit_weights,
)
from .dimensions import DimensionQuery, gdim
from .seeding import rng_for


class EmptyQualifyingSetWarning(UserWarning):
    """No hypothesis has error <= tau on either domain; divergence defined as 0."""


class DivergenceQuery(Frozen):
    """tau=None compares over the whole class; otherwise only hypotheses with
    min(error on d1, error on d2) <= tau, an int or a `Fraction`, enter the sup."""

    _key = ("tau",)

    def __init__(self, tau: Fraction | None = None) -> None:
        if tau is not None:
            tau = Fraction(*exact_values((tau,), "divergence tau"))
            if not (0 <= tau <= 1):
                raise ValueError(f"tau must lie in [0, 1], got {tau}")
        self._set(tau=tau)


class Cover(Frozen):
    """Int center indices into a family; every member sits within `radius` of one."""

    _key = ("center_indices", "radius", "query")

    def __init__(self, center_indices: Iterable[int], radius: Fraction,
                 query: DivergenceQuery) -> None:
        center_indices = tuple(center_indices)
        if any(type(c) is not int or c < 0 for c in center_indices):
            raise ValueError(
                f"cover center indices must be non-negative ints, got {center_indices}"
            )
        radius = Fraction(*exact_values((radius,), "cover radius"))
        if radius < 0:
            raise ValueError(f"cover radius must be non-negative, got {radius}")
        self._set(center_indices=center_indices, radius=radius, query=query)


def h_divergence(
    hc: HypothesisClass,
    d1: LabeledDistribution,
    d2: LabeledDistribution,
    q: DivergenceQuery = DivergenceQuery(),
) -> Fraction:
    """Largest error gap |err_d1(h) - err_d2(h)| over the (qualifying) class."""
    gap = ErrorMatrix(hc, (d1, d2)).divergence(0, 1, q.tau)
    if gap is None:
        warnings.warn(
            f"no hypothesis qualifies at tau={q.tau}; divergence defined as 0",
            EmptyQualifyingSetWarning,
            stacklevel=2,
        )
        return ZERO
    return gap


def _balls(m: ErrorMatrix, radius: Fraction,
           tau: Fraction | None) -> tuple[Callable, Callable]:
    """The covers' index over the columns of `m`: (near, bounds). Column x lies
    within `radius` of column y iff lo <= x <= hi on every row, with lo, hi =
    bounds(y), and only the columns in near(y) can. With den the matrix
    denominator, r = floor(radius * den) and limit = floor(tau * den) (den
    when tau is None), lo, hi = y - r, y + r on rows where y <= limit, and
    min(limit + 1, y - r), den elsewhere. This is exact, as every gap is an
    integer over den; a pair with no qualifying row is within the radius.
    near(y) comes from the first row where y <= limit: that row's columns,
    sorted by value once on first use, bisected to those within its own
    bounds there. Every other column fails that row's bound. When no row has
    y <= limit, every column is near. Column y is always within its own
    bounds, so callers build them only for some other column to test."""
    den = m.denominator
    r = math.floor(radius * den)  # every gap is an integer over den
    limit = den if tau is None else math.floor(tau * den)
    rows = list(zip(*m.columns))
    every = range(len(m.columns))
    by_value: dict[int, tuple[list[int], list[int]]] = {}

    def bounds(y: tuple[int, ...]) -> tuple[list[int], list[int]]:
        # a row with y > limit counts only when x <= limit, and then x < y + r
        lo = [v - r if v <= limit else min(limit + 1, v - r) for v in y]
        hi = [v + r if v <= limit else den for v in y]
        return lo, hi

    def near(y: tuple[int, ...]) -> Sequence[int]:
        for i, v in enumerate(y):
            if v <= limit:
                break
        else:
            return every
        if i not in by_value:
            row = rows[i]
            order = sorted(every, key=row.__getitem__)
            by_value[i] = [row[k] for k in order], order
        values, order = by_value[i]
        return order[bisect_left(values, v - r):bisect_right(values, v + r)]

    return near, bounds


def _prepared(
    g: DomainFamily, hc: HypothesisClass, radius: Fraction, q: DivergenceQuery
) -> tuple[Fraction, tuple[tuple[int, ...], ...], tuple[Callable, Callable]]:
    """The checked radius, the columns of the family's `ErrorMatrix` and its
    `_balls` index, for `greedy_cover` and `checked_cover`."""
    radius = Fraction(*exact_values((radius,), "cover radius"))
    if radius < 0:
        raise ValueError("cover radius must be non-negative")
    if hc.space != g.space:
        raise SpaceMismatchError(f"class space {hc.space} != family space {g.space}")
    m = ErrorMatrix(hc, g.domains)
    return radius, m.columns, _balls(m, radius, q.tau)


def _greedy(columns: Sequence[tuple[int, ...]],
            balls: tuple[Callable, Callable]) -> tuple[int, ...]:
    """Open the lowest-index uncovered column as a center, which covers
    itself, and mark covered the uncovered columns near it that pass its
    bounds."""
    near, bounds = balls
    covered = bytearray(len(columns))
    centers = []
    for c, y in enumerate(columns):
        if covered[c]:
            continue
        centers.append(c)
        covered[c] = 1
        left = [k for k in near(y) if not covered[k]]
        if left:
            lo, hi = bounds(y)
            for k in left:
                x = columns[k]
                if all(map(le, lo, x)) and all(map(le, x, hi)):
                    covered[k] = 1
    return tuple(centers)


def _valid(centers: tuple[int, ...], columns: Sequence[tuple[int, ...]],
           balls: tuple[Callable, Callable]) -> bool:
    """Every column that is not a center passes its own bounds at some center
    column; only the centers near it, or every center when there are fewer
    of them, are tested."""
    near, bounds = balls
    is_center = bytearray(len(columns))
    for c in centers:
        is_center[c] = 1
    for j, y in enumerate(columns):
        if is_center[j]:
            continue
        candidates = near(y)
        if len(candidates) > len(centers):
            candidates = centers
        found = [k for k in candidates if is_center[k]]
        if not found:
            return False
        lo, hi = bounds(y)
        if not any(all(map(le, lo, columns[k])) and all(map(le, columns[k], hi))
                   for k in found):
            return False
    return True


def greedy_cover(
    g: DomainFamily,
    hc: HypothesisClass,
    radius: Fraction,
    q: DivergenceQuery = DivergenceQuery(),
) -> Cover:
    """Repeatedly open the lowest-index uncovered domain as a center and mark
    everything within `radius` (an int or a `Fraction`) of it covered, the
    center itself included. Each opened center tests only the still-uncovered
    domains near it in the `_balls` index against its integer row bounds,
    built only when there is one, and marks those within them in a flag
    array. Builds its own `ErrorMatrix`;
    `checked_cover` shares one with the check."""
    radius, columns, balls = _prepared(g, hc, radius, q)
    return Cover(_greedy(columns, balls), radius, q)


def cover_is_valid(cover: Cover, g: DomainFamily, hc: HypothesisClass) -> bool:
    """Re-check that every domain lies within the radius of some center. A
    center covers itself: its divergence to itself is 0 (or no hypothesis
    qualifies), within every radius, which `Cover` keeps non-negative. The
    divergence is symmetric, so each domain that is not a center is tested
    against its own `_balls` bounds at the centers near it, and fails
    without them when there are none. Builds its own `ErrorMatrix`;
    `checked_cover` shares one with the greedy cover."""
    for c in cover.center_indices:
        if not 0 <= c < len(g):
            raise ValueError(f"cover center index {c} out of range for {len(g)} domains")
    m = ErrorMatrix(hc, g.domains)
    return _valid(cover.center_indices, m.columns, _balls(m, cover.radius, cover.query.tau))


def checked_cover(
    g: DomainFamily,
    hc: HypothesisClass,
    radius: Fraction,
    q: DivergenceQuery = DivergenceQuery(),
) -> tuple[Cover, bool]:
    """(`greedy_cover(g, hc, radius, q)`, `cover_is_valid` of it), from one
    `ErrorMatrix` and one `_balls` index: what `genlab cover` prints."""
    radius, columns, balls = _prepared(g, hc, radius, q)
    centers = _greedy(columns, balls)
    return Cover(centers, radius, q), _valid(centers, columns, balls)


def cover_bound_check(
    g: DomainFamily, hc: HypothesisClass, tau: Fraction, alpha: Fraction
) -> tuple[int, int, bool]:
    """Shattering dimension vs. the size of a greedy alpha/2-cover under the
    tau-restricted divergence. Returns (dimension, cover size, dimension <= size)."""
    q = DimensionQuery(tau, alpha)
    dim = gdim(hc, g, q).dimension
    cover = greedy_cover(g, hc, q.alpha / 2, DivergenceQuery(q.tau))
    size = len(cover.center_indices)
    return dim, size, dim <= size


def _sqrt_upper(value: Fraction, scale: int = 10**4) -> Fraction:
    """Smallest a/scale with (a/scale)^2 >= value."""
    target = value.numerator * scale * scale
    a = math.isqrt((target + value.denominator - 1) // value.denominator)
    while a * a * value.denominator < target:
        a += 1
    return Fraction(a, scale)


def smooth_family(
    mu0: Sequence[Fraction],
    pstar: Sequence[int],
    gamma: Fraction,
    count: int,
    seed: int,
) -> DomainFamily:
    """Domains sharing the labeling pstar whose marginals stay multiplicatively
    within [gamma, 1/gamma] of the reference marginal mu0.

    Factors are drawn from a rational band [r, 1/r] with r >= sqrt(gamma). The
    renormalizer is a mu0-weighted mean of the factors, so it lies in the same
    band and every ratio lies in [r^2, 1/r^2], inside [gamma, 1/gamma]; each
    domain is drawn once and the band is checked as a guard. gamma is an int or Fraction.
    """
    gamma = Fraction(*exact_values((gamma,), "gamma"))
    if not (0 < gamma <= 1):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if count < 1:
        raise ValueError("need at least one domain")
    space = len(mu0)
    unit_weights(mu0, "reference masses")
    if len(pstar) != space or any(type(v) is not int or v not in (0, 1) for v in pstar):
        raise ValueError("labeling must assign 0/1 to every instance")
    support = [x for x in range(space) if mu0[x] > 0]
    r = _sqrt_upper(gamma)
    band_width = Fraction(1) / r - r
    inv_gamma = Fraction(1) / gamma
    domains = []
    for i in range(count):
        rng = rng_for(seed, "smooth", i)
        factors = {
            x: r + band_width * Fraction(rng.randrange(10**6 + 1), 10**6)
            for x in support
        }
        # x's mass is factors[x] * mu0[x] / z, so its ratio to mu0[x] is factors[x] / z
        products = [factors[x] * mu0[x] for x in support]
        z = sum(products, start=ZERO)
        if not all(gamma <= factors[x] / z <= inv_gamma for x in support):
            raise ConstructionError(f"domain {i} leaves the ratio band for gamma={gamma}")
        den = math.lcm(*(c.denominator for c in products))
        nums = [c.numerator * (den // c.denominator) for c in products]
        weighted = [(x, pstar[x], w) for x, w in zip(support, nums)]
        domains.append(LabeledDistribution.from_weighted(space, weighted, sum(nums)))
    return DomainFamily(space, tuple(domains))
