"""Seeded agreement of the integer-bound covers with a frozen `Fraction` reference.

`ref_within`, `ref_greedy_cover` and `ref_cover_is_valid` are a frozen copy of
the pairwise test the covers used before they compared integer row bounds:
one `Fraction` divergence per (domain, center) pair through
`ErrorMatrix.divergence`, compared with the radius. `greedy_cover` must open
the same centers and `cover_is_valid` must give the same verdict, on full and
partial covers.
"""
import random
import warnings
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    Cover,
    DivergenceQuery,
    DomainFamily,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    cover_is_valid,
    greedy_cover,
)
from genlab.core import ErrorMatrix
from _builders import prime_domain, random_class, random_family

F = Fraction


def ref_within(m, j, c, radius, q):
    gap = m.divergence(j, c, q.tau)
    return gap is None or gap <= radius


def ref_greedy_cover(g, hc, radius, q):
    m = ErrorMatrix(hc, g.domains)
    uncovered = set(range(len(g)))
    centers = []
    while uncovered:
        c = min(uncovered)
        centers.append(c)
        uncovered = {j for j in uncovered if j != c and not ref_within(m, j, c, radius, q)}
    return tuple(centers)


def ref_cover_is_valid(cover, g, hc):
    m = ErrorMatrix(hc, g.domains)
    centers = set(cover.center_indices)
    return all(
        j in centers
        or any(ref_within(m, j, c, cover.radius, cover.query) for c in cover.center_indices)
        for j in range(len(g))
    )


# 0, at least 1, and radii whose denominators share no factor with the masses'
RADII = (F(0), F(1), F(3, 2), F(1, 40), F(1, 10), F(1, 7), F(2, 11), F(5, 13), F(1, 3))
TAUS = (None, F(0), F(1, 5), F(3, 10), F(1, 2), F(1))


def check(g, hc, radius, q, rng, seen):
    cover = greedy_cover(g, hc, radius, q)
    assert cover.center_indices == ref_greedy_cover(g, hc, radius, q)
    assert cover_is_valid(cover, g, hc) and ref_cover_is_valid(cover, g, hc)
    for _ in range(4):
        kept = tuple(c for c in range(len(g)) if rng.random() < 0.3)
        partial = Cover(kept, radius, q)
        valid = cover_is_valid(partial, g, hc)
        assert valid == ref_cover_is_valid(partial, g, hc)
        seen.add(valid)


def no_qualifying_pairs(g, hc, tau):
    m = ErrorMatrix(hc, g.domains)
    return sum(
        m.divergence(j, k, tau) is None for j in range(len(g)) for k in range(j + 1, len(g))
    )


def test_random_families_match_reference():
    rng = random.Random(88001)
    seen: set[bool] = set()
    empty = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            space = rng.randint(1, 6)
            hc = random_class(rng, space, rng.randint(1, 12))
            g = random_family(rng, space, rng.randint(1, 16))
            for tau in TAUS:
                empty += no_qualifying_pairs(g, hc, tau)
                for radius in rng.sample(RADII, 3) + [F(0)]:
                    check(g, hc, radius, DivergenceQuery(tau), rng, seen)
    assert seen == {True, False}
    assert empty > 0


def test_prime_denominators_match_reference():
    """Masses over primes, so the common denominator is a product of primes
    and most radii scale to a non-integer."""
    rng = random.Random(88003)
    seen: set[bool] = set()
    for _ in range(15):
        space = rng.randint(2, 4)
        hc = random_class(rng, space, rng.randint(2, 10))
        g = DomainFamily(space, tuple(
            prime_domain(rng, space, rng.choice((7, 11, 13, 17)))
            for _ in range(rng.randint(2, 12))
        ))
        for tau in rng.sample(TAUS, 3):
            for radius in rng.sample(RADII, 4):
                check(g, hc, radius, DivergenceQuery(tau), rng, seen)
    assert seen == {True, False}


def test_pair_with_no_qualifying_hypothesis_is_covered():
    # errors (1/2, 1) and (1, 9/10): at tau 0 no hypothesis qualifies, and
    # the pair counts as divergence 0
    hc = HypothesisClass(2, (Hypothesis((1, 1)), Hypothesis((1, 0))))
    d1 = LabeledDistribution(2, (Atom(0, 0, F(1, 2)), Atom(1, 1, F(1, 2))))
    d2 = LabeledDistribution(2, (Atom(0, 0, F(9, 10)), Atom(1, 0, F(1, 10))))
    g = DomainFamily(2, (d1, d2))
    q = DivergenceQuery(F(0))
    assert no_qualifying_pairs(g, hc, q.tau) == 1
    for radius in (F(0), F(1, 10)):
        assert greedy_cover(g, hc, radius, q).center_indices == (0,)
        assert cover_is_valid(Cover((1,), radius, q), g, hc)
    # with every hypothesis admitted the gap is 1/2
    assert greedy_cover(g, hc, F(1, 2) - F(1, 1000)).center_indices == (0, 1)
    assert not cover_is_valid(Cover((1,), F(49, 100), DivergenceQuery()), g, hc)
    assert greedy_cover(g, hc, F(1, 2)).center_indices == (0,)


@pytest.mark.parametrize("tau, radius, centers", [
    (F(1, 2), F(1, 4), (0, 1)),  # the error 1/2 sits on tau, so the row qualifies
    (F(1, 2), F(1, 2), (0,)),
    (F(1, 3), F(1, 4), (0,)),  # tau * 2 is not an integer, and no row qualifies
    (F(2, 3), F(1, 4), (0, 1)),
    (None, F(1, 2) - F(1, 10**9), (0, 1)),
])
def test_errors_on_the_thresholds(tau, radius, centers):
    # one hypothesis with errors 1/2 and 1 on the two domains
    hc = HypothesisClass(2, (Hypothesis((1, 1)),))
    d1 = LabeledDistribution(2, (Atom(0, 0, F(1, 2)), Atom(1, 1, F(1, 2))))
    d2 = LabeledDistribution(2, (Atom(0, 0, F(1)),))
    g = DomainFamily(2, (d1, d2))
    q = DivergenceQuery(tau)
    assert greedy_cover(g, hc, radius, q).center_indices == centers
    assert ref_greedy_cover(g, hc, radius, q) == centers
    for kept in ((0,), (1,)):
        cover = Cover(kept, radius, q)
        valid = cover_is_valid(cover, g, hc)
        assert valid == ref_cover_is_valid(cover, g, hc) == (centers == (0,))
