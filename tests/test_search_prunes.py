"""The shattering search's total-count prune is implied by its per-pattern prune.

`dfs_with_count_prune` is a frozen copy of `partial_vc_dim` as it stood when
it also pruned a node whose set has fewer than 2^target concepts defined on
it, and when it held each group as a list of (zero, one) mask pairs: it is
the reference for that layout, which the search on per-point bit columns
replaced. A node of size s holds 2^s non-empty groups, so such a node has a
group of fewer than 2^(target - s) concepts and the per-pattern prune fires
there too. The copy asserts that at every node where the count prune fires, and
counts the nodes it visits with and without the count prune: the counts and
the `VcResult`s agree, and `partial_vc_dim` gives the same result, on seeded
classes of 40-80 points, larger than the search fixtures, on induced random
structures of up to 150 domains, and on the 512-concept product class.
"""
import random
from fractions import Fraction
from functools import reduce
from operator import or_

from genlab import DimensionQuery, PartialConceptClass, VcResult, induce_partial_class, partial_vc_dim
from genlab.dimensions import DEFAULT_SEARCH_CAP
from test_search import product_structure, random_structure

CAPS = (None, 1, 2, 3, 4)


def dfs_with_count_prune(pcc, size_cap=None, count_prune=True):
    """(VcResult, nodes visited, nodes the count prune cut)."""
    cap = DEFAULT_SEARCH_CAP if size_cap is None else size_cap
    best = ()
    visits = cut = 0

    def visit(points, groups, candidates):
        nonlocal best, visits, cut
        visits += 1
        size = len(points)
        if size > len(best):
            best = points
            if size == cap:
                return True
        target = len(best) + 1
        per_pattern = min(map(len, groups)) < 1 << (target - size)
        if count_prune and sum(map(len, groups)) < 1 << target:
            assert len(groups) == 1 << size and per_pattern
            cut += 1
            return False
        if per_pattern:
            return False
        rest = candidates
        for g in groups:
            rest &= reduce(or_, [z for z, _ in g]) & reduce(or_, [o for _, o in g])
        while rest and size + rest.bit_count() > len(best):
            bit = rest & -rest
            rest ^= bit
            split = []
            for g in groups:
                split.append([c for c in g if c[0] & bit])
                split.append([c for c in g if c[1] & bit])
            if visit(points + (bit.bit_length() - 1,), split, rest):
                return True
        return False

    capped = visit((), [list(set(pcc.masks))], (1 << pcc.universe_size) - 1)
    return VcResult(len(best), best, not capped), visits, cut


def check(pcc, cap):
    """(result, nodes the count prune cut), after checking that both copies
    visit as many nodes and give `partial_vc_dim`'s result."""
    with_prune, visits, cut = dfs_with_count_prune(pcc, cap)
    without, visits_without, _ = dfs_with_count_prune(pcc, cap, count_prune=False)
    assert with_prune == without == partial_vc_dim(pcc, cap)
    assert visits == visits_without
    return with_prune, cut


def random_wide_pcc(rng):
    """40-80 points, 8-80 concepts drawn with repetition from a pool of 8-60,
    each value undefined with probability 0.1-0.5."""
    universe = rng.randint(40, 80)
    undefined = rng.uniform(0.1, 0.5)
    pool = [
        tuple(None if rng.random() < undefined else rng.randint(0, 1) for _ in range(universe))
        for _ in range(rng.randint(8, 60))
    ]
    return PartialConceptClass(universe, tuple(rng.choice(pool) for _ in range(rng.randint(8, 80))))


def test_count_prune_changes_nothing_on_random_classes():
    rng = random.Random(40961)
    cuts = 0
    reached = set()
    for _ in range(20):
        pcc = random_wide_pcc(rng)
        for cap in CAPS:
            result, cut = check(pcc, cap)
            cuts += cut
            if not result.exact:
                reached.add(cap)
    assert cuts > 0  # the count prune fired, so dropping it was tested
    assert reached == {1, 2, 3, 4}


def test_count_prune_changes_nothing_on_induced_structures():
    for domains in (40, 60, 150):
        hc, g = random_structure(60013 + domains, domains)
        pcc = induce_partial_class(hc, g, DimensionQuery(Fraction(3, 10), Fraction(1, 20)))
        for cap in (None, 3):
            check(pcc, cap)
    hc, g = product_structure()
    pcc = induce_partial_class(hc, g, DimensionQuery(Fraction(3, 10), Fraction(1, 50)))
    for cap in (None, 2):
        check(pcc, cap)
