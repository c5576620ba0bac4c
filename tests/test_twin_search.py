"""Seeded agreement of the shattering search with the frozen references on
classes whose points repeat.

Points are twins when every concept takes the same value at both, None
included. `partial_vc_dim` searches only the first point of each twin class;
the breadth-first search and the exhaustive oracle of `test_search` search
every point. Most classes below are built from a base class by giving point
p the column of base point `sources[p]`, so the twins sit wherever `sources`
repeats an entry: before, after and between other columns.
"""
import random
from fractions import Fraction

from genlab import (
    DimensionQuery,
    DomainFamily,
    PartialConceptClass,
    induce_partial_class,
    partial_vc_dim,
)
from test_search import CAPS, bfs_vc_dim, check_gdim, oracle_vc_dim, realize

F = Fraction


def copies(base, sources):
    """The class over len(sources) points whose point p takes the column of
    base point sources[p]."""
    return PartialConceptClass(
        len(sources), tuple(tuple(c[s] for s in sources) for c in base.concepts)
    )


def has_twins(pcc):
    columns = list(zip(*pcc.concepts))
    return len(set(columns)) < len(columns)


def random_base(rng, universe, undefined):
    count = rng.randint(2, 40)
    return PartialConceptClass(universe, tuple(
        tuple(None if rng.random() < undefined else rng.randint(0, 1) for _ in range(universe))
        for _ in range(count)
    ))


def assert_matches_references(pcc):
    for cap in CAPS:
        got = partial_vc_dim(pcc, cap)
        assert got == bfs_vc_dim(pcc, cap) == oracle_vc_dim(pcc, cap)


def test_random_twin_heavy_classes():
    rng = random.Random(91019)
    twinned = with_none = larger = 0
    for _ in range(120):
        base = random_base(rng, rng.randint(1, 6), rng.uniform(0.0, 0.5))
        sources = [rng.randrange(base.universe_size) for _ in range(rng.randint(1, 11))]
        pcc = copies(base, sources)
        assert_matches_references(pcc)
        twinned += has_twins(pcc)
        with_none += has_twins(pcc) and any(None in c for c in pcc.concepts)
        larger += partial_vc_dim(pcc).dimension >= 2
    assert twinned >= 100 and with_none >= 50 and larger >= 20


def test_twins_before_and_after_their_first_copy():
    # the base shatters {0, 1} and {0, 2}, with None at point 2
    base = PartialConceptClass(3, (
        (0, 0, 0), (0, 1, None), (1, 0, 1), (1, 1, 0), (0, 0, 1), (1, 1, None),
    ))
    for sources in ([1, 0, 1, 2, 0, 2], [2, 2, 1, 0, 1, 0], [0, 1, 2, 2, 1, 0], [1, 1, 1, 0]):
        pcc = copies(base, sources)
        assert has_twins(pcc)
        assert_matches_references(pcc)


def test_every_point_a_twin_of_point_zero():
    base = PartialConceptClass(1, ((0,), (1,), (None,), (1,)))
    for n in (1, 2, 5, 9):
        pcc = copies(base, [0] * n)
        assert partial_vc_dim(pcc) == (1, (0,), True)
        assert_matches_references(pcc)
    one_valued = PartialConceptClass(4, ((1, 1, 1, 1), (None, None, None, None)))
    assert partial_vc_dim(one_valued) == (0, (), True)
    assert_matches_references(one_valued)


def test_class_without_twins():
    rng = random.Random(91021)
    checked = 0
    while checked < 30:
        pcc = random_base(rng, rng.randint(1, 9), 0.3)
        if has_twins(pcc):
            continue
        assert_matches_references(pcc)
        checked += 1


def test_repeated_domains_keep_gdim_and_certificates():
    """A family listing some domains several times induces a class with
    twins; `gdim` gives the breadth-first set and witnesses, and they verify."""
    rng = random.Random(91027)
    for _ in range(25):
        base = random_base(rng, rng.randint(1, 5), rng.uniform(0.0, 0.4))
        hc, g = realize(base)
        sources = [rng.randrange(len(g)) for _ in range(rng.randint(2, 9))]
        repeated = DomainFamily(g.space, tuple(g.domains[s] for s in sources))
        pcc = copies(base, sources)
        for cap in CAPS:
            q = DimensionQuery(F(3, 4), F(1, 2), cap)
            assert induce_partial_class(hc, repeated, q) == pcc
            check_gdim(hc, repeated, q, pcc)
