"""Seeded agreement of the depth-first shattering search with two references.

`bfs_vc_dim` and `bfs_witness` are a frozen copy of the level-wide
breadth-first search and the per-mask witness scan that the depth-first search
replaced; `oracle_vc_dim` enumerates every point set of each size. Both must
give the same `VcResult` as `partial_vc_dim`, and `gdim` must give the same
certificate as the breadth-first witnesses, also on the 512-hypothesis
product class, whose witnesses are not in index order.
"""
import itertools
import random
from fractions import Fraction

from genlab import (
    Atom,
    DimensionQuery,
    DomainFamily,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    PartialConceptClass,
    ShatteringCertificate,
    VcResult,
    gdim,
    induce_partial_class,
    large_k_family,
    partial_vc_dim,
    product_family,
    verify_certificate,
)
from genlab.dimensions import DEFAULT_SEARCH_CAP

F = Fraction
CAPS = (None, 1, 2, 3)


def _zero_pattern(concept, points):
    mask = 0
    for t, p in enumerate(points):
        v = concept[p]
        if v is None:
            return None
        if v == 0:
            mask |= 1 << t
    return mask


def _is_shattered(pcc, points):
    need = 1 << len(points)
    seen = set()
    for c in pcc.concepts:
        m = _zero_pattern(c, points)
        if m is not None:
            seen.add(m)
            if len(seen) == need:
                return True
    return False


def bfs_vc_dim(pcc, size_cap=None):
    cap = DEFAULT_SEARCH_CAP if size_cap is None else size_cap
    n = pcc.universe_size
    level = [()]
    size = 0
    while True:
        if size >= cap:
            return VcResult(size, level[0], False)
        grown = []
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


def bfs_witness(pcc, points, mask):
    for i, c in enumerate(pcc.concepts):
        if _zero_pattern(c, points) == mask:
            return i
    raise AssertionError("shattered set lost a witness")


def oracle_vc_dim(pcc, size_cap=None):
    """Every point set of each size in lexicographic order; the first
    shattered one of the largest size, stopping at the cap."""
    cap = DEFAULT_SEARCH_CAP if size_cap is None else size_cap
    best = ()
    for size in range(1, pcc.universe_size + 1):
        found = None
        for pts in itertools.combinations(range(pcc.universe_size), size):
            patterns = set()
            for c in pcc.concepts:
                values = tuple(c[p] for p in pts)
                if None not in values:
                    patterns.add(values)
            if len(patterns) == 1 << size:
                found = pts
                break
        if found is None:
            return VcResult(len(best), best, True)
        best = found
        if size == cap:
            return VcResult(size, best, False)
    return VcResult(len(best), best, True)


def realize(pcc):
    """A class and family whose induced class at tau=3/4, alpha=1/2 is `pcc`.

    Domain j puts mass 1/2 on each of the points 2j and 2j+1, both labeled 0;
    a hypothesis labels both 1 (error 1, value 1), neither (error 0, value 0)
    or only the first (error 1/2, undefined). Trailing points outside every
    domain spell the concept index in binary, so duplicate concepts stay
    distinct hypotheses."""
    n = pcc.universe_size
    tag_bits = max(1, (len(pcc) - 1).bit_length())
    space = 2 * n + tag_bits
    label = {1: (1, 1), 0: (0, 0), None: (1, 0)}
    members = tuple(
        Hypothesis(
            tuple(b for v in c for b in label[v])
            + tuple(i >> t & 1 for t in range(tag_bits))
        )
        for i, c in enumerate(pcc.concepts)
    )
    domains = tuple(
        LabeledDistribution(space, (Atom(2 * j, 0, F(1, 2)), Atom(2 * j + 1, 0, F(1, 2))))
        for j in range(n)
    )
    return HypothesisClass(space, members), DomainFamily(space, domains)


def random_pcc(rng):
    """Universe 0-10, 1-60 concepts drawn with repetition from a smaller pool,
    each value undefined with probability 0.2-0.6."""
    universe = rng.randint(0, 10)
    undefined = rng.uniform(0.2, 0.6)
    pool = [
        tuple(None if rng.random() < undefined else rng.randint(0, 1) for _ in range(universe))
        for _ in range(rng.randint(1, 60))
    ]
    count = rng.randint(1, 60)
    return PartialConceptClass(universe, tuple(rng.choice(pool) for _ in range(count)))


def check_gdim(hc, g, q, pcc):
    res = gdim(hc, g, q)
    ref = bfs_vc_dim(pcc, q.size_cap)
    points = ref.shattered
    witnesses = tuple(bfs_witness(pcc, points, m) for m in range(1 << len(points)))
    assert (res.dimension, res.exact) == (ref.dimension, ref.exact)
    assert res.certificate == ShatteringCertificate(points, witnesses)
    assert verify_certificate(res.certificate, hc, g, q)


def test_random_partial_classes_match_references():
    rng = random.Random(30303)
    reached = set()
    for _ in range(150):
        pcc = random_pcc(rng)
        for cap in CAPS:
            got = partial_vc_dim(pcc, cap)
            assert got == bfs_vc_dim(pcc, cap) == oracle_vc_dim(pcc, cap)
            if not got.exact:
                reached.add(cap)
        if pcc.universe_size:
            hc, g = realize(pcc)
            for cap in CAPS:
                q = DimensionQuery(F(3, 4), F(1, 2), cap)
                assert induce_partial_class(hc, g, q) == pcc
                check_gdim(hc, g, q, pcc)
    assert reached == {1, 2, 3}


def random_structure(seed, domains):
    """64 distinct labelings of 8 points and `domains` domains of at most 4
    atoms with integer weights."""
    rng = random.Random(seed)
    codes = rng.sample(range(256), 64)
    hc = HypothesisClass(8, tuple(Hypothesis(tuple(c >> x & 1 for x in range(8))) for c in codes))
    family = []
    for _ in range(domains):
        xs = rng.sample(range(8), rng.randint(1, 4))
        weights = [rng.randint(1, 9) for _ in xs]
        total = sum(weights)
        family.append(LabeledDistribution(8, tuple(
            Atom(x, rng.randint(0, 1), F(w, total)) for x, w in zip(xs, weights)
        )))
    return hc, DomainFamily(8, tuple(family))


def test_random_structure_with_twenty_domains():
    hc, g = random_structure(60013, 20)
    for cap in CAPS:
        q = DimensionQuery(F(3, 10), F(1, 20), cap)
        pcc = induce_partial_class(hc, g, q)
        assert partial_vc_dim(pcc, cap) == bfs_vc_dim(pcc, cap) == oracle_vc_dim(pcc, cap)
        check_gdim(hc, g, q, pcc)


def product_structure():
    """The class and family that `construct product --alpha 1/50 --d 3`
    writes: 512 hypotheses and 9 domains."""
    return product_family(large_k_family(F(1, 50)), 3)


def test_product_structure_certificate():
    hc, g = product_structure()
    for cap in (2, None):
        q = DimensionQuery(F(3, 10), F(1, 50), cap)
        check_gdim(hc, g, q, induce_partial_class(hc, g, q))
    # all 9 domains are shattered, so the 512 witnesses are the 512 hypotheses
    cert = gdim(hc, g, q).certificate
    assert cert.domain_indices == tuple(range(9))
    assert sorted(cert.witnesses) == list(range(512))
