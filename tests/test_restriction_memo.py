"""Exact errors computed once per distinct restriction, checked against frozen
copies of the per-hypothesis code they replaced: `popcount_column` and the
`ErrorMatrix` columns (flipped lower-bound pools and sample columns
included), the lane `tally` against `popcount_column`, thresholded divergence, `verify_certificate`,
`cover_is_valid` and the class-file loader. Instances are seeded and include
the shattered product family (restrictions repeat heavily) and the
thresholds of `large_k_family(1/2000)` (all restrictions distinct)."""
import math
import random
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    Cover,
    DimensionQuery,
    DivergenceQuery,
    DomainFamily,
    FormatError,
    GenlabError,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    ShatteringCertificate,
    cover_is_valid,
    domain_error,
    gdim,
    greedy_cover,
    large_k_family,
    large_k_lower_bound,
    product_family,
    verify_certificate,
)
from genlab import dimensions
from genlab.constructions import BASE_RATE
from genlab.core import ErrorMatrix, popcount_column
from genlab.serialize import hypothesis_class_from_dict

from _builders import random_class, random_family

F = Fraction


# Frozen copies of the replaced code.

def frozen_error_column(labelings, weighted):
    cost = {}
    for x, y, w in weighted:
        cost.setdefault(x, [0, 0])[1 - y] += w
    items = tuple(cost.items())
    return tuple(sum(c[labels[x]] for x, c in items) for labels in labelings)


def frozen_columns(hc, domains):
    den = math.lcm(*(d.denominator for d in domains))
    labelings = [h.labels for h in hc.members]
    return den, tuple(
        frozen_error_column(
            labelings, [(x, y, w * (den // d.denominator)) for x, y, w in d.weighted]
        )
        for d in domains
    )


def frozen_divergence(a, b, den, tau):
    if tau is None:
        gaps = [abs(x - y) for x, y in zip(a, b)]
    else:
        limit = math.floor(tau * den)
        gaps = [abs(x - y) for x, y in zip(a, b) if x <= limit or y <= limit]
    return Fraction(max(gaps), den) if gaps else None


def frozen_verify(cert, hc, g, q):
    lo = q.tau - q.alpha
    for mask, w in enumerate(cert.witnesses):
        h = hc.members[w]
        for t, j in enumerate(cert.domain_indices):
            e = domain_error(h, g.domains[j])
            if mask >> t & 1:
                if not e < lo:
                    return False
            elif not e > q.tau:
                return False
    return True


def frozen_cover_is_valid(cover, g, hc):
    def gap(j, c):
        pairs = [(domain_error(h, g.domains[j]), domain_error(h, g.domains[c]))
                 for h in hc.members]
        tau = cover.query.tau
        gaps = [abs(x - y) for x, y in pairs if tau is None or min(x, y) <= tau]
        return max(gaps) if gaps else F(0)

    return all(
        any(gap(j, c) <= cover.radius for c in cover.center_indices)
        for j in range(len(g))
    )


def frozen_class_from_dict(obj):
    def label(v):
        if type(v) is not int:
            raise FormatError(f"hypothesis label must be a JSON integer, got {v!r}")
        return v

    try:
        members = tuple(Hypothesis(tuple(label(v) for v in row)) for row in obj["hypotheses"])
        return HypothesisClass(obj["space"], members)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed hypothesis class object: {exc}") from exc


# Instances.

@pytest.fixture(scope="module")
def product():
    return product_family(large_k_family(F(1, 50)), 3)


@pytest.fixture(scope="module")
def thresholds():
    lkf = large_k_family(F(1, 2000))
    return lkf.slice.hypothesis_class, lkf.family


def random_instances(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        space = rng.randint(1, 9)
        yield rng, random_class(rng, space, rng.randint(1, 40)), random_family(
            rng, space, rng.randint(1, 7)
        )


def restrictions(hc, d):
    support = d.support()
    return {tuple(h.labels[x] for x in support) for h in hc.members}


class TestErrorColumn:
    def check(self, hc, domains):
        m = ErrorMatrix(hc, domains)
        assert (m.denominator, m.columns) == frozen_columns(hc, domains)
        labelings = [h.labels for h in hc.members]
        for d in domains:
            assert popcount_column(hc.masks, d.weighted) == frozen_error_column(
                labelings, d.weighted
            )

    def test_product_family_repeats_restrictions(self, product):
        hc, g = product
        assert max(len(restrictions(hc, d)) for d in g.domains) < len(hc) // 8
        self.check(hc, g.domains)

    def test_thresholds_with_all_restrictions_distinct(self, thresholds):
        hc, g = thresholds
        widest = max(g.domains, key=lambda d: len(d.support()))
        assert len(widest.support()) >= 258
        assert len(restrictions(hc, widest)) == len(hc)
        self.check(hc, g.domains)
        for family_alpha in (F(1, 100), F(1, 500), F(1, 2000)):
            lbf = large_k_lower_bound(family_alpha, BASE_RATE)
            pool = lbf.extended_family.domains
            m = ErrorMatrix(lbf.hypothesis_class, pool)
            assert (m.denominator, m.columns) == frozen_columns(lbf.hypothesis_class, pool)

    def test_seeded_random_classes_lists_and_tuples(self):
        for rng, hc, g in random_instances(90211, 60):
            self.check(hc, g.domains)
            triples = [(x, y, rng.randint(1, 9)) for x, y, _ in g.domains[0].weighted]
            triples += triples[: rng.randint(0, len(triples))]  # repeated points
            want = frozen_error_column([h.labels for h in hc.members], triples)
            assert popcount_column(hc.masks, triples) == want
            assert popcount_column(list(hc.masks), triples) == want
            assert popcount_column(hc.masks, iter(triples)) == want

    def test_single_point_support(self):
        hc = HypothesisClass(3, (Hypothesis((0, 0, 1)), Hypothesis((1, 0, 0)),
                                 Hypothesis((1, 1, 1)), Hypothesis((0, 1, 0))))
        d = LabeledDistribution(3, (Atom(1, 0, F(1, 3)), Atom(1, 1, F(2, 3))))
        self.check(hc, [d])
        assert popcount_column(hc.masks, [(2, 1, 5)]) == (0, 5, 0, 5)
        assert popcount_column(hc.masks, [(0, 0, 7)]) == (0, 7, 7, 0)

    def test_empty_triples_give_zero_column(self):
        assert popcount_column([0b1, 0b100000001, 0b1], []) == (0, 0, 0)
        assert popcount_column([0b100000000], iter(())) == (0,)
        assert popcount_column([], []) == ()
        assert popcount_column([], [(0, 1, 3)]) == ()

    def test_mistakes_match_frozen_counts(self):
        for rng, hc, g in random_instances(90212, 30):
            m = ErrorMatrix(hc, g.domains)
            labelings = [h.labels for h in hc.members]
            for j, d in enumerate(g.domains):
                picks = [rng.randrange(len(d.atoms)) for _ in range(rng.randint(1, 12))]
                counts = {}
                for k in picks:
                    a = d.atoms[k]
                    counts[(a.x, a.y)] = counts.get((a.x, a.y), 0) + 1
                want = frozen_error_column(labelings, [(x, y, c) for (x, y), c in counts.items()])
                assert m.mistakes(j, picks) == want


class TestLaneTally:
    """`ErrorMatrix.tally` sums per-atom lanes of 1, 2, 4 or 8 bytes; each
    tally is checked against `popcount_column` over the same (x, y, count)
    triples, on seeded classes and columns."""

    # totals at the top of each lane width and one past it; 2**64 falls back
    TOPS = (255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 3 * 2**70)

    @staticmethod
    def oracle(hc, d, pairs):
        return popcount_column(hc.masks, [(*d.weighted[k][:2], c) for k, c in pairs])

    @staticmethod
    def split(rng, total, size):
        """Pairs whose counts sum to total over atom indices below size, with
        repeated indices and zero counts."""
        cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 2 * size + 1)))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        return [(rng.randrange(size), c) for c in counts]

    def test_seeded_classes_and_counts(self):
        tops = 0
        for rng, hc, g in random_instances(90213, 80):
            m = ErrorMatrix(hc, g.domains)
            for j, d in enumerate(g.domains):
                size = len(d.weighted)
                for total in (rng.randint(0, 40), *self.TOPS):
                    pairs = self.split(rng, total, size)
                    assert sum(c for _, c in pairs) == total
                    assert m.tally(j, pairs) == self.oracle(hc, d, pairs)
                    assert m.tally(j, iter(pairs)) == self.oracle(hc, d, pairs)
                    # every count on one atom, some listed more than once:
                    # a hypothesis that mislabels it fills its lane to the top
                    k = rng.randrange(size)
                    pairs = [(k, c) for _, c in pairs] or [(k, 0)]
                    column = m.tally(j, pairs)
                    assert column == self.oracle(hc, d, pairs)
                    tops += total in column
        assert tops > 300

    def test_zero_and_empty_counts(self):
        for rng, hc, g in random_instances(90214, 30):
            m = ErrorMatrix(hc, g.domains)
            for j, d in enumerate(g.domains):
                zeros = (0,) * len(hc)
                assert m.tally(j, []) == m.tally(j, iter(())) == zeros
                assert m.tally(j, [(k, 0) for k in range(len(d.weighted))] * 2) == zeros

    def test_one_row_class(self):
        rng = random.Random(90215)
        for _ in range(40):
            space = rng.randint(1, 9)
            hc = random_class(rng, space, 1)
            g = random_family(rng, space, rng.randint(1, 4))
            m = ErrorMatrix(hc, g.domains)
            for j, d in enumerate(g.domains):
                for total in (rng.randint(0, 9), *self.TOPS):
                    pairs = self.split(rng, total, len(d.weighted))
                    assert m.tally(j, pairs) == self.oracle(hc, d, pairs)

    def test_negative_counts_fall_back(self):
        for rng, hc, g in random_instances(90216, 40):
            m = ErrorMatrix(hc, g.domains)
            for j, d in enumerate(g.domains):
                size = len(d.weighted)
                for pairs in ([(rng.randrange(size), -1)],
                              [(rng.randrange(size), rng.randint(-300, 300)) for _ in range(5)],
                              [(0, 2**64), (size - 1, -1)]):
                    assert m.tally(j, pairs) == self.oracle(hc, d, pairs)
            # a negative count is never read as a lane: lanes would borrow
            assert m.tally(0, [(0, 3), (0, -1)]) == self.oracle(hc, g.domains[0], [(0, 2)])

    def test_counts_that_are_not_ints_fall_back(self):
        for rng, hc, g in random_instances(90217, 20):
            m = ErrorMatrix(hc, g.domains)
            d = g.domains[0]
            for pairs in ([(0, 2.5)], [(0, F(1, 3)), (len(d.weighted) - 1, 2)], [(0, 1), (0, 1.0)]):
                assert m.tally(0, pairs) == self.oracle(hc, d, pairs)


class TestOncePerRestriction:
    def test_error_column_sums_each_distinct_restriction_once(self, product):
        hc, g = product
        summed = []  # each restriction the kernel sums, kept alive so ids stay distinct

        class Restriction(int):
            def __and__(self, group):
                summed.append(self)
                return int(self) & group

        class Mask(int):
            def __and__(self, support):
                return Restriction(int(self) & support)

        masks = [Mask(m) for m in hc.masks]
        for d in g.domains:
            summed.clear()
            assert popcount_column(masks, d.weighted) == popcount_column(hc.masks, d.weighted)
            assert len({id(r) for r in summed}) == len(restrictions(hc, d))

    def test_verify_calls_domain_error_once_per_distinct_restriction(self, product, monkeypatch):
        hc, g = product
        q = DimensionQuery(F(3, 10), F(1, 50))
        cert = gdim(hc, g, q).certificate
        calls = []
        real = dimensions.domain_error
        monkeypatch.setattr(dimensions, "domain_error", lambda h, d: calls.append(d) or real(h, d))
        assert verify_certificate(cert, hc, g, q)
        witnesses = HypothesisClass(hc.space, tuple(hc.members[w] for w in set(cert.witnesses)))
        distinct = sum(len(restrictions(witnesses, g.domains[j])) for j in cert.domain_indices)
        assert len(calls) == distinct == 48


class TestDivergence:
    def check(self, m, taus):
        for j in range(len(m.columns)):
            for k in range(len(m.columns)):
                for tau in taus:
                    assert m.divergence(j, k, tau) == frozen_divergence(
                        m.columns[j], m.columns[k], m.denominator, tau
                    )

    def test_product_family(self, product):
        hc, g = product
        m = ErrorMatrix(hc, g.domains)
        values = sorted({v for col in m.columns for v in col})
        on_limit = [F(v, m.denominator) for v in values]  # tau * den an integer
        self.check(m, [None, F(3, 10), F(0), *on_limit])

    def test_seeded_random_instances(self):
        for rng, hc, g in random_instances(90213, 40):
            m = ErrorMatrix(hc, g.domains)
            entries = sorted({v for col in m.columns for v in col})
            exact = F(rng.choice(entries), m.denominator)
            self.check(m, [None, exact, F(rng.randint(0, 10), 10)])

    def test_no_hypothesis_qualifies(self):
        coins = tuple(
            LabeledDistribution(2, (Atom(x, 0, F(1, 2)), Atom(x, 1, F(1, 2)))) for x in (0, 1)
        )
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 1))))
        m = ErrorMatrix(hc, coins)
        assert m.divergence(0, 1, F(49, 100)) is None
        assert m.divergence(0, 1, F(1, 2)) == 0
        self.check(m, [None, F(49, 100), F(1, 2)])


class TestVerifyCertificate:
    def check(self, cert, hc, g, q):
        got = verify_certificate(cert, hc, g, q)
        assert got == frozen_verify(cert, hc, g, q)
        return got

    def test_valid_and_swapped(self, product):
        hc, g = product
        q = DimensionQuery(F(3, 10), F(1, 50))
        cert = gdim(hc, g, q).certificate
        assert self.check(cert, hc, g, q)
        wit = list(cert.witnesses)
        for a, b in ((0, 1), (1, 2), (0, len(wit) - 1)):
            swapped = wit.copy()
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert not self.check(ShatteringCertificate(cert.domain_indices, tuple(swapped)),
                                  hc, g, q)

    def test_in_band_witness(self):
        lkf = large_k_family(F(1, 50))
        hc, g, q = lkf.slice.hypothesis_class, lkf.family, lkf.query()
        cert = lkf.certificate()
        assert self.check(cert, hc, g, q)
        # widen the band until some witness error sits in [tau - alpha, tau]
        wide = DimensionQuery(q.tau, q.tau - F(1, 10**6))
        errors = {domain_error(hc.members[w], g.domains[j])
                  for w in cert.witnesses for j in cert.domain_indices}
        assert any(wide.tau - wide.alpha <= e <= wide.tau for e in errors)
        assert not self.check(cert, hc, g, wide)

    def test_seeded_random_certificates(self):
        outcomes = set()
        for rng, hc, g in random_instances(90214, 60):
            q = DimensionQuery(F(rng.randint(3, 7), 10), F(rng.randint(0, 2), 10))
            cert = gdim(hc, g, q).certificate
            outcomes.add(self.check(cert, hc, g, q))
            for _ in range(4):
                wit = list(cert.witnesses)
                wit[rng.randrange(len(wit))] = rng.randrange(len(hc))
                outcomes.add(self.check(
                    ShatteringCertificate(cert.domain_indices, tuple(wit)), hc, g, q
                ))
        assert outcomes == {True, False}


class TestCoverIsValid:
    def test_greedy_covers(self):
        for rng, hc, g in random_instances(90215, 30):
            for q in (DivergenceQuery(), DivergenceQuery(F(rng.randint(0, 10), 10))):
                cover = greedy_cover(g, hc, F(rng.randint(0, 5), 10), q)
                assert cover_is_valid(cover, g, hc)
                assert frozen_cover_is_valid(cover, g, hc)

    def test_hand_made_covers(self):
        outcomes = set()
        for rng, hc, g in random_instances(90216, 40):
            centers = tuple(sorted(rng.sample(range(len(g)), rng.randint(1, len(g)))))
            tau = rng.choice([None, F(rng.randint(0, 10), 10)])
            cover = Cover(centers, F(rng.randint(0, 3), 10), DivergenceQuery(tau))
            got = cover_is_valid(cover, g, hc)
            assert got == frozen_cover_is_valid(cover, g, hc)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_centers_only_cover_themselves_at_radius_zero(self):
        d0 = LabeledDistribution(2, (Atom(0, 0, F(1, 5)), Atom(1, 1, F(4, 5))))
        d1 = LabeledDistribution(2, (Atom(0, 0, F(4, 5)), Atom(1, 1, F(1, 5))))
        g = DomainFamily(2, (d0, d1))
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 1))))
        for centers, want in (((0,), False), ((1,), False), ((0, 1), True)):
            cover = Cover(centers, F(0), DivergenceQuery())
            assert cover_is_valid(cover, g, hc) is want
            assert frozen_cover_is_valid(cover, g, hc) is want


class TestClassLoading:
    @staticmethod
    def outcome(load, obj):
        try:
            hc = load(obj)
        except (GenlabError, ValueError) as exc:
            return type(exc), str(exc)
        return hc.space, tuple(h.labels for h in hc.members)

    def test_seeded_rows_and_mutants(self):
        rng = random.Random(90217)
        bad_labels = [2, -1, None, [0], [], "0", "1", 1.0, 0.5, True, False, {"a": 1}]
        for _ in range(200):
            space = rng.randint(1, 6)
            rows = [list(h.labels) for h in random_class(rng, space, rng.randint(1, 8)).members]
            obj = {"space": space, "hypotheses": rows}
            kind = rng.randrange(5)
            if kind == 1:
                rows[rng.randrange(len(rows))][rng.randrange(space)] = rng.choice(bad_labels)
            elif kind == 2:
                rows[rng.randrange(len(rows))] = rng.choice(["0101", {"0": 1}, [], 7, None])
            elif kind == 3:
                rows[rng.randrange(len(rows))].pop()
            elif kind == 4:
                obj["hypotheses"] = [tuple(r) for r in rows]  # not JSON, still iterable
            assert self.outcome(hypothesis_class_from_dict, obj) == self.outcome(
                frozen_class_from_dict, obj
            )

    @pytest.mark.parametrize("labels", [(0, 2), (-1, 1), (None, 0), ([0], 1), (0.5,),
                                        ({0: 1}, 0), ("0",)])
    def test_hypothesis_refuses_non_bits(self, labels):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Hypothesis(labels)

    def test_hypothesis_accepts_bit_equal_labels(self):
        """Only int labels equal to 0 or 1 pass: a bool does, 1.0 and
        Fraction(1) do not."""
        for labels in ((True, 0, 1.0), (0, F(1), 0), (0.0,)):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                Hypothesis(labels)
        assert Hypothesis((True, 0, 1)).labels == (True, 0, 1)
        hc = HypothesisClass(3, (Hypothesis((True, 0, 1)), Hypothesis((0, True, 0))))
        assert hc.masks == (0x010001, 0x000100)
        d = LabeledDistribution(3, (Atom(0, 0, F(1, 4)), Atom(1, 1, F(1, 4)), Atom(2, 1, F(1, 2))))
        m = ErrorMatrix(hc, [d])
        assert [m.error(i, 0) for i in range(2)] == [domain_error(h, d) for h in hc.members]
        assert m.columns == ((2, 2),)
        with pytest.raises(ValueError, match="at least one instance"):
            Hypothesis(())
