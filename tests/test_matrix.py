"""ErrorMatrix and the inverse-CDF sampler against plain references, on seeded
random instances larger than the frozen fixtures: 120 hypotheses, 34 domains,
and a distinct prime mass denominator per random domain, so the matrix's
common denominator is a product of many primes."""
import random
import warnings
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    Cover,
    DimensionQuery,
    DivergenceQuery,
    DomainFamily,
    EmptyQualifyingSetWarning,
    ErrorTable,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    MetaDistribution,
    SpaceMismatchError,
    cover_is_valid,
    domain_error,
    exact_error_table,
    greedy_cover,
    h_divergence,
    induce_partial_class,
    minmax_erm,
    optimal_tau,
)
from genlab.core import ErrorMatrix
from genlab.learner import inverse_cdf

from _builders import prime_domain, primes

F = Fraction
SPACE = 8
HYPOTHESES = 120
RANDOM_DOMAINS = 32


def coin(x):
    """Both labels at x with mass 1/2: every hypothesis errs exactly 1/2."""
    return LabeledDistribution(SPACE, (Atom(x, 0, F(1, 2)), Atom(x, 1, F(1, 2))))


@pytest.fixture(scope="module")
def instance():
    rng = random.Random(77001)
    codes = rng.sample(range(1 << SPACE), HYPOTHESES)
    hc = HypothesisClass(
        SPACE, tuple(Hypothesis(tuple(c >> x & 1 for x in range(SPACE))) for c in codes)
    )
    domains = [prime_domain(rng, SPACE, p) for p in primes(RANDOM_DOMAINS, 11)]
    domains[5:5] = [coin(0), coin(1)]  # a pair no hypothesis qualifies on below 1/2
    return hc, DomainFamily(SPACE, tuple(domains))


def reference_divergence(hc, d1, d2, tau):
    gaps = [
        abs(e1 - e2)
        for e1, e2 in ((domain_error(h, d1), domain_error(h, d2)) for h in hc.members)
        if tau is None or min(e1, e2) <= tau
    ]
    return max(gaps) if gaps else None


def reference_cover(g, hc, radius, q):
    uncovered = set(range(len(g)))
    centers = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyQualifyingSetWarning)
        while uncovered:
            c = min(uncovered)
            centers.append(c)
            for j in sorted(uncovered):
                if h_divergence(hc, g.domains[j], g.domains[c], q) <= radius:
                    uncovered.discard(j)
    return tuple(centers)


def reference_valid(cover, g, hc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyQualifyingSetWarning)
        return all(
            any(
                h_divergence(hc, g.domains[j], g.domains[c], cover.query) <= cover.radius
                for c in cover.center_indices
            )
            for j in range(len(g))
        )


class TestErrorMatrix:
    def test_size_and_coprime_denominators(self, instance):
        hc, g = instance
        m = ErrorMatrix(hc, g.domains)
        assert m.rows == len(hc) >= 100 and len(m.columns) == len(g) >= 30
        dens = {a.mass.denominator for d in g.domains for a in d.atoms}
        product = 1
        for den in dens:
            product *= den
        assert m.denominator == product

    def test_error_matches_domain_error(self, instance):
        hc, g = instance
        m = ErrorMatrix(hc, g.domains)
        for i, h in enumerate(hc.members):
            for j, d in enumerate(g.domains):
                assert m.error(i, j) == domain_error(h, d)

    def test_minmax_over_duplicate_columns(self, instance):
        hc, g = instance
        m = ErrorMatrix(hc, g.domains)
        exact = [[domain_error(h, d) for d in g.domains] for h in hc.members]
        rng = random.Random(77002)
        for _ in range(25):
            distinct = rng.sample(range(len(g)), rng.randint(1, 6))
            columns = [rng.choice(distinct) for _ in range(rng.randint(1, 60))]
            listed = [g.domains[j] for j in columns]
            table = ErrorTable(tuple(tuple(row[j] for j in columns) for row in exact), "exact")
            via_matrix = exact_error_table(hc, listed)
            assert via_matrix.entries == table.entries
            expected = minmax_erm(table)
            assert minmax_erm(via_matrix) == expected
            assert m.minmax(columns) == (expected, max(table.entries[expected]))

    def test_minmax_ties_break_low(self):
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((0, 0)), Hypothesis((1, 1))))
        point = LabeledDistribution(2, (Atom(0, 0, F(1)),))
        assert ErrorMatrix(hc, (point,)).minmax([0, 0]) == (0, F(0))
        with pytest.raises(ValueError):
            ErrorMatrix(hc, (point,)).minmax([])

    def test_optimal_tau_and_induce_match_references(self, instance):
        hc, g = instance
        weights = [F(1, len(g))] * len(g)
        best, idx = optimal_tau(MetaDistribution(g, tuple(weights)), hc)
        worst = [max(domain_error(h, d) for d in g.domains) for h in hc.members]
        assert (best, idx) == (min(worst), worst.index(min(worst)))
        # thresholds placed exactly on observed errors exercise strictness
        for i, j in ((0, 0), (7, 3), (50, 20)):
            tau = domain_error(hc.members[i], g.domains[j])
            for alpha in (F(0), F(1, 7), tau / 2):
                if not (0 <= alpha < tau <= 1):
                    continue
                pcc = induce_partial_class(hc, g, DimensionQuery(tau, alpha))
                for h, concept in zip(hc.members, pcc.concepts):
                    for d, v in zip(g.domains, concept):
                        e = domain_error(h, d)
                        assert v == (1 if e > tau else 0 if e < tau - alpha else None)

    def test_divergence_matches_reference(self, instance):
        hc, g = instance
        m = ErrorMatrix(hc, g.domains)
        rng = random.Random(77003)
        pairs = [(5, 6)] + [tuple(rng.sample(range(len(g)), 2)) for _ in range(60)]
        for tau in (None, F(0), F(1, 5), F(3, 10)):
            for j, k in pairs:
                expected = reference_divergence(hc, g.domains[j], g.domains[k], tau)
                assert m.divergence(j, k, tau) == expected

    def test_empty_qualifying_pair(self, instance):
        hc, g = instance
        m = ErrorMatrix(hc, g.domains)
        q = DivergenceQuery(F(3, 10))
        assert m.divergence(5, 6, q.tau) is None
        with pytest.warns(EmptyQualifyingSetWarning):
            assert h_divergence(hc, g.domains[5], g.domains[6], q) == 0
        # the same pair at a threshold that admits everyone has divergence 0
        assert m.divergence(5, 6, F(1, 2)) == 0

    def test_covers_match_pairwise_reference(self, instance):
        hc, g = instance
        rng = random.Random(77004)
        for radius, tau in ((F(1, 10), F(3, 10)), (F(1, 4), None), (F(0), F(1, 5))):
            q = DivergenceQuery(tau)
            with warnings.catch_warnings():
                warnings.simplefilter("error", EmptyQualifyingSetWarning)
                cover = greedy_cover(g, hc, radius, q)
            assert cover.center_indices == reference_cover(g, hc, radius, q)
            assert cover_is_valid(cover, g, hc) and reference_valid(cover, g, hc)
            for _ in range(5):
                kept = tuple(c for c in cover.center_indices if rng.random() < 0.7)
                partial = Cover(kept, radius, q)
                assert cover_is_valid(partial, g, hc) == reference_valid(partial, g, hc)

    def test_space_mismatch(self, instance):
        hc, _ = instance
        with pytest.raises(SpaceMismatchError):
            ErrorMatrix(hc, (LabeledDistribution(3, (Atom(0, 0, F(1)),)),))


class TestInverseCdf:
    @staticmethod
    def reference(weights, u):
        total = F(0)
        for i, w in enumerate(weights):
            total += w
            if F(u) < total:
                return i
        return len(weights) - 1

    def test_matches_linear_scan(self):
        rng = random.Random(77005)
        for _ in range(200):
            size = rng.randint(1, 8)
            raw = [rng.choice((0, rng.randint(1, 20))) for _ in range(size)]
            raw[rng.randrange(size)] += 1
            weights = [F(w, sum(raw)) for w in raw]
            draw = inverse_cdf(weights)
            cum = [sum(weights[: i + 1]) for i in range(size)]
            # exact cumulative boundaries that floats represent exactly
            us = [rng.random() for _ in range(20)] + [
                float(c) for c in cum if c < 1 and F(float(c)) == c
            ]
            for u in us:
                picked = draw(u)
                assert picked == self.reference(weights, u)
                assert weights[picked] > 0

    def test_boundary_goes_to_next_bucket(self):
        draw = inverse_cdf([F(1, 2), F(0), F(1, 4), F(1, 4)])
        assert [draw(u) for u in (0.0, 0.4999, 0.5, 0.75, 0.9999)] == [0, 0, 2, 3, 3]
