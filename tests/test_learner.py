import random
from fractions import Fraction

import pytest

from genlab import (
    DomainFamily,
    ErrorTable,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    LabeledSample,
    Atom,
    MetaDistribution,
    SpaceMismatchError,
    TrainingSet,
    domain_error,
    draw_domain_indices,
    empirical_error,
    estimate_errors,
    exact_error_table,
    minmax_erm,
    odd_even_domain,
    optimal_tau,
    pooled_erm,
    sample_size_for,
    sample_training_set,
    uniform_weights,
)
from _builders import random_class, random_domain, random_family, random_meta

F = Fraction


def point_mass_meta(d: LabeledDistribution) -> MetaDistribution:
    return MetaDistribution(DomainFamily(d.space, (d,)), (F(1),))


class TestStructures:
    def test_training_set_validation(self):
        a = LabeledSample(((0, 0),))
        b = LabeledSample(((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            TrainingSet((0, 1), (a,), 7, (1, 2))  # one sample for two draws
        with pytest.raises(ValueError):
            TrainingSet((0,), (a,), 7, ())  # seed count mismatch
        with pytest.raises(ValueError):
            TrainingSet((0, 1), (a, b), 7, (1, 2))  # unequal sample sizes

    def test_error_table_validation(self):
        with pytest.raises(ValueError):
            ErrorTable(((F(1, 2),),), "guessed")
        with pytest.raises(ValueError):
            ErrorTable((), "exact")
        with pytest.raises(ValueError):
            ErrorTable(((F(1, 2), F(1, 3)), (F(1, 4),)), "exact")
        with pytest.raises(ValueError):
            ErrorTable(((F(3, 2),),), "exact")
        t = ErrorTable(((F(1, 2), F(0)),), "exact")
        assert t.columns == 2


class TestDomainDraws:
    def test_uniform_frequencies(self):
        rng = random.Random(55001)
        fam = random_family(rng, 4, 4)
        p = MetaDistribution(fam, uniform_weights(4))
        indices, seeds = draw_domain_indices(p.weights, 10000, 55002)
        assert len(indices) == len(seeds) == 10000
        for j in range(4):
            freq = indices.count(j) / 10000
            # 3 sigma for a fair 4-sided draw is about 0.013
            assert abs(freq - 0.25) < 0.013

    def test_skewed_frequencies(self):
        rng = random.Random(55003)
        fam = random_family(rng, 4, 3)
        p = MetaDistribution(fam, (F(1, 2), F(1, 3), F(1, 6)))
        indices, _ = draw_domain_indices(p.weights, 10000, 55004)
        for j, w in enumerate(p.weights):
            assert abs(indices.count(j) / 10000 - float(w)) < 0.02

    def test_zero_weight_never_drawn(self):
        rng = random.Random(55005)
        fam = random_family(rng, 4, 3)
        p = MetaDistribution(fam, (F(1, 2), F(0), F(1, 2)))
        indices, _ = draw_domain_indices(p.weights, 2000, 55006)
        assert 1 not in indices

    def test_replay_is_exact(self):
        rng = random.Random(55007)
        p = random_meta(rng, random_family(rng, 4, 3))
        assert draw_domain_indices(p.weights, 50, 9) == draw_domain_indices(p.weights, 50, 9)
        assert draw_domain_indices(p.weights, 50, 9) != draw_domain_indices(p.weights, 50, 10)

    def test_rejects_empty_draw(self):
        rng = random.Random(55008)
        p = random_meta(rng, random_family(rng, 3, 2))
        with pytest.raises(ValueError):
            draw_domain_indices(p.weights, 0, 1)


class TestSampling:
    def test_shapes_and_support(self):
        rng = random.Random(55010)
        p = random_meta(rng, random_family(rng, 5, 3))
        t = sample_training_set(p, 7, 4, 55011)
        assert len(t) == 7
        assert all(len(s) == 4 for s in t.samples)
        for j, s in zip(t.domain_indices, t.samples):
            atoms = {(a.x, a.y) for a in p.family.domains[j].atoms}
            assert set(s.points) <= atoms

    def test_point_mass_domain_is_constant(self):
        d = LabeledDistribution(3, (Atom(2, 1, F(1)),))
        t = sample_training_set(point_mass_meta(d), 3, 5, 55012)
        for s in t.samples:
            assert s.points == ((2, 1),) * 5

    def test_rejects_empty_samples(self):
        d = LabeledDistribution(1, (Atom(0, 0, F(1)),))
        with pytest.raises(ValueError):
            sample_training_set(point_mass_meta(d), 2, 0, 1)


class TestEstimation:
    def test_matches_direct_recount(self):
        rng = random.Random(55020)
        p = random_meta(rng, random_family(rng, 4, 3))
        hc = random_class(rng, 4, 5)
        t = sample_training_set(p, 6, 8, 55021)
        table = estimate_errors(hc, t)
        assert table.mode == "empirical"
        for i, h in enumerate(hc.members):
            for k, s in enumerate(t.samples):
                assert table.entries[i][k] == empirical_error(h, s)

    def test_consistent_hypothesis_scores_zero(self):
        d = LabeledDistribution(2, (Atom(0, 0, F(1, 2)), Atom(1, 1, F(1, 2))))
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 0))))
        t = sample_training_set(point_mass_meta(d), 4, 6, 55022)
        table = estimate_errors(hc, t)
        assert table.entries[0] == (F(0),) * 4
        assert table.entries[1] == (F(1),) * 4
        with pytest.raises(SpaceMismatchError, match="outside the class's space"):
            estimate_errors(HypothesisClass(1, (Hypothesis((0,)),)), t)

    def test_single_point_entries_are_binary(self):
        rng = random.Random(55023)
        p = random_meta(rng, random_family(rng, 4, 3))
        hc = random_class(rng, 4, 4)
        table = estimate_errors(hc, sample_training_set(p, 5, 1, 55024))
        assert all(v in (0, 1) for row in table.entries for v in row)

    def test_hoeffding_deviation_rate(self):
        # m = 150 makes a 1/10 deviation at confidence 9/10 for one entry;
        # the observed violation rate should come in far under that bound
        d, slice_ = odd_even_domain(3)
        h2 = slice_.hypothesis_class.members[1]
        truth = domain_error(h2, d)
        assert truth == F(23, 60)
        m = sample_size_for(F(1, 10), F(1, 10), 1, 1)
        assert m == 150
        p = point_mass_meta(d)
        bad = 0
        for rep in range(200):
            t = sample_training_set(p, 1, m, 55100 + rep)
            emp = empirical_error(h2, t.samples[0])
            if abs(emp - truth) > F(1, 10):
                bad += 1
        assert bad <= 20


class TestErm:
    def test_exact_minmax_matches_optimal_tau(self):
        rng = random.Random(55030)
        for _ in range(30):
            space = rng.randint(2, 5)
            p = random_meta(rng, random_family(rng, space, rng.randint(1, 4)))
            hc = random_class(rng, space, rng.randint(1, 8))
            support = [p.family.domains[j] for j in p.support()]
            table = exact_error_table(hc, support)
            assert minmax_erm(table) == optimal_tau(p, hc)[1]

    def test_minmax_tie_breaks_low(self):
        table = ErrorTable(((F(1, 2), F(1, 4)), (F(1, 4), F(1, 2))), "exact")
        assert minmax_erm(table) == 0

    def test_against_naive_scan(self):
        rng = random.Random(55031)
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 5)
            entries = tuple(
                tuple(F(rng.randint(0, 8), 8) for _ in range(cols))
                for _ in range(rows)
            )
            table = ErrorTable(entries, "exact")
            worsts = [max(r) for r in entries]
            assert minmax_erm(table) == worsts.index(min(worsts))
            w = uniform_weights(cols)
            avgs = [sum(r) / cols for r in entries]
            assert pooled_erm(table, w) == avgs.index(min(avgs))

    def test_pooled_and_minmax_disagree(self):
        # h0 is flat at 3/10 everywhere, h1 is perfect on one domain and bad
        # on the other: worst-case picks h0, the average picks h1
        table = ErrorTable(
            ((F(3, 10), F(3, 10)), (F(0), F(1, 2))), "exact"
        )
        assert minmax_erm(table) == 0
        assert pooled_erm(table, uniform_weights(2)) == 1

    def test_pooled_weight_validation(self):
        table = ErrorTable(((F(1, 2), F(1, 2)),), "exact")
        with pytest.raises(ValueError):
            pooled_erm(table, (F(1),))
        with pytest.raises(ValueError):
            pooled_erm(table, (F(5, 4), F(-1, 4)))
        with pytest.raises(ValueError):
            pooled_erm(table, (F(1, 2), F(1, 4)))

    def test_perturbed_table_keeps_margin(self):
        # entry-wise perturbations below epsilon cannot push the min-max
        # choice past tau - alpha when some hypothesis sits 2*epsilon deeper
        rng = random.Random(55032)
        tau, alpha, eps = F(1, 2), F(1, 10), F(1, 20)
        checked = 0
        while checked < 25:
            space = rng.randint(2, 5)
            fam = random_family(rng, space, rng.randint(1, 4))
            hc = random_class(rng, space, rng.randint(2, 10))
            table = exact_error_table(hc, fam.domains)
            best = min(max(row) for row in table.entries)
            if best > tau - alpha - 2 * eps:
                continue
            checked += 1
            perturbed = tuple(
                tuple(
                    min(max(v + eps * F(rng.randint(-9, 9), 10), F(0)), F(1))
                    for v in row
                )
                for row in table.entries
            )
            hat = minmax_erm(ErrorTable(perturbed, "empirical"))
            assert max(table.entries[hat]) < tau - alpha


class TestSampleSize:
    def test_known_values(self):
        assert sample_size_for(F(1, 10), F(1, 10), 1, 1) == 150
        assert sample_size_for(F(1, 10), F(1, 10), 1, 2) == 185

    def test_monotone(self):
        base = sample_size_for(F(1, 10), F(1, 10), 4, 8)
        assert sample_size_for(F(1, 20), F(1, 10), 4, 8) > base
        assert sample_size_for(F(1, 10), F(1, 100), 4, 8) > base
        assert sample_size_for(F(1, 10), F(1, 10), 8, 8) > base
        assert sample_size_for(F(1, 10), F(1, 10), 4, 16) > base

    def test_rejections(self):
        with pytest.raises(ValueError):
            sample_size_for(F(0), F(1, 10), 1, 1)
        with pytest.raises(ValueError):
            sample_size_for(F(1, 10), F(1), 1, 1)
        with pytest.raises(ValueError):
            sample_size_for(F(1, 10), F(1, 10), 0, 1)


class TestRefusalMessages:
    HC = HypothesisClass(2, (Hypothesis((0, 1)),))
    EMPTY = TrainingSet((0,), (LabeledSample(()),), 1, (2,))

    @pytest.mark.parametrize("build, message", [
        (lambda c: estimate_errors(c.HC, c.EMPTY),
         "^empirical error over an empty sample is undefined$"),
        (lambda c: uniform_weights(0), "^need at least one column$"),
    ], ids=["estimate-empty-sample", "uniform-weights-zero"])
    def test_message(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(self)
