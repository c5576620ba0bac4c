"""The float-threshold sampler and the count-based learner against frozen
copies of the integer sampler and the per-point sampling path they replace,
on seeded random weights, metas and classes."""
import math
import random
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    DomainFamily,
    ErrorTable,
    LabeledDistribution,
    LabeledSample,
    MetaDistribution,
    PartialConceptClass,
    TrainingSet,
    domain_error,
    domain_risk,
    empirical_error,
    estimate_errors,
    exposure_trial,
    minmax_erm,
    sample_training_set,
)
from genlab.core import ErrorMatrix
from genlab.experiments import _learn
from genlab.learner import draw_domain_indices, inverse_cdf, numerator_cdf
from genlab.seeding import rng_for

from _builders import random_class, random_domain

F = Fraction
MERSENNE_61 = 2**61 - 1


def frozen_inverse_cdf(weights):
    """The integer sampler this package used before the float thresholds."""
    weights = [F(w) for w in weights]
    den = math.lcm(*(w.denominator for w in weights))
    cum = []
    total = 0
    for w in weights:
        total += w.numerator * (den // w.denominator)
        cum.append(total)
    last = len(cum) - 1

    def draw(u):
        p, q = u.as_integer_ratio()
        lo, hi = 0, len(cum)
        key = p * den // q
        while lo < hi:  # bisect_right(cum, key)
            mid = (lo + hi) // 2
            if key < cum[mid]:
                hi = mid
            else:
                lo = mid + 1
        return min(lo, last)

    return draw


def frozen_sample_training_set(p, n, m, seed):
    """sample_training_set as it was, one sampler build per drawn domain."""
    indices, seeds = draw_domain_indices(p.weights, n, seed)
    samples = []
    for i, j in enumerate(indices):
        atoms = p.family.domains[j].atoms
        pick = frozen_inverse_cdf([a.mass for a in atoms])
        rng = rng_for(seed, "points", i)
        drawn = [atoms[pick(rng.random())] for _ in range(m)]
        samples.append(LabeledSample(tuple((a.x, a.y) for a in drawn)))
    return TrainingSet(indices, tuple(samples), seed, seeds)


def frozen_minmax_erm(table):
    """minmax_erm as it was: the first row with the smallest worst entry."""
    best, best_idx = None, -1
    for i, row in enumerate(table.entries):
        if best is None or max(row) < best:
            best, best_idx = max(row), i
    return best_idx


def random_weights(rng, size, max_den):
    """`size` non-negative masses summing to 1, some of them zero, with
    denominators up to max_den before normalization."""
    raw = [
        F(0) if rng.random() < 0.3 else F(rng.randint(1, max_den), rng.randint(1, max_den))
        for _ in range(size)
    ]
    raw[rng.randrange(size)] += F(1, rng.randint(1, max_den))
    total = sum(raw)
    return [w / total for w in raw]


def probes(weights):
    """0, the smallest subnormal, the largest double below 1, and the doubles
    next to every cumulative mass: the threshold itself is one of the nearest
    double f or the double above it, so f's neighbours cover both of its."""
    out = {0.0, 5e-324, math.nextafter(1.0, 0.0)}
    cum = F(0)
    for w in weights:
        cum += w
        f = float(cum)
        below, above = math.nextafter(f, -math.inf), math.nextafter(f, math.inf)
        out.update((below, f, above, math.nextafter(above, math.inf)))
    return sorted(u for u in out if 0.0 <= u < 1.0)


class TestThresholdSampler:
    def test_matches_integer_sampler(self):
        rng = random.Random(40401)
        for case in range(300):
            max_den = (MERSENNE_61, 10**6, 97)[case % 3]
            weights = random_weights(rng, rng.randint(1, 12), max_den)
            new, old = inverse_cdf(weights), frozen_inverse_cdf(weights)
            us = probes(weights) + [rng.random() for _ in range(50)]
            for u in us:
                picked = new(u)
                assert picked == old(u), (weights, u)
                assert weights[picked] > 0

    def test_prime_denominators_with_zero_buckets(self):
        weights = [F(0), F(1, MERSENNE_61), F(0), F(MERSENNE_61 - 2, MERSENNE_61), F(0),
                   F(1, MERSENNE_61), F(0)]
        new, old = inverse_cdf(weights), frozen_inverse_cdf(weights)
        for u in probes(weights):
            assert new(u) == old(u) in (1, 3, 5)

    def test_mass_below_the_smallest_double(self):
        tiny = F(1, 2**1080)
        draw = inverse_cdf([tiny, 1 - tiny])
        assert draw(0.0) == 0
        assert draw(5e-324) == 1 == frozen_inverse_cdf([tiny, 1 - tiny])(5e-324)

    @pytest.mark.parametrize("weights", [
        [],
        [F(1, 4), F(1, 4)],
        [F(1, 2), F(1, 2), F(1, 4)],
        [F(-1, 2), F(3, 2)],
        [F(3, 2), F(-1, 2)],
        [F(0)],
    ])
    def test_refuses_weights_that_are_not_a_distribution(self, weights):
        with pytest.raises(ValueError):
            inverse_cdf(weights)

    def test_domain_numerators_give_the_fraction_thresholds(self):
        # the samplers read a domain's numerators; the thresholds are those of
        # its Fraction masses, on domains of 1 to 11 atoms and of 300
        rng = random.Random(40406)
        for size in [*range(1, 12)] * 20 + [300] * 5:
            space = rng.randint((size + 1) // 2, size + 3)
            cells = rng.sample([(x, y) for x in range(space) for y in (0, 1)], size)
            top = rng.choice([9, 10**6, MERSENNE_61])
            weights = [rng.randint(1, top) for _ in cells]
            d = LabeledDistribution(space, [(x, y, F(w, sum(weights))) for (x, y), w in zip(cells, weights)])
            pick = numerator_cdf([w for _, _, w in d.weighted], d.denominator)
            assert pick.args == inverse_cdf([a.mass for a in d.atoms]).args
            assert len(pick.args[0]) == size and pick.args[0][-1] == 1.0

    def test_exposure_refuses_weights_of_another_length(self):
        pcc = PartialConceptClass(3, ((0, 1, None), (1, 0, 0)))
        for weights in ((F(1, 2), F(1, 2)), (F(1, 4),) * 4):
            with pytest.raises(ValueError, match="universe"):
                exposure_trial(pcc, weights, 3, random.Random(1))


def random_instance(rng):
    space = rng.randint(1, 7)
    hc = random_class(rng, space, rng.randint(1, 40))
    domains = tuple(random_domain(rng, space, max_support=space) for _ in range(rng.randint(1, 6)))
    weights = random_weights(rng, len(domains), 20)
    return hc, MetaDistribution(DomainFamily(space, domains), tuple(weights))


class TestSampledLearner:
    def test_training_set_matches_frozen_sampler(self):
        rng = random.Random(40402)
        for _ in range(60):
            _, meta = random_instance(rng)
            n, m, seed = rng.randint(1, 12), rng.randint(1, 40), rng.randint(0, 10**9)
            assert sample_training_set(meta, n, m, seed) == frozen_sample_training_set(
                meta, n, m, seed
            )

    def test_estimate_matches_per_point_errors(self):
        rng = random.Random(40403)
        for _ in range(60):
            hc, meta = random_instance(rng)
            t = sample_training_set(meta, rng.randint(1, 8), rng.randint(1, 30), rng.randint(0, 999))
            per_point = tuple(
                tuple(empirical_error(h, s) for s in t.samples) for h in hc.members
            )
            assert estimate_errors(hc, t) == ErrorTable(per_point, "empirical")

    def test_counted_learner_matches_sampled_tables(self):
        rng = random.Random(40404)
        for _ in range(80):
            hc, meta = random_instance(rng)
            domains = meta.family.domains
            # the pool lists the meta's domains in another order, plus one more
            order = list(range(len(domains)))
            rng.shuffle(order)
            pool = [domains[j] for j in order] + [random_domain(rng, hc.space)]
            columns = [order.index(j) for j in range(len(domains))]
            matrix = ErrorMatrix(hc, pool)
            picks = [inverse_cdf([a.mass for a in d.atoms]) for d in pool]
            n, m, seed = rng.randint(1, 16), rng.randint(1, 60), rng.randint(0, 10**9)
            tau = F(rng.randint(0, 10), 10)

            hat, max_train, risk, indices = _learn(matrix, picks, meta.weights, columns, n, seed, tau, m)

            t = sample_training_set(meta, n, m, seed)
            table = estimate_errors(hc, t)
            expected = frozen_minmax_erm(table)
            assert minmax_erm(table) == expected
            h = hc.members[expected]
            assert hat == expected
            assert indices == t.domain_indices
            assert max_train == max(domain_error(h, domains[j]) for j in t.domain_indices)
            assert risk == domain_risk(meta, tau, h)

    def test_mistakes_count_each_point(self):
        hc = random_class(random.Random(40405), 3, 8)
        d = LabeledDistribution(3, (Atom(0, 1, F(1, 2)), Atom(2, 0, F(1, 3)), Atom(2, 1, F(1, 6))))
        matrix = ErrorMatrix(hc, [d])
        hits = [0, 0, 2, 1, 1, 0, 2]
        sample = LabeledSample(tuple(d.atoms[k][:2] for k in hits))
        expected = tuple(empirical_error(h, sample) * len(hits) for h in hc.members)
        assert matrix.mistakes(0, hits) == expected
        assert matrix.mistakes(0, iter(hits)) == expected
