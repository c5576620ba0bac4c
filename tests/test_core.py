import random
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    DomainFamily,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    LabeledSample,
    MetaDistribution,
    SpaceMismatchError,
    domain_error,
    domain_risk,
    empirical_error,
    flip_labels,
    mix,
    odd_even_domain,
    optimal_tau,
)
from _builders import random_class, random_domain, random_family, random_meta

F = Fraction


def complement(h: Hypothesis) -> Hypothesis:
    return Hypothesis(tuple(1 - v for v in h.labels))


def frozen_mix(d0, d1, lam):
    """`mix` as it was before it summed integer numerators."""
    acc = {}
    for scale, d in ((1 - lam, d0), (lam, d1)):
        if scale == 0:
            continue
        for a in d.atoms:
            acc[a.x, a.y] = acc.get((a.x, a.y), F(0)) + scale * a.mass
    return LabeledDistribution(d0.space, tuple(Atom(x, y, m) for (x, y), m in acc.items() if m > 0))


class TestStructures:
    def test_hypothesis_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Hypothesis((0, 2))
        with pytest.raises(ValueError):
            Hypothesis(())

    def test_hypothesis_is_callable(self):
        h = Hypothesis((0, 1, 1))
        assert h.space == 3
        assert [h(x) for x in range(3)] == [0, 1, 1]

    def test_class_rejects_duplicates_and_mismatches(self):
        with pytest.raises(ValueError):
            HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((0, 1))))
        with pytest.raises(SpaceMismatchError):
            HypothesisClass(2, (Hypothesis((0, 1, 0)),))
        with pytest.raises(ValueError):
            HypothesisClass(2, ())

    def test_class_masks_hold_one_byte_per_label(self):
        rng = random.Random(52711)
        for space in (1, 3, 9, 40):
            hc = random_class(rng, space, 30)
            assert hc.masks == tuple(
                int.from_bytes(bytes(h.labels), "little") for h in hc.members
            )

    def test_class_equality_hash_order_and_repr(self):
        hc = HypothesisClass(2, [Hypothesis((0, 1)), Hypothesis((1, 1))])
        same = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 1))))
        assert hc == same and hash(hc) == hash(same)
        assert hc != HypothesisClass(2, (Hypothesis((1, 1)), Hypothesis((0, 1))))
        assert repr(hc) == (
            "HypothesisClass(space=2, members=(Hypothesis(labels=(0, 1)), "
            "Hypothesis(labels=(1, 1))))"
        )

    def test_hypothesis_holds_int_labels(self):
        h = Hypothesis((True, 0))
        assert h.labels == (1, 0) and list(map(type, h.labels)) == [int, int]
        assert repr(h) == "Hypothesis(labels=(1, 0))"

    @pytest.mark.parametrize("build", [
        lambda: LabeledDistribution(True, (Atom(0, 0, F(1)),)),
        lambda: HypothesisClass(True, (Hypothesis((0,)),)),
        lambda: HypothesisClass.from_masks(True, [1]),
        lambda: DomainFamily(True, ()),
    ], ids=["distribution", "class", "class-from-masks", "family"])
    def test_bool_space_sizes_are_refused(self, build):
        with pytest.raises(ValueError,
                           match="^instance space size must be a positive integer, got True$"):
            build()

    def test_distribution_canonical_order(self):
        a = LabeledDistribution(3, (Atom(2, 1, F(1, 2)), Atom(0, 0, F(1, 2))))
        b = LabeledDistribution(3, (Atom(0, 0, F(1, 2)), Atom(2, 1, F(1, 2))))
        assert a == b
        assert a.atoms[0].x == 0
        assert a.support() == (0, 2)

    def test_distribution_rejections(self):
        with pytest.raises(ValueError):
            LabeledDistribution(2, (Atom(0, 0, F(1, 2)),))  # mass sums to 1/2
        with pytest.raises(ValueError):
            LabeledDistribution(2, (Atom(0, 0, F(1, 2)), Atom(0, 0, F(1, 2))))
        with pytest.raises(ValueError):
            LabeledDistribution(1, (Atom(1, 0, F(1)),))  # point outside space
        with pytest.raises(ValueError):
            LabeledDistribution(2, (Atom(0, 0, F(3, 2)), Atom(1, 0, F(-1, 2))))
        for atoms in (((0.5, 0, F(1, 2)), (1, True, F(1, 2))),
                      ((0.0, 0, F(1, 2)), (1, 0, F(1, 2))),
                      ((0, 1, F(1, 2)), (1, True, F(1, 2))),
                      ((False, 0, F(1)),), ((0, 1.0, F(1)),)):
            with pytest.raises(ValueError, match="must be integers"):
                LabeledDistribution(2, atoms)

    def test_meta_validation(self):
        fam = DomainFamily(2, (LabeledDistribution(2, (Atom(0, 0, F(1)),)),))
        with pytest.raises(ValueError):
            MetaDistribution(fam, (F(1, 2),))
        with pytest.raises(ValueError):
            MetaDistribution(fam, (F(1), F(0)))
        p = MetaDistribution(fam, (F(1),))
        assert p.support() == (0,)

    def test_meta_support_skips_zero_weights(self):
        d = LabeledDistribution(2, (Atom(0, 0, F(1)),))
        fam = DomainFamily(2, (d, LabeledDistribution(2, (Atom(1, 1, F(1)),))))
        p = MetaDistribution(fam, (F(1), F(0)))
        assert p.support() == (0,)


class TestDomainError:
    def test_identity_case(self):
        # h == 0 everywhere, all atoms labeled 0
        d = LabeledDistribution(2, (Atom(0, 0, F(1, 3)), Atom(1, 0, F(2, 3))))
        assert domain_error(Hypothesis((0, 0)), d) == 0

    def test_odd_even_m3_values(self):
        d, slice_ = odd_even_domain(3)
        errs = [domain_error(h, d) for h in slice_.hypothesis_class.members]
        assert errs == [F(13, 60), F(23, 60), F(13, 60)]

    def test_matches_second_enumeration(self):
        rng = random.Random(90411)
        for _ in range(60):
            space = rng.randint(2, 6)
            d = random_domain(rng, space)
            h = Hypothesis(tuple(rng.randint(0, 1) for _ in range(space)))
            by_hand = sum(
                (a.mass for a in d.atoms if h(a.x) != a.y), start=F(0)
            )
            value = domain_error(h, d)
            assert value == by_hand
            assert 0 <= value <= 1

    def test_complement_errors_sum_to_one(self):
        rng = random.Random(90412)
        for _ in range(40):
            space = rng.randint(2, 5)
            d = random_domain(rng, space)
            h = Hypothesis(tuple(rng.randint(0, 1) for _ in range(space)))
            assert domain_error(h, d) + domain_error(complement(h), d) == 1

    def test_space_mismatch(self):
        d = LabeledDistribution(2, (Atom(0, 0, F(1)),))
        with pytest.raises(SpaceMismatchError):
            domain_error(Hypothesis((0, 0, 0)), d)


class TestEmpiricalError:
    def test_all_correct(self):
        s = LabeledSample(tuple((x, 1) for x in range(7)))
        assert empirical_error(Hypothesis((1,) * 7), s) == 0

    def test_two_of_five(self):
        s = LabeledSample(((0, 1), (1, 1), (2, 1), (3, 0), (4, 0)))
        assert empirical_error(Hypothesis((1, 1, 1, 1, 1)), s) == F(2, 5)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            empirical_error(Hypothesis((0,)), LabeledSample(()))

    @pytest.mark.parametrize("points", [
        ((1.5, True), ("2", 0)),
        ((1.5, 0),),
        (("2", 0),),
        ((0, True),),
        ((0, 1.0),),
    ])
    def test_non_integer_points_refused(self, points):
        # no point is coerced: (1.5, True) would become (1, 1)
        with pytest.raises(ValueError, match="integer pairs"):
            LabeledSample(points)


class TestFlipAndMix:
    def test_flip_involution(self):
        rng = random.Random(90413)
        for _ in range(20):
            d = random_domain(rng, 5)
            assert flip_labels(flip_labels(d)) == d

    def test_flip_complements_error(self):
        d, slice_ = odd_even_domain(3)
        h2 = slice_.hypothesis_class.members[1]
        assert domain_error(h2, d) == F(23, 60)
        assert domain_error(h2, flip_labels(d)) == F(37, 60)

    def test_mix_endpoints(self):
        rng = random.Random(90414)
        d0 = random_domain(rng, 4)
        d1 = random_domain(rng, 4)
        assert mix(d0, d1, F(0)) == d0
        assert mix(d0, d1, F(1)) == d1

    def test_mix_merges_atoms(self):
        d0 = LabeledDistribution(2, (Atom(0, 0, F(1)),))
        d1 = LabeledDistribution(2, (Atom(0, 0, F(1, 2)), Atom(1, 1, F(1, 2))))
        m = mix(d0, d1, F(1, 3))
        assert m == LabeledDistribution(2, (Atom(0, 0, F(5, 6)), Atom(1, 1, F(1, 6))))

    def test_mix_error_is_affine(self):
        rng = random.Random(90415)
        for _ in range(30):
            space = rng.randint(2, 5)
            d0 = random_domain(rng, space)
            d1 = random_domain(rng, space)
            lam = F(rng.randint(0, 8), 8)
            h = Hypothesis(tuple(rng.randint(0, 1) for _ in range(space)))
            assert domain_error(h, mix(d0, d1, lam)) == (1 - lam) * domain_error(
                h, d0
            ) + lam * domain_error(h, d1)
            for weight in (F(0), F(1), F(1, 3), lam, F(rng.randint(0, 97), 97)):
                mixed = mix(d0, d1, weight)
                want = frozen_mix(d0, d1, weight)
                assert mixed == want
                assert (mixed.denominator, mixed.weighted) == (want.denominator, want.weighted)

    def test_mix_rejects_bad_weight(self):
        d = LabeledDistribution(1, (Atom(0, 0, F(1)),))
        with pytest.raises(ValueError):
            mix(d, d, F(3, 2))

    def test_clean_flip_mixture_identity(self):
        # clean d0 and lam*flip: mixture error is lam*(1 - original error)
        rng = random.Random(90416)
        lam = F(2, 7)
        for _ in range(20):
            space = rng.randint(2, 5)
            d = random_domain(rng, space)
            h = Hypothesis(tuple(rng.randint(0, 1) for _ in range(space)))
            clean_x = rng.randrange(space)
            d0 = LabeledDistribution(space, (Atom(clean_x, h(clean_x), F(1)),))
            mixed = mix(d0, flip_labels(d), lam)
            assert domain_error(h, mixed) == lam * (1 - domain_error(h, d))


class TestDomainRisk:
    def test_two_domain_example(self):
        # errors 1/5 and 2/5 under uniform weights, threshold 3/10 -> mass 1/2
        d1 = LabeledDistribution(2, (Atom(0, 0, F(4, 5)), Atom(1, 1, F(1, 5))))
        d2 = LabeledDistribution(2, (Atom(0, 0, F(3, 5)), Atom(1, 1, F(2, 5))))
        h = Hypothesis((0, 0))
        assert domain_error(h, d1) == F(1, 5)
        assert domain_error(h, d2) == F(2, 5)
        p = MetaDistribution(DomainFamily(2, (d1, d2)), (F(1, 2), F(1, 2)))
        assert domain_risk(p, F(3, 10), h) == F(1, 2)

    def test_tau_one_is_riskless(self):
        rng = random.Random(90417)
        p = random_meta(rng, random_family(rng, 4, 3))
        h = Hypothesis((1, 0, 1, 0))
        assert domain_risk(p, F(1), h) == 0

    def test_threshold_is_strict(self):
        d = LabeledDistribution(2, (Atom(0, 0, F(7, 10)), Atom(1, 1, F(3, 10))))
        h = Hypothesis((0, 0))  # error exactly 3/10
        p = MetaDistribution(DomainFamily(2, (d,)), (F(1),))
        assert domain_risk(p, F(3, 10), h) == 0
        assert domain_risk(p, F(3, 10) - F(1, 1000), h) == 1

    def test_monotone_in_tau(self):
        rng = random.Random(90418)
        for _ in range(20):
            p = random_meta(rng, random_family(rng, 4, 3))
            h = Hypothesis(tuple(rng.randint(0, 1) for _ in range(4)))
            taus = sorted(F(rng.randint(0, 10), 10) for _ in range(4))
            risks = [domain_risk(p, t, h) for t in taus]
            assert all(a >= b for a, b in zip(risks, risks[1:]))

    def test_zero_weight_domains_ignored(self):
        bad = LabeledDistribution(1, (Atom(0, 1, F(1)),))
        good = LabeledDistribution(1, (Atom(0, 0, F(1)),))
        p = MetaDistribution(DomainFamily(1, (bad, good)), (F(0), F(1)))
        assert domain_risk(p, F(1, 2), Hypothesis((0,))) == 0


class TestOptimalTau:
    def test_single_hypothesis(self):
        rng = random.Random(90419)
        p = random_meta(rng, random_family(rng, 4, 3))
        h = Hypothesis((0, 1, 0, 1))
        hc = HypothesisClass(4, (h,))
        value, idx = optimal_tau(p, hc)
        assert idx == 0
        assert value == max(domain_error(h, p.family.domains[j]) for j in p.support())

    def test_matches_brute_force_with_tie_break(self):
        rng = random.Random(90420)
        for _ in range(40):
            space = rng.randint(2, 5)
            p = random_meta(rng, random_family(rng, space, rng.randint(1, 4)))
            hc = random_class(rng, space, rng.randint(1, 8))
            value, idx = optimal_tau(p, hc)
            worsts = [
                max(domain_error(h, p.family.domains[j]) for j in p.support())
                for h in hc.members
            ]
            assert value == min(worsts)
            assert idx == worsts.index(min(worsts))

    def test_risk_vanishes_at_tau_star_only(self):
        rng = random.Random(90421)
        for _ in range(20):
            space = rng.randint(2, 5)
            p = random_meta(rng, random_family(rng, space, rng.randint(1, 4)))
            hc = random_class(rng, space, rng.randint(1, 8))
            value, idx = optimal_tau(p, hc)
            assert domain_risk(p, value, hc.members[idx]) == 0
            below = value - F(1, 10**9)
            if below >= 0:
                assert all(
                    domain_risk(p, below, h) > 0 for h in hc.members
                )

    def test_weightless_meta_rejected(self):
        # weights must sum to 1, so a support-free meta cannot be built
        with pytest.raises(ValueError):
            MetaDistribution(DomainFamily(1, ()), ())


POINT2 = LabeledDistribution(2, (Atom(0, 0, F(1)),))
POINT3 = LabeledDistribution(3, (Atom(0, 0, F(1)),))
META2 = MetaDistribution(DomainFamily(2, (POINT2,)), (F(1),))


class TestRefusalMessages:
    @pytest.mark.parametrize("build, error, message", [
        (lambda: DomainFamily(2, (POINT3,)), SpaceMismatchError,
         "^domain 0 has space 3, family space is 2$"),
        (lambda: DomainFamily(0, ()), ValueError,
         "^instance space size must be a positive integer, got 0$"),
        (lambda: LabeledSample(((0, 1), (-1, 0))), ValueError,
         "^sample instances must be non-negative$"),
        (lambda: LabeledSample(((0, 2),)), ValueError, "^sample labels must be 0 or 1$"),
        (lambda: mix(POINT2, POINT3, F(1, 2)), SpaceMismatchError,
         "^cannot mix spaces 2 and 3$"),
        (lambda: domain_risk(META2, F(1, 2), Hypothesis((0, 0, 0))), SpaceMismatchError,
         "^hypothesis space 3 != family space 2$"),
        (lambda: optimal_tau(META2, HypothesisClass(3, (Hypothesis((0, 0, 0)),))),
         SpaceMismatchError, "^class space 3 != family space 2$"),
    ], ids=["family-space", "space-zero", "sample-negative-instance", "sample-label-2",
            "mix-spaces", "risk-space", "optimal-tau-space"])
    def test_message(self, build, error, message):
        with pytest.raises(error, match=message):
            build()
