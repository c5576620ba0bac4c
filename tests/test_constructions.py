import itertools
import random
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    BASE_RATE,
    ConstructionError,
    DimensionQuery,
    DomainFamily,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    ShatteringCertificate,
    SpaceMismatchError,
    ThresholdSlice,
    adversarial_meta,
    domain_error,
    gdim,
    large_k_family,
    large_k_lower_bound,
    largest_k_for,
    lower_bound_family,
    odd_even_domain,
    optimal_tau,
    product_family,
    slot_for_subset_mask,
    subset_mask_for_slot,
    unanimous_point_mass,
    verify_certificate,
)

F = Fraction


class TestThresholdSlice:
    def test_shapes(self):
        slice_ = ThresholdSlice.build(4)
        assert slice_.cutoff == 4
        assert slice_.space == 6
        assert len(slice_.hypothesis_class) == 4
        for i, h in enumerate(slice_.hypothesis_class.members, start=1):
            assert h.labels == tuple(1 if x >= i else 0 for x in range(6))

    def test_anchor_points_are_unanimous(self):
        slice_ = ThresholdSlice.build(5)
        for h in slice_.hypothesis_class.members:
            assert h(0) == 0
            assert h(slice_.cutoff + 1) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ThresholdSlice.build(0)


class TestOddEvenDomain:
    def test_exact_alternating_errors(self):
        for m in range(1, 22, 2):
            d, slice_ = odd_even_domain(m)
            for i, h in enumerate(slice_.hypothesis_class.members, start=1):
                offset = F(1, 4 * m)
                expected = BASE_RATE - offset if i % 2 else BASE_RATE + offset
                assert domain_error(h, d) == expected

    def test_smallest_instance(self):
        d, slice_ = odd_even_domain(1)
        assert len(slice_.hypothesis_class) == 1
        assert domain_error(slice_.hypothesis_class.members[0], d) == F(1, 20)

    def test_atom_layout(self):
        d, _ = odd_even_domain(3)
        assert d.atoms == (
            Atom(0, 0, F(9, 20)),
            Atom(0, 1, F(1, 20)),
            Atom(1, 1, F(1, 6)),
            Atom(2, 0, F(1, 6)),
            Atom(3, 1, F(1, 6)),
        )

    def test_rejects_even_m(self):
        with pytest.raises(ValueError):
            odd_even_domain(2)
        with pytest.raises(ValueError):
            odd_even_domain(0)


class TestSlotEncoding:
    def test_bijection(self):
        for k in (2, 3, 4):
            size = 1 << k
            masks = [subset_mask_for_slot(slot, k) for slot in range(1, size + 1)]
            assert sorted(masks) == list(range(size))
            assert masks[0] == size - 1  # first slot carries the full set
            for slot in range(1, size + 1):
                assert slot_for_subset_mask(subset_mask_for_slot(slot, k), k) == slot


class TestLargestK:
    def test_known_values(self):
        assert largest_k_for(F(1, 50)) == 3
        assert largest_k_for(F(1, 100)) == 4
        assert largest_k_for(F(1, 200)) == 5
        assert largest_k_for(F(1, 2000)) == 8

    def test_boundaries(self):
        assert largest_k_for(F(1, 13)) == 1
        with pytest.raises(ValueError):
            largest_k_for(F(1, 12))
        with pytest.raises(ValueError):
            largest_k_for(F(0))


class TestLargeKFamily:
    def test_shapes(self):
        lkf = large_k_family(F(1, 50))
        assert lkf.k == 3
        assert lkf.cutoff == 8
        assert len(lkf.slice.hypothesis_class) == 8
        assert len(lkf.family) == 3
        assert lkf.slice.space == 10
        bigger = large_k_family(F(1, 100))
        assert bigger.k == 4
        assert bigger.cutoff == 16
        assert len(bigger.slice.hypothesis_class) == 16

    def test_membership_controls_error_side(self):
        lkf = large_k_family(F(1, 100))
        hc = lkf.slice.hypothesis_class
        for j, dom in enumerate(lkf.family.domains):
            m_prime = len(dom.support()) - 1
            offset = F(1, 4 * m_prime)
            assert offset > lkf.alpha
            for slot, h in enumerate(hc.members, start=1):
                e = domain_error(h, dom)
                if lkf.subsets[slot - 1] >> j & 1:
                    assert e == BASE_RATE - offset
                else:
                    assert e == BASE_RATE + offset

    def test_certificate_and_dimension(self):
        lkf = large_k_family(F(1, 50))
        hc = lkf.slice.hypothesis_class
        assert verify_certificate(lkf.certificate(), hc, lkf.family, lkf.query())
        res = gdim(hc, lkf.family, lkf.query())
        assert res.dimension == lkf.k
        assert res.exact


class TestProductFamily:
    def test_single_coordinate_is_identity(self):
        base = large_k_family(F(1, 50))
        hc, fam = product_family(base, 1)
        assert hc == base.slice.hypothesis_class
        assert fam == base.family

    def test_two_coordinates(self):
        base = large_k_family(F(1, 50))
        hc, fam = product_family(base, 2)
        assert len(hc) == 64
        assert len(fam) == 6
        assert hc.space == 20
        # second copy lives on shifted instances
        for dom in fam.domains[3:]:
            assert all(a.x >= 10 for a in dom.atoms)

    def test_cap_enforced(self):
        base = large_k_family(F(1, 50))
        with pytest.raises(ConstructionError):
            product_family(base, 5)  # 8**5 member hypotheses
        with pytest.raises(ValueError):
            product_family(base, 0)


class TestUnanimousPointMass:
    def test_slice_anchor(self):
        slice_ = ThresholdSlice.build(6)
        d = unanimous_point_mass(slice_.hypothesis_class)
        assert d.atoms == (Atom(0, 0, F(1)),)
        assert all(domain_error(h, d) == 0 for h in slice_.hypothesis_class.members)

    def test_total_disagreement_rejected(self):
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 0))))
        with pytest.raises(ConstructionError):
            unanimous_point_mass(hc)


def small_lower_bound(tau=BASE_RATE, alpha=F(1, 10)):
    """Single-domain base built from the m=3 odd/even instance."""
    d, slice_ = odd_even_domain(3)
    hc = slice_.hypothesis_class
    fam = DomainFamily(slice_.space, (d,))
    clean = unanimous_point_mass(hc)
    cert = ShatteringCertificate((0,), (1, 0))  # h2 errs high, h1 errs low
    return hc, fam, clean, cert, lower_bound_family(hc, fam, clean, cert, tau, alpha)


class TestLowerBoundFamily:
    def test_mix_weight_and_floor(self):
        _, _, _, _, lbf = small_lower_bound()
        assert lbf.mix_weight == F(2, 7)
        assert lbf.threshold_floor() == F(2, 9)
        assert lbf.d == 1

    def test_flipped_error_identity(self):
        hc, fam, clean, cert, lbf = small_lower_bound()
        lam = lbf.mix_weight
        for h in hc.members:
            original = domain_error(h, fam.domains[0])
            assert domain_error(h, lbf.flipped[0]) == lam * (1 - original)
        # spot value: h2 errs 23/60, so the flipped mixture errs 37/210
        assert domain_error(hc.members[1], lbf.flipped[0]) == F(37, 210)

    def test_extended_ordering(self):
        _, fam, clean, _, lbf = small_lower_bound()
        ext = lbf.extended_family.domains
        assert ext == fam.domains + (clean,) + lbf.flipped
        assert ext[lbf.clean_index] == clean
        assert ext[lbf.flipped_index(0)] == lbf.flipped[0]

    def test_validity_recorded(self):
        # at alpha = 1/10 the low side of the m=3 domain misses tau - alpha
        _, _, _, _, lbf = small_lower_bound(alpha=F(1, 10))
        assert not lbf.certificate_valid
        lkf = large_k_family(F(1, 50))
        hc = lkf.slice.hypothesis_class
        clean = unanimous_point_mass(hc)
        good = lower_bound_family(
            hc, lkf.family, clean, lkf.certificate(), BASE_RATE, lkf.alpha
        )
        assert good.certificate_valid
        assert good.d == lkf.k

    def test_rejections(self):
        d, slice_ = odd_even_domain(3)
        hc = slice_.hypothesis_class
        fam = DomainFamily(slice_.space, (d,))
        clean = unanimous_point_mass(hc)
        cert = ShatteringCertificate((0,), (1, 0))
        with pytest.raises(ValueError, match="hypothesis 0"):
            lower_bound_family(hc, fam, d, cert, BASE_RATE, F(1, 10))
        with pytest.raises(ValueError):
            lower_bound_family(hc, fam, clean, cert, F(3, 10), F(3, 10))
        with pytest.raises(ValueError):
            lower_bound_family(hc, fam, clean, cert, F(3, 5), F(1, 10))
        bad_cert = ShatteringCertificate((1,), (1, 0))
        with pytest.raises(ValueError, match="domain 1"):
            lower_bound_family(hc, fam, clean, bad_cert, BASE_RATE, F(1, 10))
        other = LabeledDistribution(hc.space + 1, ((0, 0, F(1)),))
        with pytest.raises(
            SpaceMismatchError, match="^class, family, and clean domain must share a space$"
        ):
            lower_bound_family(hc, fam, other, cert, BASE_RATE, F(1, 10))

    def test_first_erring_hypothesis_named(self):
        # the three first hypotheses label point 0 with 0; hypothesis 3 does not
        hc = HypothesisClass(3, tuple(map(Hypothesis, (
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1), (1, 0, 0),
        ))))
        fam = DomainFamily(3, (LabeledDistribution(3, ((1, 1, F(1)),)),))
        d0 = LabeledDistribution(3, ((0, 0, F(1)),))
        cert = ShatteringCertificate((0,), (1, 0))
        with pytest.raises(ValueError, match="^hypothesis 3 has nonzero error on the clean domain$"):
            lower_bound_family(hc, fam, d0, cert, BASE_RATE, F(1, 10))


class TestAdversarialMeta:
    def build(self, gamma=F(1, 20)):
        lkf = large_k_family(F(1, 100))
        hc = lkf.slice.hypothesis_class
        clean = unanimous_point_mass(hc)
        lbf = lower_bound_family(
            hc, lkf.family, clean, lkf.certificate(), BASE_RATE, lkf.alpha
        )
        return hc, lbf

    def test_weights(self):
        _, lbf = self.build()
        p = adversarial_meta(lbf, (0, 1, 0, 1), F(1, 20))
        assert p.weights == (F(4, 5), F(1, 20), F(1, 20), F(1, 20), F(1, 20))
        assert p.family.domains[0] == lbf.clean_domain

    def test_bit_selection(self):
        _, lbf = self.build()
        zeros = adversarial_meta(lbf, (0,) * 4, F(1, 20))
        for t in range(4):
            assert (
                zeros.family.domains[1 + t]
                == lbf.base_family.domains[lbf.shattered_indices[t]]
            )
        ones = adversarial_meta(lbf, (1,) * 4, F(1, 20))
        for t in range(4):
            assert ones.family.domains[1 + t] == lbf.flipped[t]

    def test_rejections(self):
        _, lbf = self.build()
        for b, message in (
            ((0, 1, 0), "^bit vector has length 3, family has d=4$"),
            ((0, 1, 0, 2), "^bit vector entries must be 0 or 1$"),
        ):
            with pytest.raises(ValueError, match=message):
                lbf.meta_indices(b)
            with pytest.raises(ValueError, match=message):
                adversarial_meta(lbf, b, F(1, 20))
            # the bits are checked before the weights
            with pytest.raises(ValueError, match=message):
                adversarial_meta(lbf, b, F(1, 8))
        with pytest.raises(ValueError):
            adversarial_meta(lbf, (0,) * 4, F(1, 8))
        with pytest.raises(ValueError):
            adversarial_meta(lbf, (0,) * 4, F(0))

    def test_every_bit_vector_is_realizable(self):
        # whatever b is hidden, some hypothesis stays strictly below tau-alpha
        # on the whole support, so the meta looks easy from inside
        hc, lbf = self.build()
        rng = random.Random(31415)
        for _ in range(10):
            b = tuple(rng.randint(0, 1) for _ in range(4))
            p = adversarial_meta(lbf, b, F(1, 20))
            value, _ = optimal_tau(p, hc)
            assert value < BASE_RATE - lbf.alpha


def reference_domains(lbf, b):
    """The domains a meta hiding b weighs, picked straight from the family's
    parts: the clean domain, then D_t or flipped[t] as b_t says."""
    return (lbf.clean_domain,) + tuple(
        lbf.flipped[t] if bit else lbf.base_family.domains[lbf.shattered_indices[t]]
        for t, bit in enumerate(b)
    )


def recipe(alpha, tau, lb_alpha):
    base = large_k_family(alpha)
    hc = base.slice.hypothesis_class
    return lower_bound_family(
        hc, base.family, unanimous_point_mass(hc), base.certificate(), tau, lb_alpha
    )


class TestLargeKLowerBound:
    @pytest.mark.parametrize("alpha", [F(1, 50), F(1, 100), F(1, 2000)])
    def test_matches_the_recipe(self, alpha):
        tau = F(3, 10)
        lbf = large_k_lower_bound(alpha, tau)
        assert lbf == recipe(alpha, tau, alpha)
        assert large_k_lower_bound(alpha, tau, F(1, 40)) == recipe(alpha, tau, F(1, 40))
        # the certificate names every domain, so the extension holds all of them
        assert lbf.shattered_indices == tuple(range(len(lbf.base_family)))

    def check(self, lbf, b):
        indices = lbf.meta_indices(b)
        want = reference_domains(lbf, b)
        assert tuple(lbf.extended_family.domains[i] for i in indices) == want
        assert indices[0] == lbf.clean_index
        assert adversarial_meta(lbf, b, F(1, 20)).family.domains == want

    def test_meta_indices_every_bit_vector(self):
        lbf = large_k_lower_bound(F(1, 100), BASE_RATE)
        assert lbf.d == 4
        for b in itertools.product((0, 1), repeat=lbf.d):
            self.check(lbf, b)

    def test_meta_indices_seeded_bit_vectors(self):
        lbf = large_k_lower_bound(F(1, 2000), BASE_RATE)
        assert lbf.d == 8
        rng = random.Random(2718)
        vectors = [(0,) * 8, (1,) * 8]
        vectors += [tuple(rng.randrange(2) for _ in range(8)) for _ in range(16)]
        for b in vectors:
            self.check(lbf, b)
