import itertools
import random
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    CertificateError,
    DimensionQuery,
    DomainFamily,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    PartialConceptClass,
    SpaceMismatchError,
    ShatteringCertificate,
    ThresholdSlice,
    domain_error,
    gdim,
    induce_partial_class,
    large_k_family,
    partial_vc_dim,
    restriction_count,
    verify_certificate,
)
from _builders import random_class, random_family, random_partial_class

F = Fraction


def naive_gdim(hc, family, q):
    """Exhaustive reference: try every subset, largest first."""
    errs = [
        [domain_error(h, d) for d in family.domains] for h in hc.members
    ]
    lo = q.tau - q.alpha

    def shatters(points):
        for mask in range(1 << len(points)):
            ok = False
            for row in errs:
                good = True
                for t, j in enumerate(points):
                    if mask >> t & 1:
                        if not row[j] < lo:
                            good = False
                            break
                    elif not row[j] > q.tau:
                        good = False
                        break
                if good:
                    ok = True
                    break
            if not ok:
                return False
        return True

    for size in range(len(family), -1, -1):
        for points in itertools.combinations(range(len(family)), size):
            if shatters(points):
                return size
    raise AssertionError("size 0 always shatters")


class TestPartialConceptClass:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PartialConceptClass(2, ((0, 2),))
        with pytest.raises(ValueError):
            PartialConceptClass(2, ((0,),))
        with pytest.raises(ValueError):
            PartialConceptClass(2, ())

    def test_from_hypothesis_class_is_total(self):
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 1))))
        pcc = PartialConceptClass.from_hypothesis_class(hc)
        assert pcc.universe_size == 2
        assert pcc.concepts == ((0, 1), (1, 1))

    def test_duplicates_allowed(self):
        # induced concepts may coincide even when hypotheses differ
        pcc = PartialConceptClass(1, ((0,), (0,)))
        assert len(pcc) == 2


class TestDimensionQuery:
    def test_bounds(self):
        DimensionQuery(F(3, 10), F(0))
        with pytest.raises(ValueError):
            DimensionQuery(F(3, 10), F(3, 10))
        with pytest.raises(ValueError):
            DimensionQuery(F(11, 10), F(1, 10))
        with pytest.raises(ValueError):
            DimensionQuery(F(3, 10), F(-1, 10))
        for cap in (0, 2.5, True, "3"):
            with pytest.raises(ValueError, match="size cap"):
                DimensionQuery(F(3, 10), F(1, 10), size_cap=cap)

    @pytest.mark.parametrize("tau, alpha, bad", [
        (0.3, 0, 0.3), (F(3, 10), 0.1, 0.1), (True, 0, True), (1, False, False),
        ("3/10", 0, "3/10"),
    ])
    def test_thresholds_must_be_exact(self, tau, alpha, bad):
        message = f"^tau and alpha must be ints or Fractions, got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            DimensionQuery(tau, alpha)

    def test_integer_thresholds_kept_as_fractions(self):
        q = DimensionQuery(1, 0)
        assert (type(q.tau), type(q.alpha)) == (Fraction, Fraction)


class TestInduce:
    def test_threshold_values(self):
        d = LabeledDistribution(2, (Atom(0, 0, F(7, 10)), Atom(1, 1, F(3, 10))))
        fam = DomainFamily(2, (d,))
        hc = HypothesisClass(
            2, (Hypothesis((0, 0)), Hypothesis((0, 1)), Hypothesis((1, 0)))
        )
        # errors: 3/10, 0, 1
        pcc = induce_partial_class(hc, fam, DimensionQuery(F(3, 10), F(1, 10)))
        assert pcc.concepts == ((None,), (0,), (1,))

    def test_alpha_zero_boundary_is_undefined(self):
        d = LabeledDistribution(2, (Atom(0, 0, F(7, 10)), Atom(1, 1, F(3, 10))))
        fam = DomainFamily(2, (d,))
        hc = HypothesisClass(2, (Hypothesis((0, 0)),))  # error exactly 3/10
        pcc = induce_partial_class(hc, fam, DimensionQuery(F(3, 10), F(0)))
        assert pcc.concepts == ((None,),)

    def test_large_k_matrix_is_total(self):
        lkf = large_k_family(F(1, 50))
        pcc = induce_partial_class(
            lkf.slice.hypothesis_class, lkf.family, lkf.query()
        )
        assert all(v is not None for c in pcc.concepts for v in c)


class TestPartialVcDim:
    def test_single_concept(self):
        res = partial_vc_dim(PartialConceptClass(3, ((0, 1, None),)))
        assert res == (0, (), True)

    def test_one_point_pair(self):
        res = partial_vc_dim(PartialConceptClass(1, ((0,), (1,))))
        assert res.dimension == 1
        assert res.shattered == (0,)
        assert res.exact

    def test_full_square(self):
        pcc = PartialConceptClass(2, ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert partial_vc_dim(pcc).dimension == 2

    def test_undefined_values_block_shattering(self):
        pcc = PartialConceptClass(2, ((None, 0), (0, 1), (1, 0), (1, 1)))
        assert partial_vc_dim(pcc).dimension == 1

    def test_threshold_class_vc(self):
        for cutoff in (2, 3, 5):
            slice_ = ThresholdSlice.build(cutoff)
            pcc = PartialConceptClass.from_hypothesis_class(slice_.hypothesis_class)
            assert partial_vc_dim(pcc).dimension == 1
        single = PartialConceptClass.from_hypothesis_class(
            ThresholdSlice.build(1).hypothesis_class
        )
        assert partial_vc_dim(single).dimension == 0

    def test_size_cap_reports_inexact_lower_bound(self):
        cube = PartialConceptClass(
            3, tuple(itertools.product((0, 1), repeat=3))
        )
        assert partial_vc_dim(cube).dimension == 3
        capped = partial_vc_dim(cube, size_cap=2)
        assert capped.dimension == 2
        assert len(capped.shattered) == 2
        assert not capped.exact
        for cap in (0, -3, 2.5, True, "3"):
            with pytest.raises(ValueError, match="size cap"):
                partial_vc_dim(cube, size_cap=cap)

    def test_matches_exhaustive_on_random_instances(self):
        rng = random.Random(72001)
        for _ in range(60):
            universe = rng.randint(1, 5)
            pcc = random_partial_class(rng, universe, rng.randint(1, 10))
            got = partial_vc_dim(pcc)
            # exhaustive check against the same shattering definition
            best = 0
            for size in range(universe, 0, -1):
                found = False
                for pts in itertools.combinations(range(universe), size):
                    patterns = set()
                    for c in pcc.concepts:
                        vals = tuple(c[p] for p in pts)
                        if all(v is not None for v in vals):
                            patterns.add(vals)
                    if len(patterns) == 1 << size:
                        found = True
                        break
                if found:
                    best = size
                    break
            assert got.dimension == best
            assert got.exact


class TestGdim:
    def test_single_domain_hand_example(self):
        d = LabeledDistribution(
            2, (Atom(0, 0, F(2, 5)), Atom(1, 0, F(1, 2)), Atom(1, 1, F(1, 10)))
        )
        fam = DomainFamily(2, (d,))
        hc = HypothesisClass(2, (Hypothesis((0, 0)), Hypothesis((0, 1))))
        assert domain_error(hc.members[0], d) == F(1, 10)
        assert domain_error(hc.members[1], d) == F(1, 2)
        res = gdim(hc, fam, DimensionQuery(F(3, 10), F(1, 10)))
        assert res.dimension == 1
        assert res.exact
        assert verify_certificate(res.certificate, hc, fam, DimensionQuery(F(3, 10), F(1, 10)))

    def test_single_hypothesis_is_zero(self):
        rng = random.Random(72002)
        fam = random_family(rng, 4, 3)
        hc = HypothesisClass(4, (Hypothesis((0, 1, 0, 1)),))
        res = gdim(hc, fam, DimensionQuery(F(3, 10), F(1, 10)))
        assert res.dimension == 0
        assert res.certificate.domain_indices == ()
        assert len(res.certificate.witnesses) == 1

    def test_matches_naive_enumeration(self):
        rng = random.Random(72003)
        for _ in range(50):
            space = rng.randint(2, 4)
            fam = random_family(rng, space, rng.randint(1, 4))
            hc = random_class(rng, space, rng.randint(1, 10))
            tau = F(rng.randint(2, 9), 10)
            alpha = F(rng.randint(0, tau.numerator * 10 // tau.denominator - 1), 10)
            q = DimensionQuery(tau, alpha)
            res = gdim(hc, fam, q)
            assert res.dimension == naive_gdim(hc, fam, q)
            assert res.exact
            assert verify_certificate(res.certificate, hc, fam, q)

    def test_agrees_with_induced_partial_vc(self):
        rng = random.Random(72004)
        for _ in range(30):
            space = rng.randint(2, 4)
            fam = random_family(rng, space, rng.randint(1, 4))
            hc = random_class(rng, space, rng.randint(1, 8))
            q = DimensionQuery(F(3, 10), F(1, 10))
            assert (
                gdim(hc, fam, q).dimension
                == partial_vc_dim(induce_partial_class(hc, fam, q)).dimension
            )

    def test_monotone_in_band_widening(self):
        # raising tau while shrinking tau - alpha can only lose concepts
        rng = random.Random(72005)
        for _ in range(30):
            space = rng.randint(2, 4)
            fam = random_family(rng, space, rng.randint(1, 4))
            hc = random_class(rng, space, rng.randint(1, 8))
            tau = F(rng.randint(3, 7), 10)
            alpha = F(rng.randint(0, 2), 10)
            tau2 = tau + F(rng.randint(0, 2), 10)
            alpha2 = (tau2 - tau) + alpha + F(rng.randint(0, 1), 10)
            if not alpha2 < tau2:
                continue
            wide = gdim(hc, fam, DimensionQuery(tau2, alpha2)).dimension
            narrow = gdim(hc, fam, DimensionQuery(tau, alpha)).dimension
            assert wide <= narrow

    def test_cardinality_bounds(self):
        rng = random.Random(72006)
        for _ in range(30):
            space = rng.randint(2, 4)
            fam = random_family(rng, space, rng.randint(1, 4))
            hc = random_class(rng, space, rng.randint(1, 8))
            d = gdim(hc, fam, DimensionQuery(F(1, 2), F(1, 5))).dimension
            assert d <= len(fam)
            assert (1 << d) <= len(hc)

    def test_size_cap_lower_bound(self):
        lkf = large_k_family(F(1, 100))  # k = 4
        capped = gdim(
            lkf.slice.hypothesis_class, lkf.family, lkf.query(size_cap=2)
        )
        assert capped.dimension == 2
        assert not capped.exact
        assert verify_certificate(
            capped.certificate, lkf.slice.hypothesis_class, lkf.family, lkf.query()
        )


class TestCertificates:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(CertificateError):
            ShatteringCertificate((0, 0), (0, 0, 0, 0))

    def test_wrong_witness_count_rejected(self):
        with pytest.raises(CertificateError):
            ShatteringCertificate((0, 1), (0, 0, 0))

    @pytest.mark.parametrize("indices, witnesses", [
        ((0.9,), (1.7, True)),
        ((0.9,), (1, 0)),
        ((True,), (1, 0)),
        ((0,), (1.7, 0)),
        ((0,), (1, True)),
        ((0,), ("1", 0)),
    ])
    def test_non_integer_entries_refused(self, indices, witnesses):
        # no entry is coerced: 0.9 would become 0 and True would become 1
        with pytest.raises(CertificateError, match="integers"):
            ShatteringCertificate(indices, witnesses)

    def test_out_of_range_indices_raise_on_verify(self):
        lkf = large_k_family(F(1, 50))
        hc = lkf.slice.hypothesis_class
        q = lkf.query()
        good = lkf.certificate()
        bad_domain = ShatteringCertificate(
            (len(lkf.family),) + good.domain_indices[1:], good.witnesses
        )
        with pytest.raises(CertificateError):
            verify_certificate(bad_domain, hc, lkf.family, q)
        bad_witness = ShatteringCertificate(
            good.domain_indices, (len(hc),) + good.witnesses[1:]
        )
        with pytest.raises(CertificateError):
            verify_certificate(bad_witness, hc, lkf.family, q)

    def test_swapped_witnesses_fail_verification(self):
        lkf = large_k_family(F(1, 50))
        hc = lkf.slice.hypothesis_class
        good = lkf.certificate()
        assert verify_certificate(good, hc, lkf.family, lkf.query())
        wit = list(good.witnesses)
        wit[0], wit[1] = wit[1], wit[0]
        tampered = ShatteringCertificate(good.domain_indices, tuple(wit))
        assert not verify_certificate(tampered, hc, lkf.family, lkf.query())

    def test_boundary_error_fails_strictly(self):
        # witness error exactly tau must not count as "above tau"
        d = LabeledDistribution(2, (Atom(0, 0, F(7, 10)), Atom(1, 1, F(3, 10))))
        fam = DomainFamily(2, (d,))
        hc = HypothesisClass(2, (Hypothesis((0, 0)), Hypothesis((0, 1))))
        cert = ShatteringCertificate((0,), (0, 1))  # h0 err 3/10, h1 err 0
        assert not verify_certificate(
            cert, hc, fam, DimensionQuery(F(3, 10), F(1, 10))
        )


class TestRestrictionCount:
    def test_threshold_slice_on_prefix(self):
        slice_ = ThresholdSlice.build(4)
        pcc = PartialConceptClass.from_hypothesis_class(slice_.hypothesis_class)
        assert restriction_count(pcc, (0, 1, 2, 3)) == 4

    def test_single_point(self):
        pcc = PartialConceptClass(2, ((0, 0), (0, 1)))
        assert restriction_count(pcc, (0,)) == 1
        assert restriction_count(pcc, (1,)) == 2

    def test_rejections(self):
        pcc = PartialConceptClass(2, ((0, None),))
        with pytest.raises(ValueError):
            restriction_count(pcc, ())
        with pytest.raises(ValueError):
            restriction_count(pcc, (2,))
        with pytest.raises(ValueError):
            restriction_count(pcc, (1,))


class TestRefusalMessages:
    HC3 = HypothesisClass(3, (Hypothesis((0, 0, 0)),))
    FAMILY2 = DomainFamily(2, (LabeledDistribution(2, (Atom(0, 0, Fraction(1)),)),))
    QUERY = DimensionQuery(Fraction(3, 10), Fraction(1, 50))

    @pytest.mark.parametrize("build, error, message", [
        (lambda q: PartialConceptClass(-1, ((),)), ValueError,
         "^universe size must be non-negative$"),
        (lambda q: PartialConceptClass(2.0, ((0, 1),)), ValueError,
         r"^universe size must be an int, got 2\.0$"),
        (lambda q: PartialConceptClass(True, ((0,),)), ValueError,
         "^universe size must be an int, got True$"),
        (lambda q: induce_partial_class(q.HC3, q.FAMILY2, q.QUERY), SpaceMismatchError,
         "^class space 3 != family space 2$"),
        (lambda q: verify_certificate(
            ShatteringCertificate((0,), (0, 0)), q.HC3, q.FAMILY2, q.QUERY),
         SpaceMismatchError, "^class space 3 != family space 2$"),
    ], ids=["universe-negative", "universe-float", "universe-bool", "induce-space",
            "verify-space"])
    def test_message(self, build, error, message):
        with pytest.raises(error, match=message):
            build(self)
