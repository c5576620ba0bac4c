import itertools
import random
import warnings
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    Cover,
    DivergenceQuery,
    DomainFamily,
    EmptyQualifyingSetWarning,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    SpaceMismatchError,
    cover_bound_check,
    cover_is_valid,
    domain_error,
    greedy_cover,
    h_divergence,
    large_k_family,
    smooth_family,
)
from _builders import random_class, random_domain, random_family

F = Fraction


def two_point_domain(mass0, y0=0, y1=1):
    return LabeledDistribution(2, (Atom(0, y0, mass0), Atom(1, y1, 1 - mass0)))


class TestDivergence:
    def test_identity_is_zero(self):
        rng = random.Random(64001)
        for _ in range(10):
            d = random_domain(rng, 4)
            hc = random_class(rng, 4, 5)
            assert h_divergence(hc, d, d) == 0
            assert h_divergence(hc, d, d, DivergenceQuery(F(1, 2))) == 0

    def test_hand_computed_gap(self):
        d1 = two_point_domain(F(4, 5))
        d2 = two_point_domain(F(2, 5))
        hc = HypothesisClass(2, (Hypothesis((0, 0)), Hypothesis((0, 1))))
        # errors on d1: 1/5, 0; on d2: 3/5, 0
        assert h_divergence(hc, d1, d2) == F(2, 5)

    def test_restriction_drops_high_error_pairs(self):
        d1 = two_point_domain(F(4, 5))
        d2 = two_point_domain(F(2, 5))
        hc = HypothesisClass(2, (Hypothesis((1, 0)),))
        # errors: 4/5 + 2/5... the single hypothesis errs 0.8+0.6 sides
        e1 = domain_error(hc.members[0], d1)
        e2 = domain_error(hc.members[0], d2)
        assert (e1, e2) == (F(1), F(1))
        assert h_divergence(hc, d1, d2) == 0
        with pytest.warns(EmptyQualifyingSetWarning):
            assert h_divergence(hc, d1, d2, DivergenceQuery(F(1, 2))) == 0

    def test_restricted_never_exceeds_full(self):
        rng = random.Random(64002)
        for _ in range(30):
            space = rng.randint(2, 5)
            d1 = random_domain(rng, space)
            d2 = random_domain(rng, space)
            hc = random_class(rng, space, rng.randint(1, 8))
            tau = F(rng.randint(0, 10), 10)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyQualifyingSetWarning)
                full = h_divergence(hc, d1, d2)
                restricted = h_divergence(hc, d1, d2, DivergenceQuery(tau))
            assert restricted <= full

    def test_symmetry_and_triangle(self):
        rng = random.Random(64003)
        for _ in range(20):
            space = rng.randint(2, 5)
            a, b, c = (random_domain(rng, space) for _ in range(3))
            hc = random_class(rng, space, rng.randint(1, 8))
            ab = h_divergence(hc, a, b)
            assert ab == h_divergence(hc, b, a)
            assert ab <= h_divergence(hc, a, c) + h_divergence(hc, c, b)

    def test_space_mismatch(self):
        from genlab import SpaceMismatchError

        hc = HypothesisClass(2, (Hypothesis((0, 1)),))
        d = LabeledDistribution(3, (Atom(0, 0, F(1)),))
        with pytest.raises(SpaceMismatchError):
            h_divergence(hc, d, d)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            DivergenceQuery(F(3, 2))


class TestGreedyCover:
    def test_big_radius_gives_single_center(self):
        rng = random.Random(64010)
        fam = random_family(rng, 4, 5)
        hc = random_class(rng, 4, 6)
        worst = max(
            h_divergence(hc, a, b) for a, b in itertools.combinations(fam.domains, 2)
        )
        cover = greedy_cover(fam, hc, worst)
        assert cover.center_indices == (0,)
        assert cover_is_valid(cover, fam, hc)

    def test_zero_radius_on_separated_family(self):
        # domains pairwise separated by the class need one center each
        fam = DomainFamily(
            2, (two_point_domain(F(1, 5)), two_point_domain(F(2, 5)), two_point_domain(F(3, 5)))
        )
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 1))))
        cover = greedy_cover(fam, hc, F(0))
        assert cover.center_indices == (0, 1, 2)
        assert cover_is_valid(cover, fam, hc)

    def test_greedy_is_valid_and_not_too_small(self):
        rng = random.Random(64011)
        for _ in range(15):
            space = rng.randint(2, 4)
            fam = random_family(rng, space, rng.randint(1, 5))
            hc = random_class(rng, space, rng.randint(1, 6))
            radius = F(rng.randint(0, 4), 10)
            q = DivergenceQuery(F(1, 2)) if rng.random() < 0.5 else DivergenceQuery()
            cover = greedy_cover(fam, hc, radius, q)
            assert cover_is_valid(cover, fam, hc)
            # brute-force the minimum cover size for comparison
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyQualifyingSetWarning)
                dist = {
                    (i, j): h_divergence(hc, fam.domains[i], fam.domains[j], q)
                    for i in range(len(fam))
                    for j in range(len(fam))
                }
            best = len(fam)
            for size in range(1, len(fam) + 1):
                found = False
                for centers in itertools.combinations(range(len(fam)), size):
                    if all(
                        any(dist[(j, c)] <= radius for c in centers)
                        for j in range(len(fam))
                    ):
                        found = True
                        break
                if found:
                    best = size
                    break
            assert len(cover.center_indices) >= best

    def test_tampered_cover_detected(self):
        fam = DomainFamily(
            2, (two_point_domain(F(1, 5)), two_point_domain(F(4, 5)))
        )
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 1))))
        gap = h_divergence(hc, fam.domains[0], fam.domains[1])
        assert gap > 0
        bad = Cover((0,), gap - F(1, 1000), DivergenceQuery())
        assert not cover_is_valid(bad, fam, hc)

    def test_center_indices_out_of_range_rejected(self):
        lkf = large_k_family(F(1, 50))
        hc = lkf.slice.hypothesis_class
        with pytest.raises(ValueError, match="non-negative"):
            Cover((-1, -2, -3), F(0), DivergenceQuery())
        with pytest.raises(ValueError, match="out of range"):
            cover_is_valid(Cover((0, 3), F(1), DivergenceQuery()), lkf.family, hc)

    def test_negative_radius_rejected(self):
        fam = DomainFamily(2, (two_point_domain(F(1, 5)),))
        hc = HypothesisClass(2, (Hypothesis((0, 1)),))
        with pytest.raises(ValueError):
            greedy_cover(fam, hc, F(-1, 10))

    @pytest.mark.parametrize("radius", [F(-1, 10), F(-1, 10**9), -1])
    def test_cover_refuses_negative_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            Cover((0, 1, 2), radius, DivergenceQuery(F(3, 10)))

    def test_zero_radius_cover_accepted(self):
        lkf = large_k_family(F(1, 50))
        cover = Cover((0, 1, 2), F(0), DivergenceQuery(F(3, 10)))
        assert cover_is_valid(cover, lkf.family, lkf.slice.hypothesis_class)


class TestInexactInputsRefused:
    """The covers compare integer bounds scaled from the radius and tau, so
    both must be exact and center indices must be ints."""

    FAM = DomainFamily(2, (two_point_domain(F(1, 5)), two_point_domain(F(4, 5))))
    HC = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 1))))

    @pytest.mark.parametrize("centers", [(1.0,), (True,), (0, "1")])
    def test_cover_center_must_be_an_int(self, centers):
        with pytest.raises(ValueError, match="^cover center indices must be non-negative ints"):
            Cover(centers, F(0), DivergenceQuery())

    @pytest.mark.parametrize("centers", [[0, 1], iter([0, 1]), range(2)])
    def test_cover_holds_its_centers_as_a_tuple(self, centers):
        cover = Cover(centers, F(0), DivergenceQuery())
        assert cover == Cover((0, 1), F(0), DivergenceQuery())
        assert cover.center_indices == (0, 1) and hash(cover) is not None
        assert cover_is_valid(cover, self.FAM, self.HC)

    @pytest.mark.parametrize("radius", [0.5, 0.1, True, "1/2"])
    def test_radius_must_be_exact(self, radius):
        message = f"^cover radius must be ints or Fractions, got {radius!r}$"
        with pytest.raises(ValueError, match=message):
            Cover((0,), radius, DivergenceQuery())
        with pytest.raises(ValueError, match=message):
            greedy_cover(self.FAM, self.HC, radius)

    @pytest.mark.parametrize("radius", [0, 1, F(1, 3)])
    def test_cover_keeps_its_radius_as_a_fraction(self, radius):
        cover = Cover((0,), radius, DivergenceQuery())
        assert type(cover.radius) is Fraction and cover.radius == radius
        assert type(greedy_cover(self.FAM, self.HC, radius).radius) is Fraction

    @pytest.mark.parametrize("tau", [0.3, True, "3/10"])
    def test_divergence_tau_must_be_exact(self, tau):
        message = f"^divergence tau must be ints or Fractions, got {tau!r}$"
        with pytest.raises(ValueError, match=message):
            DivergenceQuery(tau)

    def test_integer_tau_kept_as_a_fraction(self):
        assert type(DivergenceQuery(1).tau) is Fraction


class TestCoverBound:
    def test_singleton(self):
        fam = DomainFamily(2, (two_point_domain(F(1, 5)),))
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 0))))
        dim, size, ok = cover_bound_check(fam, hc, F(3, 10), F(1, 10))
        assert size == 1
        assert dim <= 1
        assert ok

    def test_shattered_family(self):
        lkf = large_k_family(F(1, 50))
        dim, size, ok = cover_bound_check(
            lkf.family, lkf.slice.hypothesis_class, F(3, 10), lkf.alpha
        )
        assert dim == 3
        assert ok
        assert size >= 3

    def test_random_instances(self):
        rng = random.Random(64020)
        for _ in range(25):
            space = rng.randint(2, 4)
            fam = random_family(rng, space, rng.randint(1, 4))
            hc = random_class(rng, space, rng.randint(1, 8))
            tau = F(rng.randint(2, 8), 10)
            alpha = F(rng.randint(1, 10 * tau.numerator // tau.denominator), 10)
            if not alpha < tau:
                continue
            _, _, ok = cover_bound_check(fam, hc, tau, alpha)
            assert ok


class TestSmoothFamily:
    MU0 = (F(1, 2), F(1, 4), F(1, 4))
    PSTAR = (0, 1, 0)

    def test_ratio_band_and_labels(self):
        for gamma in (F(1, 2), F(3, 4), F(9, 10)):
            fam = smooth_family(self.MU0, self.PSTAR, gamma, 6, 64030)
            for dom in fam.domains:
                assert dom.support() == (0, 1, 2)
                for a in dom.atoms:
                    assert a.y == self.PSTAR[a.x]
                    ratio = a.mass / self.MU0[a.x]
                    assert gamma <= ratio <= 1 / gamma

    def test_gamma_one_reproduces_reference(self):
        fam = smooth_family(self.MU0, self.PSTAR, F(1), 3, 64031)
        for dom in fam.domains:
            for a in dom.atoms:
                assert a.mass == self.MU0[a.x]

    def test_pairwise_ratio_band(self):
        gamma = F(1, 2)
        fam = smooth_family(self.MU0, self.PSTAR, gamma, 5, 64032)
        for d1, d2 in itertools.combinations(fam.domains, 2):
            m1 = {a.x: a.mass for a in d1.atoms}
            m2 = {a.x: a.mass for a in d2.atoms}
            for x in m1:
                assert gamma**2 <= m1[x] / m2[x] <= 1 / gamma**2

    def test_divergence_bound_under_shared_labels(self):
        # same labeling everywhere: any error gap is a mass-ratio artifact,
        # capped by (1/gamma^2 - 1) * tau over tau-qualifying hypotheses
        rng = random.Random(64033)
        tau = F(3, 10)
        for gamma in (F(1, 2), F(3, 4), F(9, 10)):
            fam = smooth_family(self.MU0, self.PSTAR, gamma, 4, 64034)
            hc = random_class(rng, 3, 8)
            bound = (1 / gamma**2 - 1) * tau
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyQualifyingSetWarning)
                for d1, d2 in itertools.combinations(fam.domains, 2):
                    assert h_divergence(hc, d1, d2, DivergenceQuery(tau)) <= bound

    def test_zero_mass_points_stay_empty(self):
        fam = smooth_family((F(1, 2), F(0), F(1, 2)), (0, 0, 1), F(1, 2), 3, 64035)
        for dom in fam.domains:
            assert dom.support() == (0, 2)

    def test_rejections(self):
        with pytest.raises(ValueError):
            smooth_family(self.MU0, self.PSTAR, F(0), 2, 1)
        with pytest.raises(ValueError):
            smooth_family(self.MU0, self.PSTAR, F(3, 2), 2, 1)
        with pytest.raises(ValueError):
            smooth_family((F(1, 2), F(1, 4)), self.PSTAR, F(1, 2), 2, 1)
        with pytest.raises(ValueError):
            smooth_family(self.MU0, (0, 1, 2), F(1, 2), 2, 1)
        with pytest.raises(ValueError):
            smooth_family(self.MU0, self.PSTAR, F(1, 2), 0, 1)

    def test_determinism(self):
        a = smooth_family(self.MU0, self.PSTAR, F(1, 2), 4, 7)
        b = smooth_family(self.MU0, self.PSTAR, F(1, 2), 4, 7)
        assert a == b


def test_cover_space_mismatch_refused():
    hc = HypothesisClass(3, (Hypothesis((0, 0, 0)),))
    g = DomainFamily(2, (LabeledDistribution(2, (Atom(0, 0, F(1)),)),))
    with pytest.raises(SpaceMismatchError, match="^class space 3 != family space 2$"):
        greedy_cover(g, hc, F(1, 10))
