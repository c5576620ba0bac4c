"""Integer-mass `domain_error`, batched domain-draw seeds and the prepared
exposure trial against frozen copies of the code they replace, on seeded
random instances; and `verify_certificate`'s independence from the search."""
import hashlib
import math
import random
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    DomainFamily,
    Hypothesis,
    LabeledDistribution,
    MetaDistribution,
    PartialConceptClass,
    ShatteringCertificate,
    domain_error,
    exposure_trial,
    flip_labels,
    large_k_family,
    mix,
    verify_certificate,
)
from genlab import core, dimensions
from genlab.learner import draw_domain_indices, inverse_cdf
from genlab.seeding import derive_seed, derive_seeds

from _builders import prime_domain, primes, random_domain, random_meta, random_partial_class

F = Fraction
MASTERS = (0, 1, -7, -(2**70), 2**64, 2**64 + 12345, 70001)


def frozen_domain_error(h, d):
    """The `Fraction`-sum `domain_error` this package used before integer masses."""
    return sum((a.mass for a in d.atoms if h.labels[a.x] != a.y), start=F(0))


def frozen_derive_seed(master, *parts):
    text = ":".join([str(int(master)), *(str(p) for p in parts)])
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")


def frozen_draw_domain_indices(p, n, master):
    """One fresh generator per draw, seeded by its own full hash."""
    draw = inverse_cdf(p.weights)
    seeds = [frozen_derive_seed(master, "domain", i) for i in range(n)]
    return tuple(draw(random.Random(s).random()) for s in seeds), tuple(seeds)


def frozen_exposure_trial(pcc, weights, n, rng):
    draw = inverse_cdf(weights)
    points = [draw(rng.random()) for _ in range(n)]
    distinct = set(points)
    exposed = F(0)
    exposed_idx = -1
    for ci, concept in enumerate(pcc.concepts):
        if all(concept[p] == 0 for p in distinct):
            mass = sum(
                (weights[u] for u in range(pcc.universe_size) if concept[u] == 1), start=F(0)
            )
            if mass > exposed:
                exposed = mass
                exposed_idx = ci
    return exposed, exposed_idx, tuple(points)


def random_weights(rng, count):
    """Non-negative weights over a prime denominator, some of them zero."""
    prime = rng.choice(primes(40, 50) + [2**31 - 1, 2**61 - 1])
    raw = [rng.choice((0, rng.randint(1, 1000))) for _ in range(count)]
    raw[rng.randrange(count)] += 1
    parts = [r * prime // sum(raw) for r in raw]
    parts[max(range(count), key=raw.__getitem__)] += prime - sum(parts)
    return tuple(F(w, prime) for w in parts)


def random_domains(rng):
    """Builder domains, prime-denominator domains, and their mixtures and flips."""
    space = rng.randint(1, 9)
    base = [random_domain(rng, space, max_support=space) for _ in range(3)]
    base += [prime_domain(rng, space, p) for p in rng.sample(primes(30, 11) + [2**61 - 1], 3)]
    out = list(base)
    for _ in range(4):
        d0, d1 = rng.sample(base, 2)
        lam = F(rng.randint(0, 97), 97)
        out.append(mix(d0, d1, lam))
        out.append(flip_labels(out[-1]))
    return space, out


class TestDomainError:
    def test_matches_fraction_sum(self):
        rng = random.Random(50501)
        checked = 0
        for _ in range(60):
            space, domains = random_domains(rng)
            hypotheses = [Hypothesis(tuple(rng.randint(0, 1) for _ in range(space)))
                          for _ in range(8)]
            for d in domains:
                for h in hypotheses:
                    e = domain_error(h, d)
                    assert type(e) is F and e == frozen_domain_error(h, d)
                    checked += 1
        assert checked == 60 * 14 * 8

    def test_integer_masses_are_the_atoms(self):
        rng = random.Random(50502)
        for _ in range(40):
            _, domains = random_domains(rng)
            for d in domains:
                assert d.denominator == math.lcm(*(a.mass.denominator for a in d.atoms))
                assert [F(w, d.denominator) for _, _, w in d.weighted] == [a.mass for a in d.atoms]
                assert [(x, y) for x, y, _ in d.weighted] == [(a.x, a.y) for a in d.atoms]

    def test_integer_masses_do_not_affect_equality(self):
        a = LabeledDistribution(3, (Atom(2, 1, F(2, 6)), Atom(0, 0, F(2, 3))))
        b = LabeledDistribution(3, (Atom(0, 0, F(4, 6)), Atom(2, 1, F(1, 3))))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    @pytest.mark.parametrize("masses, total", [
        ((F(1, 2), F(1, 3)), "5/6"),
        ((F(1, 2), F(2, 3)), "7/6"),
        ((F(1, 2**61 - 1), F(1, 2)), None),
    ])
    def test_sum_check(self, masses, total):
        atoms = tuple(Atom(x, 0, m) for x, m in enumerate(masses))
        with pytest.raises(ValueError, match="must sum to 1") as exc:
            LabeledDistribution(2, atoms)
        if total is not None:
            assert str(exc.value).endswith(f"got {total}")


class TestDomainDraws:
    @pytest.mark.parametrize("parts", [(), ("domain",), ("a", 3, "b", -1)])
    def test_batched_seeds_match_derive_seed(self, parts):
        for master in MASTERS:
            seeds = derive_seeds(master, *parts, count=300)
            assert seeds == [derive_seed(master, *parts, i) for i in range(300)]
            assert seeds[:5] == [frozen_derive_seed(master, *parts, i) for i in range(5)]
        assert derive_seeds(5, "domain", count=0) == []

    def test_draws_match_fresh_generators(self):
        rng = random.Random(50503)
        metas = []
        for _ in range(12):
            space, domains = random_domains(rng)
            count = rng.randint(1, len(domains))
            family = DomainFamily(space, tuple(rng.sample(domains, count)))
            metas.append(MetaDistribution(family, random_weights(rng, count)))
            metas.append(random_meta(rng, family))
        for master in MASTERS:
            for n in (1, 2, 37, 500):
                for p in rng.sample(metas, 3):
                    assert draw_domain_indices(p.weights, n, master) == frozen_draw_domain_indices(
                        p, n, master
                    )

    def test_metas_with_equal_weights_and_other_domains_agree(self):
        # the sampler is memoized by weights, so a second meta with the same
        # weights over other domains must draw the same indices
        rng = random.Random(50504)
        _, domains = random_domains(rng)
        weights = random_weights(rng, 3)
        metas = [MetaDistribution(DomainFamily(d[0].space, tuple(d)), weights)
                 for d in (domains[:3], domains[3:6], domains[:3])]
        other = MetaDistribution(metas[0].family, tuple(reversed(weights)))
        for p in metas + [other] + metas:
            assert draw_domain_indices(p.weights, 200, 11) == frozen_draw_domain_indices(p, 200, 11)


class TestPreparedExposure:
    def test_matches_per_trial_rebuild(self):
        rng = random.Random(50505)
        for _ in range(40):
            universe = rng.randint(1, 9)
            pcc = random_partial_class(rng, universe, rng.randint(1, 30), rng.random() * 0.5)
            weights = random_weights(rng, universe)
            for trial in range(5):
                n, seed = rng.randint(1, 40), rng.randint(0, 10**9)
                expected = frozen_exposure_trial(pcc, weights, n, random.Random(seed))
                assert exposure_trial(pcc, weights, n, random.Random(seed)) == expected

    def test_refusals_kept(self):
        pcc = PartialConceptClass(2, ((0, 1), (1, None)))
        with pytest.raises(ValueError, match="universe"):
            exposure_trial(pcc, (F(1),), 3, random.Random(0))
        with pytest.raises(ValueError, match="sum to 1"):
            exposure_trial(pcc, (F(1, 2), F(1, 3)), 3, random.Random(0))


class TestVerifyIndependence:
    def test_verify_needs_nothing_from_the_search(self, monkeypatch):
        lkf = large_k_family(F(1, 50))
        hc, family, query = lkf.slice.hypothesis_class, lkf.family, lkf.query()
        good = lkf.certificate()
        wit = list(good.witnesses)
        wit[1], wit[2] = wit[2], wit[1]
        swapped = ShatteringCertificate(good.domain_indices, tuple(wit))

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_certificate reached the search path")

        for module in (core, dimensions):
            for name in ("ErrorMatrix", "popcount_column", "induce_partial_class",
                         "partial_vc_dim"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        assert verify_certificate(good, hc, family, query)
        assert not verify_certificate(swapped, hc, family, query)
