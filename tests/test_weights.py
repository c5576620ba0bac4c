"""One exact weight check: `core.unit_weights` and every probability vector
that goes through it (domain masses, meta weights, sampler weights, pooled ERM
column weights, smooth-family reference masses), plus the int-or-Fraction
intake that error tables share."""
import random
from fractions import Fraction

import pytest

from genlab import (
    Atom,
    DomainFamily,
    ErrorTable,
    LabeledDistribution,
    MetaDistribution,
    pooled_erm,
    smooth_family,
    uniform_weights,
)
from genlab.core import unit_weights
from genlab.learner import inverse_cdf

F = Fraction
INEXACT = [0.5, "1/2", True]
POINT = LabeledDistribution(2, (Atom(0, 0, F(1)),))


def frozen_pooled_erm(table, weights):
    """The Fraction loop pooled ERM ran before it became an integer dot
    product: first index of the smallest weighted average."""
    weights = [Fraction(w) for w in weights]
    best = None
    best_idx = -1
    for i, row in enumerate(table.entries):
        avg = sum((w * v for w, v in zip(weights, row)), start=Fraction(0))
        if best is None or avg < best:
            best = avg
            best_idx = i
    return best_idx


class TestUnitWeights:
    def test_numerators_over_the_lcm(self):
        assert unit_weights((F(1, 2), F(1, 3), F(1, 6)), "w") == ([3, 2, 1], 6)
        assert unit_weights((0, 1), "w") == ([0, 1], 1)
        assert unit_weights((F(0), F(2, 4), F(1, 2)), "w") == ([0, 1, 1], 2)

    @pytest.mark.parametrize("weights, message", [
        ((F(3, 2), F(-1, 2)), "w must be non-negative"),
        ((F(1, 2), F(1, 3)), "w must sum to 1, got 5/6"),
        ((F(1, 2), 1), "w must sum to 1, got 3/2"),
        ((), "w must sum to 1, got 0"),
        ((F(1, 2), 0.5), "w must be ints or Fractions, got 0.5"),
        ((F(1, 2), "1/2"), "w must be ints or Fractions, got '1/2'"),
        ((True,), "w must be ints or Fractions, got True"),
    ])
    def test_refusals(self, weights, message):
        with pytest.raises(ValueError) as exc:
            unit_weights(weights, "w")
        assert str(exc.value) == message


class TestInexactValuesRefused:
    @pytest.mark.parametrize("mass", INEXACT, ids=repr)
    def test_domain_masses(self, mass):
        with pytest.raises(ValueError, match="atom masses must be ints or Fractions"):
            LabeledDistribution(2, (Atom(0, 0, mass), Atom(1, 1, F(1, 2))))

    @pytest.mark.parametrize("weights", [(0.5, "1/2"), (True,), (F(1, 2), 0.5)], ids=repr)
    def test_meta_weights(self, weights):
        family = DomainFamily(2, (POINT,) * len(weights))
        with pytest.raises(ValueError, match="weights must be ints or Fractions"):
            MetaDistribution(family, weights)

    @pytest.mark.parametrize("weight", INEXACT, ids=repr)
    def test_sampler_weights(self, weight):
        with pytest.raises(ValueError, match="sampler weights must be ints or Fractions"):
            inverse_cdf((weight, F(1, 2)))

    @pytest.mark.parametrize("weight", INEXACT, ids=repr)
    def test_column_weights(self, weight):
        table = ErrorTable(((F(1, 2), F(1, 4)),), "exact")
        with pytest.raises(ValueError, match="column weights must be ints or Fractions"):
            pooled_erm(table, (weight, F(1, 2)))

    @pytest.mark.parametrize("mass", INEXACT, ids=repr)
    def test_reference_masses(self, mass):
        with pytest.raises(ValueError, match="reference masses must be ints or Fractions"):
            smooth_family((mass, F(1, 2)), (0, 1), F(1, 2), 2, 7)

    @pytest.mark.parametrize("row", [(True, F(1, 3)), ("1/3",), (0.25, F(0))], ids=repr)
    def test_error_table_entries(self, row):
        with pytest.raises(ValueError, match="error values must be ints or Fractions"):
            ErrorTable((row,), "exact")
        with pytest.raises(ValueError, match="error values must be ints or Fractions"):
            ErrorTable(((F(1, 2),) * len(row), row), "empirical")

    def test_exact_values_still_accepted_and_stored_as_fractions(self):
        d = LabeledDistribution(2, (Atom(1, 1, 1),))
        assert d.atoms == (Atom(1, 1, F(1)),) and type(d.atoms[0].mass) is Fraction
        p = MetaDistribution(DomainFamily(2, (POINT, POINT)), (0, 1))
        assert p.weights == (F(0), F(1)) and {type(w) for w in p.weights} == {Fraction}
        t = ErrorTable(((0, 1, F(1, 3)),), "exact")
        assert t.entries == ((F(0), F(1), F(1, 3)),)
        assert {type(v) for v in t.entries[0]} == {Fraction}
        assert inverse_cdf((0, 1))(0.5) == 1


class TestWeightRefusalWording:
    @pytest.mark.parametrize("build, noun", [
        (lambda w: LabeledDistribution(2, (Atom(0, 0, w[0]), Atom(1, 0, w[1]))), "atom masses"),
        (lambda w: MetaDistribution(DomainFamily(2, (POINT, POINT)), w), "weights"),
        (inverse_cdf, "sampler weights"),
        (lambda w: pooled_erm(ErrorTable(((F(0), F(1)),), "exact"), w), "column weights"),
        (lambda w: smooth_family(w, (0, 1), F(1, 2), 1, 3), "reference masses"),
    ], ids=["domain", "meta", "sampler", "pooled", "smooth"])
    def test_each_caller_names_its_weights(self, build, noun):
        with pytest.raises(ValueError) as exc:
            build((F(1, 2), F(1, 4)))
        assert str(exc.value) == f"{noun} must sum to 1, got 3/4"
        with pytest.raises(ValueError) as exc:
            build((F(3, 2), F(-1, 2)))
        assert str(exc.value) == f"{noun} must be non-negative"

    def test_zero_domain_mass_is_not_positive(self):
        with pytest.raises(ValueError, match="atom mass must be positive, got 0"):
            LabeledDistribution(2, (Atom(0, 0, F(0)), Atom(1, 0, F(1))))


class TestSmoothFamilyLabels:
    @pytest.mark.parametrize("pstar", [
        [0.7, 1.9], [0.0, 1.0], ["0", "1"], [True, False], [0, 2], [0, -1], [0],
    ], ids=repr)
    def test_only_the_ints_0_and_1(self, pstar):
        with pytest.raises(ValueError, match="labeling must assign 0/1 to every instance"):
            smooth_family([F(1, 2), F(1, 2)], pstar, F(1, 2), 2, 7)


class TestPooledErm:
    def test_matches_the_fraction_loop(self):
        rng = random.Random(61011)
        ties = 0
        for _ in range(300):
            rows, cols = rng.randint(1, 12), rng.randint(1, 6)
            den = rng.choice((1, 2, 3, 8, 12))
            # few distinct values, often repeated rows, so exact ties are common
            values = [F(rng.randint(0, den), den) for _ in range(rng.randint(1, 3))]
            base = [tuple(rng.choice(values) for _ in range(cols)) for _ in range(3)]
            entries = tuple(
                rng.choice(base) if rng.random() < 0.5
                else tuple(rng.choice(values) for _ in range(cols))
                for _ in range(rows)
            )
            raw = [rng.choice((0, 0, rng.randint(1, 9))) for _ in range(cols)]
            raw[rng.randrange(cols)] += 1
            weights = tuple(F(r, sum(raw)) for r in raw)
            table = ErrorTable(entries, "exact")
            expected = frozen_pooled_erm(table, weights)
            assert pooled_erm(table, weights) == expected
            averages = [sum(w * v for w, v in zip(weights, row)) for row in entries]
            ties += averages.count(averages[expected]) > 1
        assert ties > 50

    def test_zero_weight_columns_are_ignored_and_ties_go_low(self):
        table = ErrorTable(((F(1), F(1, 2)), (F(0), F(1, 2)), (F(0), F(1, 4))), "exact")
        assert pooled_erm(table, (F(0), F(1))) == 2
        assert pooled_erm(table, (F(1), F(0))) == 1
        tied = ErrorTable(((F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 4), F(1, 4))), "exact")
        assert pooled_erm(tied, uniform_weights(2)) == 0
