"""Exact inputs. Rationals at the construction, mixing, risk and sample-size
entry points, and master seeds: a float, a bool or a string is refused by name
instead of being coerced by `Fraction()` or `int()`, and ints and Fractions read
as before."""
import re
from fractions import Fraction as F

import pytest

import genlab.experiments
from genlab import (
    Atom,
    DomainFamily,
    LabeledDistribution,
    MetaDistribution,
    ScalingConfig,
    derive_seed,
    domain_risk,
    large_k_family,
    large_k_lower_bound,
    largest_k_for,
    lower_bound_family,
    mix,
    rng_for,
    run_scaling,
    sample_size_for,
    smooth_family,
    unanimous_point_mass,
)
from genlab.seeding import derive_seeds

BASE = large_k_family(F(1, 50))
HC = BASE.slice.hypothesis_class
CLEAN = unanimous_point_mass(HC)
LBF = large_k_lower_bound(F(1, 50), F(3, 10))
D0 = LabeledDistribution(2, (Atom(0, 0, F(1)),))
D1 = LabeledDistribution(2, (Atom(1, 1, F(1)),))
META = MetaDistribution(DomainFamily(HC.space, BASE.family.domains), (F(1, 3),) * 3)


def family(tau, alpha):
    return lower_bound_family(HC, BASE.family, CLEAN, BASE.certificate(), tau, alpha)


# name, call taking the value, what a refusal names it, an exact value in range
ENTRY_POINTS = [
    ("largest_k_for", largest_k_for, "alpha", F(1, 50)),
    ("large_k_family", large_k_family, "alpha", F(1, 50)),
    ("meta_weights", LBF.meta_weights, "gamma", F(1, 20)),
    ("lower_bound_family-tau", lambda v: family(v, F(1, 50)), "tau and alpha", F(3, 10)),
    ("lower_bound_family-alpha", lambda v: family(F(3, 10), v), "tau and alpha", F(1, 50)),
    ("mix", lambda v: mix(D0, D1, v), "mixture weight", F(1, 2)),
    ("domain_risk", lambda v: domain_risk(META, v, HC.members[0]), "tau", F(3, 10)),
    ("smooth_family", lambda v: smooth_family((F(1, 2),) * 2, (0, 1), v, 2, 7), "gamma", F(1, 2)),
    ("sample_size_for-epsilon", lambda v: sample_size_for(v, F(1, 10), 4, 8),
     "epsilon and delta", F(1, 10)),
    ("sample_size_for-delta", lambda v: sample_size_for(F(1, 10), v, 4, 8),
     "epsilon and delta", F(1, 10)),
]


def inexact(value):
    """A float and a string of the in-range value, and True."""
    return [float(value), f"{value.numerator}/{value.denominator}", True]


@pytest.mark.parametrize(
    "call, what, bad",
    [(call, what, bad) for _, call, what, value in ENTRY_POINTS for bad in inexact(value)],
    ids=[f"{name}-{bad!r}" for name, _, _, value in ENTRY_POINTS for bad in inexact(value)],
)
def test_inexact_value_refused(call, what, bad):
    message = f"{what} must be ints or Fractions, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_ints_and_fractions_read_as_before():
    assert largest_k_for(F(1, 50)) == 3
    fam = large_k_family(F(1, 50))
    assert fam.alpha == F(1, 50) and type(fam.alpha) is F
    assert LBF.meta_weights(F(1, 20)) == (F(4, 5), F(1, 15), F(1, 15), F(1, 15))
    lbf = family(F(3, 10), 0)
    assert (lbf.tau, lbf.alpha) == (F(3, 10), 0) and type(lbf.alpha) is F
    assert mix(D0, D1, 1) == D1 and mix(D0, D1, 0) == D0
    assert domain_risk(META, 1, HC.members[0]) == 0
    assert len(smooth_family((F(1, 2),) * 2, (0, 1), 1, 2, 7)) == 2
    assert sample_size_for(F(1, 10), F(1, 10), 4, 8) == 324


@pytest.mark.parametrize("master", [2.5, True, "12"], ids=repr)
@pytest.mark.parametrize("derive", [
    lambda m: derive_seed(m, "x", 1),
    lambda m: derive_seeds(m, "x", count=2),
    lambda m: rng_for(m, "x"),
], ids=["derive_seed", "derive_seeds", "rng_for"])
def test_master_seed_must_be_an_int(derive, master):
    message = f"master seed must be an int, got {master!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        derive(master)


def test_run_scaling_refuses_a_float_seed_before_any_row(monkeypatch):
    rows = []
    monkeypatch.setattr(genlab.experiments, "TrialRow", lambda *row: rows.append(row))
    # the config refuses the seed when it is built, so no row is drawn from seed 2
    with pytest.raises(ValueError, match=r"^scaling config 'seed' must be a JSON integer, got 2\.5$"):
        run_scaling(ScalingConfig("point-mass", F(1, 50), (2, 4), 3, 2.5))
    assert rows == []
