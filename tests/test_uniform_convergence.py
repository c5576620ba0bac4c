"""The uniform-convergence runner, which scores a trial from the set of points
it drew and stops drawing once every point is seen, against a frozen copy of
the per-trial runner it replaces; the memoized exposure against the concept
loop on every mask; and the report bytes of the criterion 09 config."""
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from genlab import (
    DimensionQuery,
    ExperimentReport,
    TrialRow,
    UniformConvergenceConfig,
    induce_partial_class,
    large_k_family,
    partial_vc_dim,
    run_uniform_convergence,
)
from genlab.cli import main
from genlab.experiments import _masked_exposure
from genlab.learner import inverse_cdf
from genlab.seeding import derive_seed

from _builders import random_partial_class

F = Fraction


def one_masses(pcc, weights):
    return [
        sum((w for w, v in zip(weights, concept) if v == 1), start=F(0))
        for concept in pcc.concepts
    ]


def frozen_exposure(pcc, masses, distinct):
    """The concept loop: the largest 1-mass among concepts 0 on every drawn
    point, the lowest index on ties, or (0, -1)."""
    exposed, exposed_idx = F(0), -1
    for ci, (concept, mass) in enumerate(zip(pcc.concepts, masses)):
        if mass > exposed and all(concept[p] == 0 for p in distinct):
            exposed, exposed_idx = mass, ci
    return exposed, exposed_idx


def frozen_run_uniform_convergence(cfg):
    """One fresh generator and n full draws per trial, the concept loop, and
    aggregates counted row by row."""
    base = large_k_family(cfg.family_alpha)
    pcc = induce_partial_class(
        base.slice.hypothesis_class, base.family, DimensionQuery(cfg.tau, cfg.family_alpha)
    )
    dimension = partial_vc_dim(pcc).dimension
    weights = tuple(F(1, pcc.universe_size) for _ in range(pcc.universe_size))
    draw = inverse_cdf(weights)
    masses = one_masses(pcc, weights)
    rows = []
    for n in cfg.n_grid:
        for trial in range(cfg.trials):
            seed = derive_seed(cfg.seed, "uc", n, trial)
            rng = random.Random(seed)
            points = [draw(rng.random()) for _ in range(n)]
            exposed, exposed_idx = frozen_exposure(pcc, masses, set(points))
            rows.append(TrialRow(
                "uniform-convergence", n, trial, seed, exposed_idx, exposed, None,
                {"distinct_points": len(set(points))},
            ))
    log_inv_delta = math.log(1.0 / float(cfg.delta))
    frequencies = []
    calibrated = None
    for c in cfg.c_grid:
        per_n = []
        ok = True
        prev = None
        for n in cfg.n_grid:
            gamma = c * (dimension * math.log(n) ** 2 + log_inv_delta) / n
            count = sum(1 for r in rows if r.n == n and r.er_exact > gamma)
            freq = F(count, cfg.trials)
            per_n.append({"n": n, "gamma": gamma, "count": count, "freq": float(freq)})
            if freq > cfg.delta or (prev is not None and freq > prev):
                ok = False
            prev = freq
        frequencies.append({"C": c, "per_n": per_n, "passes": ok})
        if ok and calibrated is None:
            calibrated = c
    agg = {
        "dimension": dimension,
        "delta": f"{cfg.delta.numerator}/{cfg.delta.denominator}",
        "frequencies": frequencies,
        "calibrated_c": calibrated,
    }
    return ExperimentReport("uniform-convergence", cfg.to_dict(), tuple(rows), agg)


UC = UniformConvergenceConfig
CONFIGS = [
    UC(F(1, 100), (16, 32, 64, 128, 256), 60, 90001, c_grid=(1, 2, 4, 8)),
    UC(F(1, 100), (16, 32, 64, 128, 256), 60, 104729, c_grid=(1, 2, 4, 8)),
    UC(F(1, 100), (16, 32, 64, 128, 256), 40, 2**64 - 1),
    UC(F(1, 100), (1, 2, 3, 4, 5, 6, 8), 80, 1),
    UC(F(1, 100), (1, 2, 4, 8, 16), 50, 7, delta=F(1, 3)),
    UC(F(1, 100), (2, 4, 8), 50, 0, tau=F(1, 4)),
    UC(F(1, 100), (1, 1024), 20, 5),
    UC(F(1, 50), (1, 2, 3, 5, 8), 80, 11),
    UC(F(1, 50), (1, 2, 4, 8, 16), 60, 12, tau=F(1, 4)),
    UC(F(1, 50), (1, 3, 9, 27), 60, 13, tau=F(1, 4), delta=F(1, 2)),
    UC(F(1, 50), (4, 8, 16), 40, 424243, c_grid=(1, 2)),
    UC(F(1, 50), (2, 4), 50, 14, tau=F(2, 5), c_grid=(3, 5, 7)),
    UC(F(1, 50), (1, 64, 256), 30, 2**40 + 3, delta=F(1, 20)),
    UC(F(1, 2000), (1, 4, 16, 64), 40, 15),
    UC(F(1, 2000), (1, 4, 16, 64), 40, 16, delta=F(1, 3)),
    UC(F(1, 2000), (2, 8, 32), 40, 17, tau=F(1, 4), c_grid=(1, 3)),
    UC(F(1, 2000), (8, 16, 32, 64), 30, 18, delta=F(1, 5)),
    UC(F(1, 2000), (1, 2, 3, 5, 7, 11), 40, 19, tau=F(1, 4), delta=F(2, 3)),
    UC(F(1, 100), (3, 5, 7, 9), 80, 20, tau=F(1, 4), delta=F(1, 4)),
    UC(F(1, 2000), (100, 200), 20, 21),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=[f"cfg{i}" for i in range(len(CONFIGS))])
def test_runner_matches_frozen_copy(cfg):
    expected = frozen_run_uniform_convergence(cfg)
    report = run_uniform_convergence(cfg)
    assert report.rows == expected.rows
    assert report.aggregates == expected.aggregates
    assert report.to_csv_text() == expected.to_csv_text()
    assert report.to_json_dict() == expected.to_json_dict()


def test_some_trials_leave_points_unseen():
    rows = run_uniform_convergence(CONFIGS[3]).rows
    distinct = {r.extra["distinct_points"] for r in rows}
    assert min(distinct) == 1 and max(distinct) == 4


def zero_heavy_weights(rng, count):
    """Weights over a common denominator, about half of them zero."""
    raw = [rng.choice((0, rng.randint(1, 9))) for _ in range(count)]
    raw[rng.randrange(count)] += 1
    return tuple(F(r, sum(raw)) for r in raw)


def test_every_mask_matches_concept_loop():
    rng = random.Random(60606)
    zero_mass_answers = 0
    for _ in range(40):
        universe = rng.randint(1, 9)
        pcc = random_partial_class(rng, universe, rng.randint(1, 30), rng.random() * 0.5)
        weights = zero_heavy_weights(rng, universe)
        _, exposure = _masked_exposure(pcc, weights)
        masses = one_masses(pcc, weights)
        for mask in range(1 << universe):
            distinct = {p for p in range(universe) if mask >> p & 1}
            answer = frozen_exposure(pcc, masses, distinct)
            assert exposure(mask) == answer
            zero_mass_answers += answer == (0, -1)
    assert zero_mass_answers > 0


# sha256 of report.json and report.csv of the criterion 09 config, computed
# with the per-trial runner that draws all n points; perfbench/pins.json holds
# the seed 90001 pair too.
CRITERION_09_PINS = {
    90001: ("ef01799942b78f18e067f11620a4560bf2d41200178b3db54a19e6c8f3a61034",
            "6da9a411f7c61ead481b83cee6c7bbbd15d283e740819201ad85826ad80d93c0"),
    104729: ("184f19cab6d94e207b054fb8670ebb77540da07bd954116edf8ecfa54c080585",
             "67b7d680063779cbb602a6501694cfa4bef47f8d333db392cabffade0fe079ad"),
}


@pytest.mark.parametrize("seed", sorted(CRITERION_09_PINS))
def test_criterion_09_report_bytes_pinned(tmp_path, capsys, seed):
    cfg = tmp_path / "uc.json"
    cfg.write_text(json.dumps({
        "experiment": "uniform-convergence", "family_alpha": "1/100",
        "n_grid": [16, 32, 64, 128, 256], "c_grid": [1, 2, 4, 8], "trials": 200,
        "seed": seed,
    }))
    out = tmp_path / "out"
    assert main(["experiment", "uniform-convergence", "--config", str(cfg),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.json", "report.csv")
    )
    assert digests == CRITERION_09_PINS[seed]
