import csv
import inspect
import io
import json
import math
import random
import statistics
import typing
from fractions import Fraction

import pytest

from genlab import (
    ConfigError,
    ExperimentReport,
    LowerBoundConfig,
    PartialConceptClass,
    ScalingConfig,
    UniformConvergenceConfig,
    exposure_trial,
    rational_from_str,
    run_lower_bound,
    run_scaling,
    run_uniform_convergence,
)
from _builders import random_partial_class

F = Fraction

SMALL_SCALING = ScalingConfig(
    "adversarial-meta", F(1, 50), (8, 16, 32), 25, 424242, alpha=F(1, 100)
)
SMALL_UC = UniformConvergenceConfig(F(1, 50), (4, 8, 16), 30, 424243, c_grid=(1, 2))
SMALL_LB = LowerBoundConfig(F(1, 50), F(1, 20), 10, 40, 424244)


class TestConfigs:
    def test_scaling_round_trip(self):
        cfg = ScalingConfig(
            "adversarial-meta", F(1, 100), (8, 16), 10, 7,
            alpha=F(1, 200), gamma_coefficient=F(1, 2), epsilon=F(1, 50),
        )
        assert ScalingConfig.from_dict(cfg.to_dict()) == cfg

    def test_uc_round_trip(self):
        cfg = UniformConvergenceConfig(F(1, 50), (4, 8), 20, 9, c_grid=(2, 4))
        assert UniformConvergenceConfig.from_dict(cfg.to_dict()) == cfg

    def test_lb_round_trip(self):
        cfg = LowerBoundConfig(F(1, 50), F(1, 20), 12, 30, 11, tau_margin=F(1, 500))
        assert LowerBoundConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        obj = SMALL_SCALING.to_dict()
        obj["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ScalingConfig.from_dict(obj)
        obj = SMALL_UC.to_dict()
        obj["gamma"] = "1/20"
        with pytest.raises(ValueError):
            UniformConvergenceConfig.from_dict(obj)
        obj = SMALL_LB.to_dict()
        obj["c_grid"] = [1]
        with pytest.raises(ValueError):
            LowerBoundConfig.from_dict(obj)

    @pytest.mark.parametrize("grids", [
        {"n_grid": (4, 8.0)}, {"n_grid": "48"}, {"n_grid": (True, 2)},
        {"c_grid": (1, 2.5)}, {"c_grid": "12"}, {"c_grid": (True, 2)},
    ])
    def test_grids_take_integers_only(self, grids):
        with pytest.raises(ValueError, match="grid must list positive integers"):
            UniformConvergenceConfig(**{
                "family_alpha": F(1, 50), "n_grid": (4, 8), "trials": 5, "seed": 1, **grids
            })

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ScalingConfig("point-mass", F(1, 50), (8, 8), 5, 1)
        with pytest.raises(ValueError):
            ScalingConfig("point-mass", F(1, 50), (), 5, 1)
        with pytest.raises(ValueError):
            ScalingConfig("point-mass", F(1, 50), (4, 8), 0, 1)
        with pytest.raises(ValueError):
            ScalingConfig("warp-drive", F(1, 50), (4, 8), 5, 1)
        with pytest.raises(ValueError):
            UniformConvergenceConfig(F(1, 50), (4, 8), 5, 1, c_grid=(2, 1))
        with pytest.raises(ValueError):
            LowerBoundConfig(F(1, 50), F(1, 8), 4, 5, 1)
        with pytest.raises(ValueError):
            LowerBoundConfig(F(1, 50), F(0), 4, 5, 1)

    @pytest.mark.parametrize("build, message", [
        (lambda: UniformConvergenceConfig(F(1, 50), (4, 8), 0, 1), "^need at least one trial$"),
        (lambda: LowerBoundConfig(F(1, 50), F(1, 20), 0, 5, 1), "^need n >= 1$"),
    ], ids=["uc-trials-zero", "lb-n-zero"])
    def test_counts_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_gamma_and_coefficient_refused(self):
        # one of them would be ignored: gamma used to win silently
        both = {**SMALL_SCALING.to_dict(), "gamma": "1/20", "gamma_coefficient": "1/2"}
        with pytest.raises(ValueError, match="^give gamma or gamma_coefficient, not both$"):
            ScalingConfig.from_dict(both)
        assert ScalingConfig.from_dict({**both, "gamma": None}).gamma_coefficient == F(1, 2)
        assert ScalingConfig.from_dict({**both, "gamma_coefficient": None}).gamma == F(1, 20)

    def test_zero_tau_margin_is_kept(self):
        for cls, cfg in ((ScalingConfig, SMALL_SCALING), (LowerBoundConfig, SMALL_LB)):
            obj = cfg.to_dict()
            obj["tau_margin"] = "0"
            loaded = cls.from_dict(obj)
            assert loaded.tau_margin == 0
            assert loaded.to_dict()["tau_margin"] == "0/1"

    def test_zero_tau_is_kept(self):
        # zero is no default: the runner refuses it later, with its own message
        for cls, cfg in (
            (ScalingConfig, SMALL_SCALING),
            (UniformConvergenceConfig, SMALL_UC),
            (LowerBoundConfig, SMALL_LB),
        ):
            obj = cfg.to_dict()
            obj["tau"] = "0"
            assert cls.from_dict(obj).tau == 0

    def test_zero_delta_is_refused(self):
        for cls, cfg in ((ScalingConfig, SMALL_SCALING), (UniformConvergenceConfig, SMALL_UC)):
            for bad in ("0", "1", "-1/10"):
                obj = cfg.to_dict()
                obj["delta"] = bad
                with pytest.raises(ValueError, match="delta"):
                    cls.from_dict(obj)
            obj = cfg.to_dict()
            del obj["delta"]
            assert cls.from_dict(obj).delta == F(1, 10)

    def test_missing_required_key_refused(self):
        obj = SMALL_LB.to_dict()
        del obj["gamma"]
        with pytest.raises(ValueError, match="gamma"):
            LowerBoundConfig.from_dict(obj)

    @pytest.mark.parametrize("generator", [5, ["point-mass"], True])
    def test_generator_read_as_json_string(self, generator):
        obj = SMALL_SCALING.to_dict()
        obj["generator"] = generator
        with pytest.raises(ValueError, match="'generator' must be a JSON string"):
            ScalingConfig.from_dict(obj)

    def test_boolean_rational_refused(self):
        obj = SMALL_SCALING.to_dict()
        obj["tau"] = True
        with pytest.raises(ValueError, match="'tau' expected a decimal-free rational"):
            ScalingConfig.from_dict(obj)


class TestTypeHints:
    def test_public_hints_resolve(self):
        from genlab import experiments

        public = [
            obj for name, obj in vars(experiments).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == experiments.__name__
        ]
        assert exposure_trial in public and run_lower_bound in public
        for obj in public:
            typing.get_type_hints(obj)
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        typing.get_type_hints(member)


class TestScaling:
    def test_point_mass_is_riskless(self):
        cfg = ScalingConfig("point-mass", F(1, 50), (2, 4), 15, 31001)
        rep = run_scaling(cfg)
        assert len(rep.rows) == 30
        assert all(r.er_exact == 0 for r in rep.rows)
        assert all(r.max_train_err == 0 for r in rep.rows)
        assert rep.aggregates["tau_star"] == "0/1"
        assert rep.aggregates["slope"] is None
        assert rep.aggregates["inversions"] == 0

    def test_uniform_shattered_is_realizable(self):
        # the first threshold slot is below tau on every built domain, so the
        # min-max pick is always slot 1 and the risk is identically zero
        cfg = ScalingConfig("uniform-shattered", F(1, 50), (2, 4, 8), 20, 31002)
        rep = run_scaling(cfg)
        assert all(r.hypothesis_index == 0 for r in rep.rows)
        assert all(r.er_exact == 0 for r in rep.rows)
        assert rep.aggregates["tau_star"] == "49/180"

    def test_adversarial_rows(self):
        rep = run_scaling(SMALL_SCALING)
        tau = rational_from_str(rep.aggregates["tau"])
        alpha = rational_from_str(rep.aggregates["alpha"])
        assert rep.aggregates["d"] == 3
        assert rational_from_str(rep.aggregates["lambda"]) == F(2, 5)
        assert rational_from_str(rep.aggregates["threshold_floor"]) == F(2, 7)
        assert tau == F(2, 7) - F(1, 1000)
        for r in rep.rows:
            assert len(r.extra["b"]) == 3
            assert set(r.extra["b"]) <= {"0", "1"}
            assert rational_from_str(r.extra["gamma"]) == F(1, 2 * r.n)
            # trained error conservation: the picked hypothesis stays under
            # tau - alpha on everything it saw
            assert r.max_train_err is not None
            assert r.max_train_err <= tau - alpha
            assert 0 <= r.er_exact <= 1

    def test_aggregates_recomputable_from_rows(self):
        rep = run_scaling(SMALL_SCALING)
        for entry in rep.aggregates["per_n"]:
            ers = [r.er_exact for r in rep.rows if r.n == entry["n"]]
            assert rational_from_str(entry["median_er"]) == statistics.median(ers)
            assert rational_from_str(entry["mean_er"]) == sum(ers, F(0)) / len(ers)

    def test_margin_violation_rejected(self):
        cfg = ScalingConfig(
            "adversarial-meta", F(1, 50), (8,), 3, 31003, alpha=F(1, 10)
        )
        with pytest.raises(ConfigError, match="margin"):
            run_scaling(cfg)

    def test_gamma_outside_band_rejected(self):
        cfg = ScalingConfig(
            "adversarial-meta", F(1, 50), (4,), 3, 31004,
            alpha=F(1, 100), gamma_coefficient=F(1),
        )
        with pytest.raises(ConfigError, match="gamma"):
            run_scaling(cfg)
        fixed = ScalingConfig(
            "adversarial-meta", F(1, 50), (4,), 3, 31005,
            alpha=F(1, 100), gamma=F(1, 4),
        )
        with pytest.raises(ConfigError):
            run_scaling(fixed)

    def test_fixed_gamma_used_everywhere(self):
        cfg = ScalingConfig(
            "adversarial-meta", F(1, 50), (4, 8), 5, 31006,
            alpha=F(1, 100), gamma=F(1, 20),
        )
        rep = run_scaling(cfg)
        assert all(r.extra["gamma"] == "1/20" for r in rep.rows)

    def test_empirical_mode_runs(self):
        # a wide tau leaves room for the 2*epsilon estimation slack
        cfg = ScalingConfig(
            "uniform-shattered", F(1, 50), (4,), 3, 31007,
            tau=F(1, 2), alpha=F(1, 100), epsilon=F(1, 10),
        )
        rep = run_scaling(cfg)
        assert len(rep.rows) == 3
        for r in rep.rows:
            assert r.max_train_err <= F(1, 2) - F(1, 100)

    def test_empirical_mode_needs_margin_room(self):
        # at the built family's own thresholds the error gaps are thinner
        # than any affordable 2*epsilon, so the precondition must trip
        cfg = ScalingConfig(
            "adversarial-meta", F(1, 50), (8,), 3, 31008,
            alpha=F(1, 100), epsilon=F(1, 100),
        )
        with pytest.raises(ConfigError, match="margin"):
            run_scaling(cfg)


class TestExposure:
    def test_matches_independent_recount(self):
        rng = random.Random(31010)
        for _ in range(30):
            universe = rng.randint(1, 5)
            pcc = random_partial_class(rng, universe, rng.randint(1, 8))
            weights = [rng.randint(0, 5) for _ in range(universe)]
            total = sum(weights) or 1
            weights = [F(w, total) for w in weights]
            if sum(weights) != 1:
                weights[0] += 1 - sum(weights)
            n = rng.randint(1, 6)
            seed = rng.randint(0, 10**6)
            mass, idx, points = exposure_trial(
                pcc, weights, n, random.Random(seed)
            )
            replay = exposure_trial(pcc, weights, n, random.Random(seed))
            assert replay == (mass, idx, points)
            best = F(0)
            best_idx = -1
            for ci, concept in enumerate(pcc.concepts):
                if all(concept[p] == 0 for p in points):
                    one_mass = sum(
                        (weights[u] for u in range(universe) if concept[u] == 1),
                        start=F(0),
                    )
                    if one_mass > best:
                        best, best_idx = one_mass, ci
            assert (mass, idx) == (best, best_idx)

    def test_undefined_is_not_zero(self):
        pcc = PartialConceptClass(2, ((None, 1), (0, 1)))
        weights = (F(1), F(0))
        # point 0 is always drawn; the None concept must not qualify
        mass, idx, points = exposure_trial(pcc, weights, 3, random.Random(5))
        assert points == (0, 0, 0)
        # the total concept qualifies but carries no 1-mass, so no index
        assert (mass, idx) == (F(0), -1)

    def test_zero_one_mass_reports_no_index(self):
        pcc = PartialConceptClass(2, ((0, 0),))
        mass, idx, _ = exposure_trial(pcc, (F(1), F(0)), 2, random.Random(5))
        assert (mass, idx) == (F(0), -1)


class TestUniformConvergence:
    def test_report_structure(self):
        rep = run_uniform_convergence(SMALL_UC)
        assert rep.aggregates["dimension"] == 3
        assert len(rep.rows) == 3 * 30
        for r in rep.rows:
            assert r.max_train_err is None
            assert 0 <= r.er_exact <= 1
            assert (r.hypothesis_index == -1) == (r.er_exact == 0) or r.er_exact == 0
        for block in rep.aggregates["frequencies"]:
            for entry in block["per_n"]:
                count = sum(
                    1 for r in rep.rows
                    if r.n == entry["n"] and float(r.er_exact) > entry["gamma"]
                )
                assert entry["count"] == count
                assert entry["freq"] == count / 30

    def test_calibrated_c_is_first_passing(self):
        rep = run_uniform_convergence(SMALL_UC)
        passing = [b["C"] for b in rep.aggregates["frequencies"] if b["passes"]]
        if passing:
            assert rep.aggregates["calibrated_c"] == passing[0]
        else:
            assert rep.aggregates["calibrated_c"] is None

    def test_frequency_above_delta_fails_the_c(self):
        # at n=1, gamma = log(10/9) and every trial exposes more mass than that
        cfg = UniformConvergenceConfig(F(1, 50), (1,), 4, 7, delta=F(9, 10), c_grid=(1,))
        rep = run_uniform_convergence(cfg)
        (block,) = rep.aggregates["frequencies"]
        (entry,) = block["per_n"]
        assert entry["gamma"] == pytest.approx(math.log(10 / 9))
        assert (entry["n"], entry["count"], entry["freq"]) == (1, 4, 1.0)
        assert block["passes"] is False and rep.aggregates["calibrated_c"] is None
        # with no calibrated C, the series falls back to the first C
        assert rep.series() == [{"x": 1, "y": 1.0}]


class TestLowerBound:
    def test_rows_and_aggregates(self):
        rep = run_lower_bound(SMALL_LB)
        agg = rep.aggregates
        assert agg["d"] == 3
        assert rational_from_str(agg["lambda"]) == F(2, 5)
        tau_prime = rational_from_str(agg["tau_prime"])
        assert tau_prime == F(2, 7) - F(1, 1000)
        exceed = 0
        unseen_total = 0
        unseen_failed = 0
        for r in rep.rows:
            assert set(r.extra["failed_unseen"]) <= set(r.extra["unseen"])
            assert r.extra["exceeds_gamma"] == (r.er_exact > F(1, 20))
            assert r.max_train_err <= F(3, 10) - F(1, 50)
            exceed += r.extra["exceeds_gamma"]
            unseen_total += len(r.extra["unseen"])
            unseen_failed += len(r.extra["failed_unseen"])
        assert agg["exceed_count"] == exceed
        assert agg["exceed_freq"] == exceed / 40
        assert agg["unseen_total"] == unseen_total
        assert agg["unseen_failed"] == unseen_failed

    def test_risk_counts_weighted_failures(self):
        # each failed unseen index carries meta weight 4*gamma/d; seen chosen
        # domains never fail because training errors stay below tau'
        rep = run_lower_bound(SMALL_LB)
        per_domain = 4 * F(1, 20) / 3
        for r in rep.rows:
            assert r.er_exact == per_domain * len(r.extra["failed_unseen"])


class TestDeterminism:
    def test_rerun_is_identical(self):
        a = run_scaling(SMALL_SCALING)
        b = run_scaling(SMALL_SCALING)
        assert a.to_csv_text() == b.to_csv_text()


class TestReportFormats:
    def test_csv_shape(self):
        rep = run_scaling(SMALL_SCALING)
        text = rep.to_csv_text()
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        assert header == [
            "experiment", "n", "trial", "seed", "hypothesis_index",
            "er_exact", "er_float", "max_train_err", "extra",
        ]
        rows = list(reader)
        assert len(rows) == len(rep.rows)
        for raw, row in zip(rows, rep.rows):
            assert raw[0] == "scaling"
            assert int(raw[1]) == row.n
            assert rational_from_str(raw[5]) == row.er_exact
            assert abs(float(raw[6]) - float(row.er_exact)) < 1e-9
            assert json.loads(raw[8]) == row.extra

    def test_float_digits_control(self):
        rep = run_lower_bound(
            LowerBoundConfig(F(1, 50), F(1, 20), 4, 3, 31020)
        )
        wide = rep.to_csv_text(float_digits=12)
        narrow = rep.to_csv_text(float_digits=3)
        assert wide != narrow or all(
            r.er_exact in (0, 1) for r in rep.rows
        )

    def test_series_shapes(self):
        scal = run_scaling(SMALL_SCALING)
        assert [p["x"] for p in scal.series()] == [8, 16, 32]
        uc = run_uniform_convergence(SMALL_UC)
        assert [p["x"] for p in uc.series()] == [4, 8, 16]
        lb = run_lower_bound(SMALL_LB)
        pts = lb.series()
        assert len(pts) == 40
        assert pts[0]["x"] == 0

    def test_uc_series_without_a_calibrated_block(self):
        frequencies = [{"C": 1, "per_n": [{"n": 4, "freq": 0.5}, {"n": 8, "freq": 0.25}]}]
        uc = lambda c: ExperimentReport(
            "uniform-convergence", {}, (), {"calibrated_c": c, "frequencies": frequencies}
        )
        assert uc(2).series() == []
        assert uc(None).series() == [{"x": 4, "y": 0.5}, {"x": 8, "y": 0.25}]

    def test_uc_csv_has_empty_train_column(self):
        rep = run_uniform_convergence(SMALL_UC)
        line = rep.to_csv_text().splitlines()[1]
        assert line.split(",")[7] == ""
