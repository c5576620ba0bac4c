"""Each reading rule has one owner. `_Config.from_dict` reads a config whole:
the declared experiment, unknown keys, and absent or null defaults. The CLI
only resolves the seed. A config checks its fields' types and ranges however it
is built, in Python or from JSON. Family and meta files share one domain-list
reader."""
import json
import re
from dataclasses import MISSING, fields, replace
from fractions import Fraction as F

import pytest

from genlab import (
    LowerBoundConfig,
    ScalingConfig,
    UniformConvergenceConfig,
    experiments,
    load_family,
    load_meta,
    run_lower_bound,
)
from genlab.cli import main
from genlab.serialize import family_from_dict, meta_from_dict

CONFIGS = [
    ScalingConfig("point-mass", F(1, 50), (2, 4), 3, 5),
    UniformConvergenceConfig(F(1, 50), (4, 8), 3, 5),
    LowerBoundConfig(F(1, 50), F(1, 20), 4, 3, 5),
]
IDS = [cfg.experiment for cfg in CONFIGS]
# the start of each reader's refusal of a null, by field annotation
NULL_REFUSALS = {
    "str": "must be a JSON string, got NoneType",
    "int": "must be a JSON integer, got None",
    "tuple[int, ...]": "must be a JSON list, got NoneType",
    "Fraction": "expected a decimal-free rational like '3/10' or '7', got None",
}
# a float, a bool and a string (an int for a string field) for each field
# annotation, and the refusal each gets from a config built in Python
WRONG_TYPES = {
    "str": ((2.5, True, 7), " must be a JSON string, got {kind}"),
    "int": ((2.5, True, "3"), " must be a JSON integer, got {value!r}"),
    "tuple[int, ...]": (
        (2.5, True, "48"), ": grid must list positive integers, strictly increasing, got {value!r}"),
    "Fraction": ((0.5, True, "1/50"), " must be ints or Fractions, got {value!r}"),
    "Fraction | None": ((0.5, False, "1/50"), " must be ints or Fractions, got {value!r}"),
}
WRONG_TYPE_CASES = [
    (cfg, f.name, value) for cfg in CONFIGS for f in fields(cfg)
    for value in WRONG_TYPES[f.type][0]
]
DOMAIN = {"space": 2, "atoms": [{"x": 0, "y": 0, "mass": "1"}]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
class TestFromDict:
    @pytest.mark.parametrize("declared", ["scaling", "uniform-convergence", "lower-bound", 5])
    def test_mismatched_declared_name_refused(self, cfg, declared):
        obj = {**cfg.to_dict(), "experiment": declared}
        if declared == cfg.experiment:
            assert type(cfg).from_dict(obj) == cfg
            return
        message = f"config declares experiment {declared!r}, command is {cfg.experiment!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            type(cfg).from_dict(obj)

    def test_declared_name_checked_before_unknown_keys(self, cfg):
        other = next(c for c in CONFIGS if c.experiment != cfg.experiment)
        with pytest.raises(ValueError, match="^config declares experiment "):
            type(cfg).from_dict(other.to_dict())

    @pytest.mark.parametrize("declared", ["absent", None])
    def test_absent_or_null_declared_name_accepted(self, cfg, declared):
        obj = cfg.to_dict()
        if declared == "absent":
            del obj["experiment"]
        else:
            obj["experiment"] = declared
        assert type(cfg).from_dict(obj) == cfg

    def test_absent_and_null_optional_keys_take_the_default(self, cfg):
        optional = [f.name for f in fields(cfg) if f.default is not MISSING]
        assert optional
        for name in optional:
            obj = cfg.to_dict()
            del obj[name]
            assert type(cfg).from_dict(obj) == cfg
            assert type(cfg).from_dict({**obj, name: None}) == cfg

    def test_null_required_key_gets_its_readers_refusal(self, cfg):
        required = [f for f in fields(cfg) if f.default is MISSING]
        assert required
        for f in required:
            obj = {**cfg.to_dict(), f.name: None}
            message = f"{cfg.experiment} config {f.name!r} {NULL_REFUSALS[f.type]}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                type(cfg).from_dict(obj)

    def test_missing_required_key_refused(self, cfg):
        for f in fields(cfg):
            if f.default is MISSING:
                obj = cfg.to_dict()
                del obj[f.name]
                message = f"{cfg.experiment} config needs a '{f.name}' field"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    type(cfg).from_dict(obj)


class TestPythonBuilt:
    @pytest.mark.parametrize("cfg, name, value", WRONG_TYPE_CASES, ids=[
        f"{cfg.experiment}-{name}-{type(value).__name__}" for cfg, name, value in WRONG_TYPE_CASES
    ])
    def test_inexact_values_refused(self, cfg, name, value):
        kind = next(f.type for f in fields(cfg) if f.name == name)
        refusal = WRONG_TYPES[kind][1].format(kind=type(value).__name__, value=value)
        message = f"{cfg.experiment} config {name!r}{refusal}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(cfg, **{name: value})

    def test_every_field_annotation_has_a_type_rule(self):
        classes = experiments._Config.__subclasses__()
        assert {cls.experiment for cls in classes} == set(IDS)
        for cls in classes:
            for f in fields(cls):
                assert f.type in experiments._TYPES, (cls.__name__, f.name, f.type)

    @pytest.mark.parametrize("cfg, name, value, message", [
        (CONFIGS[1], "tau", F(3), "tau must lie in [0, 1], got 3"),
        (CONFIGS[2], "tau", F(-1), "tau must lie in [0, 1], got -1"),
        (CONFIGS[2], "trials", 0, "need at least one trial"),
    ], ids=["uniform-convergence-tau", "lower-bound-tau", "lower-bound-trials"])
    def test_each_range_rule_holds_for_every_config(self, cfg, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(cfg, **{name: value})

    def test_report_bytes_do_not_depend_on_how_a_rational_was_passed(self):
        cfg = LowerBoundConfig(F(1, 50), F(1, 20), 4, 3, 5, tau_margin=0)
        copy = LowerBoundConfig.from_dict(cfg.to_dict())
        assert copy == cfg
        assert run_lower_bound(copy).to_json_text() == run_lower_bound(cfg).to_json_text()


class TestExperimentCommand:
    def write(self, tmp_path, **changes):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**CONFIGS[0].to_dict(), **changes}))
        return str(path)

    def test_mismatched_name_line(self, tmp_path, capsys):
        cfg = self.write(tmp_path, experiment="lower-bound")
        code, out, err = run(capsys, "experiment", "scaling", "--config", cfg,
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == "error: config declares experiment 'lower-bound', command is 'scaling'\n"

    def test_bad_seed_reported_before_mismatched_name(self, tmp_path, capsys):
        cfg = self.write(tmp_path, experiment="lower-bound", seed=2.5)
        code, out, err = run(capsys, "experiment", "scaling", "--config", cfg,
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == "error: seed must be a 64-bit unsigned integer, got 2.5\n"

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        code, out, err = run(capsys, "experiment", "lower-bound", "--config", str(path),
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == "error: lower-bound config must be a JSON object, got list\n"


class TestDomainLists:
    def test_empty_meta_refused_before_its_weights(self):
        with pytest.raises(ValueError, match="^meta object lists no domains$"):
            meta_from_dict({"domains": []})

    @pytest.mark.parametrize("read, what", [
        (family_from_dict, "family object"), (meta_from_dict, "meta object"),
    ])
    def test_empty_and_missing_lists_refused(self, read, what):
        with pytest.raises(ValueError, match=f"^{what} lists no domains$"):
            read({"domains": [], "weights": []})
        with pytest.raises(ValueError, match=f"^{what} needs a 'domains' field$"):
            read({"weights": []})

    def test_family_and_meta_files_read_paths_alike(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "d.json").write_text(json.dumps(DOMAIN))
        path = tmp_path / "sub" / "meta.json"
        path.write_text(json.dumps({"domains": ["d.json", DOMAIN], "weights": ["1/2", "1/2"]}))
        meta = load_meta(path)
        assert load_family(path) == meta.family
        assert meta.family.domains[0] == meta.family.domains[1]
