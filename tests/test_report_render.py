"""`ExperimentReport.to_json_text` against its reference: the report.json bytes
`json.dumps(to_json_dict() + series, indent=2, sort_keys=True)` and a newline
write. Generated reports cover every row shape the template fills, and rows
holding values the template cannot write exactly (which take `json.dumps`);
the three runners are compared through the files the CLI writes."""
import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlab import (
    ExperimentReport,
    LowerBoundConfig,
    ScalingConfig,
    TrialRow,
    UniformConvergenceConfig,
    run_lower_bound,
    run_scaling,
    run_uniform_convergence,
)
from genlab.cli import main

F = Fraction

# Text with the characters JSON must escape, and some it must not.
TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00é€😀 '), max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
           | st.floats(allow_nan=False) | TEXT)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
MASS = st.fractions(min_value=-1, max_value=1, max_denominator=10**9)
ROW = st.builds(
    TrialRow,
    experiment=TEXT | st.sampled_from(["scaling", "lower-bound"]),
    n=st.integers(1, 10**4),
    trial=st.integers(0, 10**4),
    seed=st.integers(0, 2**64 - 1),
    hypothesis_index=st.integers(-1, 10**6),
    er_exact=MASS,
    max_train_err=st.none() | MASS,
    extra=st.dictionaries(TEXT, JSON, max_size=3),
)



class HalfFloat(Fraction):
    """A Fraction subclass equal (and hash-equal) to the plain Fraction, whose
    float differs: a cache keyed by value would hand it the plain one's."""

    def __float__(self):
        return 0.5


# One row field each, holding a value the template cannot write exactly.
OFF_TYPE = [
    {"n": True}, {"trial": False}, {"seed": 7.0}, {"hypothesis_index": True},
    {"er_exact": 0.25}, {"er_exact": 3}, {"max_train_err": True}, {"max_train_err": 0.75},
    {"max_train_err": "1/3"}, {"er_exact": HalfFloat(1, 3)}, {"experiment": None},
    {"experiment": ["a", 1]},
]
OFF_ROW = st.builds(lambda r, f: dataclasses.replace(r, **f), ROW, st.sampled_from(OFF_TYPE))


def reference(report: ExperimentReport) -> str:
    payload = report.to_json_dict()
    payload["series"] = report.series()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_of(rows, experiment="lower-bound", config=None, aggregates=None):
    return ExperimentReport(experiment, config or {}, tuple(rows), aggregates or {})


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    experiment=TEXT,
    config=st.dictionaries(TEXT, JSON, max_size=4),
    aggregates=st.dictionaries(TEXT, JSON, max_size=4),
    rows=st.lists(ROW | OFF_ROW, max_size=6),
)
def test_generated_reports_match_reference(experiment, config, aggregates, rows):
    report = report_of(rows, experiment, config, aggregates)
    assert report.to_json_text() == reference(report)


def row(**fields):
    base = dict(experiment="lower-bound", n=5, trial=0, seed=2**64 - 1, hypothesis_index=-1,
                er_exact=F(1, 3), max_train_err=None, extra={})
    return TrialRow(**{**base, **fields})


LOWER_BOUND_EXTRA = {"b": "0110", "unseen": [0, 3], "failed_unseen": [], "exceeds_gamma": True,
                     "tau_star": "7/90"}


@pytest.mark.parametrize("rows", [
    [],
    [row()],
    [row(extra={"k": True}), row(extra={"k": 1}), row(extra={"k": 1.0}), row(extra={"k": True})],
    [row(extra={"outer": {"inner": [1, {"deep": None}], "é\"\\": "ü"}}), row(extra={})],
    [row(extra=LOWER_BOUND_EXTRA, max_train_err=F(2, 7)), row(extra=LOWER_BOUND_EXTRA, trial=1)],
    [row(experiment='q"\\é', extra={'k"\\ü': 'v"\\'})],
], ids=["no-rows", "one-row", "true-1-1.0", "nested-and-empty", "lower-bound-shape", "escapes"])
def test_row_shapes_match_reference(rows):
    report = report_of(rows, config={'c"\\é': ["ü", 1], "seed": 2**64 - 1})
    assert report.to_json_text() == reference(report)


@pytest.mark.parametrize("fields", OFF_TYPE, ids=lambda f: "-".join(f"{k}={v!r}" for k, v in f.items()))
def test_off_type_rows_take_json_dumps(fields):
    """Each row the template cannot write exactly is written as json.dumps
    writes it, between rows that fill the template."""
    report = report_of([row(er_exact=F(1, 3)), row(**{"trial": 1, **fields}), row(trial=2)])
    assert report.to_json_text() == reference(report)


SMALL = {
    "scaling": (ScalingConfig, run_scaling, {
        "generator": "adversarial-meta", "family_alpha": "1/100", "gamma": "1/20",
        "n_grid": [8, 16], "trials": 3}),
    "uniform-convergence": (UniformConvergenceConfig, run_uniform_convergence, {
        "family_alpha": "1/100", "n_grid": [16, 64, 256], "trials": 40}),
    "lower-bound": (LowerBoundConfig, run_lower_bound, {
        "family_alpha": "1/100", "gamma": "1/50", "n": 5, "trials": 8}),
}


@pytest.mark.parametrize("seed", [3, 104729])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_written_report_matches_reference(tmp_path, capsys, name, seed):
    config_cls, runner, config = SMALL[name]
    raw = {"experiment": name, **config, "seed": seed}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["experiment", name, "--config", str(tmp_path / "config.json"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    expected = reference(runner(config_cls.from_dict(raw)))
    assert (out / "report.json").read_bytes() == expected.encode("utf-8")
