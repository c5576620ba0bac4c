"""`ExperimentReport.to_json_text` and `to_csv_text` against their references:
the report.json bytes `json.dumps(..., indent=2, sort_keys=True)` and a newline
write for the report's fields, its rows as `_row_dict` lays them out and its
series, and the report.csv a plain `csv.writer` writes row by row. Generated
reports cover every row shape the templates fill. A row holding a value the
templates cannot write exactly is refused when it is built, naming the field.
The three runners are compared through the files the CLI streams, and a row
that cannot be written must leave both files as they were."""
import csv
import dataclasses
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlab
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
from genlab.serialize import rational_to_str

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
    float differs: a row refuses it, as a config does."""

    def __float__(self):
        return 0.5


# One row field each, holding a value the template cannot write exactly (but
# for er_exact=3, which the row stores as its Fraction).
OFF_TYPE = [
    {"n": True}, {"trial": False}, {"seed": 7.0}, {"hypothesis_index": True},
    {"er_exact": 0.25}, {"er_exact": 3}, {"max_train_err": True}, {"max_train_err": 0.75},
    {"max_train_err": "1/3"}, {"er_exact": HalfFloat(1, 3)}, {"experiment": None},
    {"experiment": ["a", 1]}, {"max_train_err": HalfFloat(1, 3)}, {"extra": None},
]


def _row_dict(r: TrialRow) -> dict:
    return {
        "experiment": r.experiment,
        "n": r.n,
        "trial": r.trial,
        "seed": r.seed,
        "hypothesis_index": r.hypothesis_index,
        "er_exact": rational_to_str(r.er_exact),
        "er_float": float(r.er_exact),
        "max_train_err": None if r.max_train_err is None else rational_to_str(r.max_train_err),
        "extra": r.extra,
    }


def reference(report: ExperimentReport) -> str:
    payload = {"experiment": report.experiment, "config": report.config,
               "aggregates": report.aggregates, "rows": [_row_dict(r) for r in report.rows],
               "series": report.series()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def csv_reference(report: ExperimentReport, digits: int = 12) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", "n", "trial", "seed", "hypothesis_index", "er_exact",
                     "er_float", "max_train_err", "extra"])
    for r in report.rows:
        writer.writerow([
            r.experiment, r.n, r.trial, r.seed, r.hypothesis_index, rational_to_str(r.er_exact),
            format(float(r.er_exact), f".{digits}g"),
            "" if r.max_train_err is None else rational_to_str(r.max_train_err),
            json.dumps(r.extra, sort_keys=True, separators=(",", ":")),
        ])
    return buf.getvalue()


def report_of(rows, experiment="lower-bound", config=None, aggregates=None):
    return ExperimentReport(experiment, config or {}, tuple(rows), aggregates or {})


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    experiment=TEXT,
    config=st.dictionaries(TEXT, JSON, max_size=4),
    aggregates=st.dictionaries(TEXT, JSON, max_size=4),
    rows=st.lists(ROW, max_size=6),
)
def test_generated_reports_match_reference(experiment, config, aggregates, rows):
    report = report_of(rows, experiment, config, aggregates)
    assert report.to_json_text() == reference(report)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(rows=st.lists(ROW, max_size=6), digits=st.sampled_from([0, 3, 12, 17]))
def test_generated_csv_matches_reference(rows, digits):
    report = report_of(rows)
    assert report.to_csv_text(digits) == csv_reference(report, digits)


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
    assert report.to_csv_text() == csv_reference(report)


@pytest.mark.parametrize("fields", OFF_TYPE, ids=lambda f: "-".join(f"{k}={v!r}" for k, v in f.items()))
def test_off_type_rows_are_refused(fields):
    """A row holding a value the templates cannot write exactly is refused
    when it is built, with a message naming its field. An int mass is stored
    as its Fraction and written as "p/q"."""
    [(field, value)] = fields.items()
    if type(value) is int:
        report = report_of([row(**fields)])
        assert type(report.rows[0].er_exact) is Fraction
        assert json.loads(report.to_json_text())["rows"][0]["er_exact"] == "3/1"
        assert report.to_csv_text() == csv_reference(report)
        return
    with pytest.raises(ValueError, match=f"^trial row '{field}' must be "):
        row(**fields)


def test_fraction_subclass_row_agrees_across_files():
    """A mass of a Fraction subclass, whose float is not its value's, is
    refused when the row is built; the same value as a plain Fraction gets the
    float of an earlier equal mass in both files."""
    with pytest.raises(ValueError, match="^trial row 'er_exact' must be "):
        row(trial=1, er_exact=HalfFloat(1, 3))
    report = report_of([row(er_exact=F(1, 3)), row(trial=1, er_exact=F(HalfFloat(1, 3)))])
    rows = json.loads(report.to_json_text())["rows"]
    lines = list(csv.reader(io.StringIO(report.to_csv_text())))
    assert [r["er_float"] for r in rows] == [1 / 3, 1 / 3]
    assert [line[6] for line in lines[1:]] == ["0.333333333333"] * 2


def test_one_piece_pair_per_row():
    report = report_of([row(trial=t) for t in range(5)])
    pieces = list(report.chunks())
    assert len(pieces) == len(report.rows) + 2
    assert pieces[-1][1] == ""


SMALL = {
    "scaling": (ScalingConfig, run_scaling, {
        "generator": "adversarial-meta", "family_alpha": "1/100", "gamma": "1/20",
        "n_grid": [8, 16], "trials": 3}),
    "uniform-convergence": (UniformConvergenceConfig, run_uniform_convergence, {
        "family_alpha": "1/100", "n_grid": [16, 64, 256], "trials": 40}),
    "lower-bound": (LowerBoundConfig, run_lower_bound, {
        "family_alpha": "1/100", "gamma": "1/50", "n": 5, "trials": 8}),
}


def run_cli(tmp_path, name, seed=3, digits=None):
    config_cls, runner, config = SMALL[name]
    raw = {"experiment": name, **config, "seed": seed}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    out = tmp_path / "out"
    extra = [] if digits is None else ["--float-digits", str(digits)]
    code = main(["experiment", name, "--config", str(tmp_path / "config.json"),
                 "--out", str(out), *extra])
    return code, out, runner(config_cls.from_dict(raw))


@pytest.mark.parametrize("seed", [3, 104729])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_written_report_matches_reference(tmp_path, capsys, name, seed):
    code, out, report = run_cli(tmp_path, name, seed)
    capsys.readouterr()
    assert code == 0
    written = (out / "report.json").read_bytes()
    assert written == reference(report).encode("utf-8")
    payload = json.loads(written)
    del payload["series"]
    assert report.to_json_dict() == payload


@pytest.mark.parametrize("digits", [None, 3])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_streamed_files_match_the_texts(tmp_path, capsys, name, digits):
    code, out, report = run_cli(tmp_path, name, digits=digits)
    capsys.readouterr()
    assert code == 0
    assert (out / "report.json").read_bytes() == report.to_json_text().encode("utf-8")
    assert (out / "report.csv").read_bytes() == report.to_csv_text(
        12 if digits is None else digits).encode("utf-8")


@pytest.mark.parametrize("bad", [{"extra": {"s": {1}}}], ids=["template-row"])
def test_row_that_cannot_be_written_leaves_both_reports(tmp_path, capsys, monkeypatch, bad):
    """A row that raises partway through the pass replaces neither report and
    leaves no staged file behind."""
    code, out, _ = run_cli(tmp_path, "lower-bound")
    capsys.readouterr()
    assert code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    good = run_lower_bound(LowerBoundConfig.from_dict(
        {**SMALL["lower-bound"][2], "seed": 104729}))
    rows = good.rows[:4] + (dataclasses.replace(good.rows[4], **bad),) + good.rows[5:]
    monkeypatch.setattr(genlab.experiments, "run_lower_bound",
                        lambda cfg: dataclasses.replace(good, rows=rows))
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        run_cli(tmp_path, "lower-bound", seed=104729)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
