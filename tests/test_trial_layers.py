"""`tools/trial_layers.py`: its configs are the `trials-exact` benchmark's,
and one run prints the matrices' shapes, the min-max call counts and
non-negative times."""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "trial_layers.py"


spec = importlib.util.spec_from_file_location("trial_layers", TOOL)
trial_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trial_layers)


def test_configs_are_the_trials_exact_workload(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.modules.pop("workloads", None)
    steps = {s.name: s for s in workloads.setup_trials_exact(None, tmp_path, None)}
    for name, config in (("scaling", trial_layers.SCALING_EXACT),
                         ("lower-bound", trial_layers.LOWER_BOUND)):
        assert steps[name].argv[-2:] == ("--threads", "2")
        assert steps[name].expect.endswith(
            f"trials={config['trials']} seed={config['seed']} ")
    assert trial_layers.SCALING_EXACT == {**workloads.SCALING_EXACT, "seed": 70001}
    assert trial_layers.LOWER_BOUND == {**workloads.LOWER_BOUND, "seed": 80001}


def test_smoke_one_run():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--runs", "1"],
        check=True, capture_output=True, text=True,
    ).stdout
    line = json.loads(out)
    assert list(line) == ["runs", "lower-bound", "scaling"] and line["runs"] == 1
    assert {k: line["lower-bound"][k] for k in ("rows", "domains", "calls")} == {
        "rows": 256, "domains": 17, "calls": 60}
    assert {k: line["scaling"][k] for k in ("rows", "domains", "calls")} == {
        "rows": 16, "domains": 9, "calls": 360}
    for name in ("lower-bound", "scaling"):
        assert line[name]["minmax_s"] >= 0 and line[name]["cmd_s"] > 0
