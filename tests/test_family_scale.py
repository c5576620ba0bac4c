"""`tools/family_scale.py` at G=40: the structure it draws is the
`family-random` benchmark's, and its JSON line carries that workload's
dimension, set and cover size."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import genlab
from genlab.serialize import family_from_dict, hypothesis_class_from_dict

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "family_scale.py"


spec = importlib.util.spec_from_file_location("family_scale", TOOL)
family_scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(family_scale)


def test_structure_is_the_benchmark_random_instance(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.modules.pop("workloads", None)
    assert family_scale.STRUCTURE_SEED == workloads.RANDOM_STRUCTURE_SEED
    cls_obj, fam_obj = workloads.random_instance(workloads.RANDOM_STRUCTURE_SEED)
    hc, g = family_scale.structure(genlab, 40)
    assert hc == hypothesis_class_from_dict(cls_obj)
    assert g == family_from_dict(fam_obj)


def test_smoke_at_forty_domains():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--domains", "40", "--runs", "1"],
        check=True, capture_output=True, text=True,
    ).stdout
    line = json.loads(out)
    g40 = line["G40"]
    assert line["runs"] == 1 and list(line) == ["runs", "G40"]
    assert (g40["dimension"], g40["shattered"], g40["centers"], g40["valid"]) == (
        4, [0, 2, 6, 24], 39, True
    )
    times = ("matrix_s", "induce_s", "search_s", "greedy_cover_s", "cover_is_valid_s",
             "cover_cmd_s", "load_class_s", "load_family_s", "load_s")
    assert list(g40)[-len(times):] == list(times)
    for key in times:
        assert g40[key] >= 0
    assert abs(g40["load_s"] - g40["load_class_s"] - g40["load_family_s"]) < 2e-5
