"""`tools/srclines.py`: per-module line counts now and at a git revision."""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "srclines.py"
spec = importlib.util.spec_from_file_location("srclines", TOOL)
srclines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(srclines)


def run(*args):
    done = subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, check=True
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_counts_like_wc_l():
    out = run()
    modules = sorted((ROOT / "src" / "genlab").glob("*.py"))
    assert out["lines"] == {p.name: p.read_bytes().count(b"\n") for p in modules}
    assert out["total"] == sum(out["lines"].values())
    assert "ref" not in out


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and this checkout's .git",
)
def test_deltas_against_head():
    out = run("--ref", "HEAD")
    assert out["ref"] == "HEAD"
    assert out["ref_total"] == sum(out["ref_lines"].values())
    names = out["lines"].keys() | out["ref_lines"].keys()
    assert out["delta"] == {
        n: out["lines"].get(n, 0) - out["ref_lines"].get(n, 0) for n in sorted(names)
    }
    assert out["total_delta"] == out["total"] - out["ref_total"]
    committed = subprocess.run(
        ["git", "show", "HEAD:src/genlab/core.py"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    assert out["ref_lines"]["core.py"] == committed.count(b"\n")


def test_a_module_on_one_side_counts_zero_on_the_other(monkeypatch):
    monkeypatch.setattr(srclines, "counts_now", lambda: {"a.py": 5, "b.py": 2})
    monkeypatch.setattr(srclines, "counts_at", lambda rev: {"b.py": 3, "c.py": 4})
    out = srclines.report("R")
    assert out["delta"] == {"a.py": 5, "b.py": -1, "c.py": -4}
    assert (out["total"], out["ref_total"], out["total_delta"]) == (7, 7, 0)
