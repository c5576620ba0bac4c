"""Regenerate pins.json: output hashes and answers at the default seeds.

    python3 perfbench/pin.py

Runs each workload's chain once with one thread and records the sha256 of
every output file plus the printed dimension and cover size. Run it only when
a change is meant to alter output bytes; the benchmark fails any run whose
outputs differ from these pins.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

from run import HERE, ROOT, SRC, fresh_cli, sha256
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    pins = {}
    work = ROOT / ".perfbench-work" / "pin"
    try:
        for name, setup in WORKLOADS.items():
            cli = fresh_cli()
            steps = setup(cli, work / name, None)
            entry: dict = {"sha256": {}}
            for step in steps:
                argv = list(step.argv)
                if "--threads" in argv:
                    argv[argv.index("--threads") + 1] = "1"
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                found = re.search(step.expect, out.getvalue())
                if code != 0 or found is None:
                    raise SystemExit(f"{name} {step.name} failed: {out.getvalue()!r}")
                entry.update({k: int(v) for k, v in found.groupdict().items()})
                if step.outputs:
                    entry["sha256"][step.name] = {Path(p).name: sha256(p) for p in step.outputs}
            pins[name] = entry
            print(name, json.dumps(entry))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
