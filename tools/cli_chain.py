"""Time the CLI chain construct product -> gdim -> verify-cert -> cover.

Each command runs as its own `python3 -m genlab` process, as a user would run
it, so the times include interpreter start-up and genlab's imports. The chain
runs N times (default 10) in a temporary directory; one JSON line reports the
median wall seconds of each command and of a bare `python3 -c pass`.

    python3 tools/cli_chain.py [--runs N] [--src DIR]

--src is the directory that holds the genlab package (default: this
checkout's src/).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
QUERY = ["--tau", "3/10", "--alpha", "1/50"]


def chain(work: Path) -> list[tuple[str, list[str]]]:
    inputs = ["--class", str(work / "class.json"), "--domains", str(work / "family.json")]
    cert = str(work / "cert.json")
    return [
        ("python", ["-c", "pass"]),
        ("construct", ["-m", "genlab", "construct", "product", "--alpha", "1/50",
                       "--d", "3", "--out-dir", str(work)]),
        ("gdim", ["-m", "genlab", "gdim", *inputs, *QUERY, "--cert-out", cert]),
        ("verify-cert", ["-m", "genlab", "verify-cert", *inputs, "--cert", cert, *QUERY]),
        ("cover", ["-m", "genlab", "cover", *inputs, "--radius", "1/100", "--tau", "3/10"]),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    times: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.runs):
            for name, argv in chain(Path(tmp)):
                start = time.perf_counter()
                subprocess.run([sys.executable, *argv], env=env, check=True,
                               stdout=subprocess.DEVNULL)
                times.setdefault(name, []).append(time.perf_counter() - start)
    medians = {f"{name}_s": round(statistics.median(t), 4) for name, t in times.items()}
    print(json.dumps({"runs": args.runs, **medians}))


if __name__ == "__main__":
    main()
