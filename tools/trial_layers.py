"""Time the exact-column trials' min-max layer and commands in process.

The inputs are the `trials-exact` benchmark's (`perfbench/workloads.py`): the
`experiment lower-bound` config (family_alpha 1/2000, seed 80001) and the
adversarial-meta `experiment scaling` config (family_alpha 1/100, seed
70001), both at --threads 2. For each it builds the extended family's
`genlab.core.ErrorMatrix`, fresh for every run, and times the
`ErrorMatrix.minmax` calls one command makes on it (`minmax_s`): per trial,
the meta columns of a seeded bit vector and n draws from them (the bit
vectors and draws are seeded here, not the command's own). It also times the
in-process `genlab experiment` command (`cmd_s`, config and report in a
temporary directory). Each time is the best of N runs (default 3); one JSON
line carries them with each matrix's shape and the number of min-max calls.
It uses only genlab's public API and CLI, and `genlab.core.ErrorMatrix`,
which every checkout with the trials has.

    python3 tools/trial_layers.py [--runs N] [--src DIR]

--src is the directory that holds the genlab package (default: this
checkout's src/).
"""
import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BIT_SEED = 34013
SCALING_EXACT = {
    "generator": "adversarial-meta", "family_alpha": "1/100",
    "n_grid": [8, 16, 32, 64, 128, 256], "alpha": "1/200", "trials": 30, "seed": 70001,
}
LOWER_BOUND = {"family_alpha": "1/2000", "gamma": "1/50", "n": 25, "trials": 30,
               "seed": 80001}


def column_sets(lbf, ns: list[int], trials: int) -> list:
    """Per (n, trial): the meta columns of a seeded bit vector, then n draws
    from them, as the command's two min-max calls read them."""
    rng = random.Random(BIT_SEED)
    sets = []
    for n in ns:
        for _ in range(trials):
            columns = lbf.meta_indices(tuple(rng.randrange(2) for _ in range(lbf.d)))
            sets += [columns, rng.choices(columns, k=n)]
    return sets


def minmax_time(genlab, lbf, sets: list, runs: int) -> float:
    """Least wall seconds over `runs` of every min-max call in `sets` on a
    fresh matrix over the extended family (the build is not timed)."""
    times = []
    for _ in range(runs):
        matrix = genlab.core.ErrorMatrix(lbf.hypothesis_class, lbf.extended_family.domains)
        start = time.perf_counter()
        for columns in sets:
            matrix.minmax(columns)
        times.append(time.perf_counter() - start)
    return min(times)


def command_time(name: str, config: dict, runs: int) -> float:
    """Least wall seconds over `runs` in-process `genlab experiment` commands."""
    from genlab import cli

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "config.json").write_text(json.dumps({"experiment": name, **config}))
        argv = ["experiment", name, "--config", str(work / "config.json"),
                "--out", str(work / "out"), "--threads", "2"]
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"genlab experiment {name} exited non-zero")
            times.append(time.perf_counter() - start)
    return min(times)


def measure(genlab, name: str, config: dict, ns: list[int], runs: int) -> dict:
    lbf = genlab.large_k_lower_bound(Fraction(config["family_alpha"]), genlab.BASE_RATE)
    matrix = genlab.core.ErrorMatrix(lbf.hypothesis_class, lbf.extended_family.domains)
    sets = column_sets(lbf, ns, config["trials"])
    return {
        "rows": matrix.rows,
        "domains": len(matrix.columns),
        "calls": len(sets),
        "minmax_s": round(minmax_time(genlab, lbf, sets, runs), 6),
        "cmd_s": round(command_time(name, config, runs), 6),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import genlab

    print(json.dumps({
        "runs": args.runs,
        "lower-bound": measure(genlab, "lower-bound", LOWER_BOUND, [LOWER_BOUND["n"]], args.runs),
        "scaling": measure(genlab, "scaling", SCALING_EXACT, SCALING_EXACT["n_grid"], args.runs),
    }))


if __name__ == "__main__":
    main()
