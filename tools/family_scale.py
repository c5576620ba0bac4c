"""Time the family chain's layers in process as the random family grows.

The class and family are the benchmark's random structure
(`perfbench/workloads.random_instance`: 64 distinct labelings of 8 points,
domains of at most 4 atoms with integer weights, structure seed 60013),
drawn in the same order but with G domains instead of 40; at G=40 they are
that workload's inputs before relabeling. The query is the `family-random`
workload's: tau 3/10, alpha 1/20, cover radius 1/40 at tau 3/10. For each G
(default 40, 150 and 400) it times the `genlab.core.ErrorMatrix` build over
the family (`matrix_s`), `induce_partial_class`, `partial_vc_dim`,
`greedy_cover`, `cover_is_valid`, the in-process `genlab cover` command
(`cover_cmd_s`, on class and family files written to a temporary directory
with the public writers), `load_hypothesis_class` and `load_family` on those
files (`load_class_s`, `load_family_s`, and their sum `load_s`), best of N
runs (default 3), and prints one JSON line
with the times, the dimension, the shattered set and the number of cover
centers. It uses only genlab's public API and CLI, and
`genlab.core.ErrorMatrix`, which every checkout with the family chain has.

    python3 tools/family_scale.py [--domains G ...] [--runs N] [--src DIR]

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
SPACE, CLASS, ATOMS, STRUCTURE_SEED = 8, 64, 4, 60013


def structure(genlab, domains: int):
    """The class and a family of `domains` domains, drawn as
    `perfbench/workloads.random_instance` draws them."""
    rng = random.Random(STRUCTURE_SEED)
    codes = rng.sample(range(1 << SPACE), CLASS)
    hc = genlab.HypothesisClass(SPACE, tuple(
        genlab.Hypothesis(tuple(c >> x & 1 for x in range(SPACE))) for c in codes
    ))
    family = []
    for _ in range(domains):
        xs = rng.sample(range(SPACE), rng.randint(1, ATOMS))
        weights = [rng.randint(1, 9) for _ in xs]
        total = sum(weights)
        family.append(genlab.LabeledDistribution(SPACE, tuple(
            genlab.Atom(x, rng.randint(0, 1), Fraction(w, total))
            for x, w in zip(xs, weights)
        )))
    return hc, genlab.DomainFamily(SPACE, tuple(family))


def best_of(runs: int, call):
    """(result of the last call, least wall seconds over `runs` calls)."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return result, min(times)


def cover_command(genlab, hc, g, runs: int) -> tuple[float, float, float]:
    """Least wall seconds over `runs` in-process `genlab cover` commands on
    the class and family, written first to a temporary directory, and least
    wall seconds over `runs` loads of the class file and of the family file."""
    from genlab import cli

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        genlab.write_hypothesis_class(work / "class.json", hc)
        genlab.write_json_atomic(work / "family.json", genlab.family_to_dict(g))
        argv = ["cover", "--class", str(work / "class.json"),
                "--domains", str(work / "family.json"), "--radius", "1/40",
                "--tau", "3/10", "--out", str(work / "cover.json")]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"genlab cover exited non-zero on {len(g)} domains")

        return (best_of(runs, call)[1],
                best_of(runs, lambda: genlab.load_hypothesis_class(work / "class.json"))[1],
                best_of(runs, lambda: genlab.load_family(work / "family.json"))[1])


def measure(genlab, domains: int, runs: int) -> dict:
    hc, g = structure(genlab, domains)
    q = genlab.DimensionQuery(Fraction(3, 10), Fraction(1, 20))
    dq = genlab.DivergenceQuery(Fraction(3, 10))
    _, matrix_s = best_of(runs, lambda: genlab.core.ErrorMatrix(hc, g.domains))
    pcc, induce_s = best_of(runs, lambda: genlab.induce_partial_class(hc, g, q))
    vc, search_s = best_of(runs, lambda: genlab.partial_vc_dim(pcc))
    cover, cover_s = best_of(runs, lambda: genlab.greedy_cover(g, hc, Fraction(1, 40), dq))
    valid, valid_s = best_of(runs, lambda: genlab.cover_is_valid(cover, g, hc))
    cover_cmd_s, load_class_s, load_family_s = cover_command(genlab, hc, g, runs)
    return {
        "columns": len(set(zip(*pcc.concepts))),
        "dimension": vc.dimension,
        "shattered": list(vc.shattered),
        "centers": len(cover.center_indices),
        "valid": valid,
        "matrix_s": round(matrix_s, 5),
        "induce_s": round(induce_s, 5),
        "search_s": round(search_s, 5),
        "greedy_cover_s": round(cover_s, 5),
        "cover_is_valid_s": round(valid_s, 5),
        "cover_cmd_s": round(cover_cmd_s, 5),
        "load_class_s": round(load_class_s, 5),
        "load_family_s": round(load_family_s, 5),
        "load_s": round(load_class_s + load_family_s, 5),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domains", type=int, nargs="+", default=[40, 150, 400])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import genlab

    result = {f"G{n}": measure(genlab, n, args.runs) for n in args.domains}
    print(json.dumps({"runs": args.runs, **result}))


if __name__ == "__main__":
    main()
