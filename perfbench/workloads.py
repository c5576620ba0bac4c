"""The benchmark's four workloads: their inputs, command chains and checks.

Each workload writes its input files in set-up and then issues CLI commands
one after another through `genlab.cli.main`. A command has a role: `primary`
and `secondary` commands feed the gated metrics of the same names, `check`
commands (verify-cert) run and are checked but are timed only as part of the
whole pass.

Seeds: without `--seed` every workload uses its default seeds (the acceptance
seeds of the matching criteria for the experiments); with `--seed N` the
experiments run at seed N. The family workloads relabel the instance points of
a fixed class and family by a permutation drawn from the seed. That is an
isomorphism: the dimension, certificate, cover and the work done are the same
on every seed, and only the bytes the program reads change. The random family
comes from a fixed structure seed because the cost of the shattering search
depends strongly on the structure and on the hypothesis order; drawing either
from the seed would make runs on different seeds measure different work.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

# Seeds for confirming a later claim on inputs not used while writing it.
ALTERNATE_SEEDS = (104729, 130363, 155921, 181081, 206699)

# Workloads whose output bytes are the same on every seed (see above).
SEED_INVARIANT = frozenset({"family-product", "family-random"})


@dataclass(frozen=True)
class Step:
    """One CLI command of a pass."""

    name: str
    role: str  # "primary", "secondary" or "check"
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files whose sha256 is checked
    expect: str  # regex the printed line must match
    threads: int = 1


def _write_json(path: Path, obj: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _experiment(name: str, role: str, work: Path, config: dict[str, Any],
                threads: int) -> Step:
    cfg_path = work / f"{name}.json"
    _write_json(cfg_path, {"experiment": name, **config})
    out = work / f"out-{name}"
    return Step(
        name, role,
        ("experiment", name, "--config", str(cfg_path), "--out", str(out),
         "--threads", str(threads)),
        (str(out / "report.csv"), str(out / "report.json")),
        rf"{name}: .* trials={config['trials']} seed={config['seed']} ",
        threads,
    )


# Criterion 07 and 08 configs with fewer trials, so one pass takes seconds.
SCALING_EXACT = {
    "generator": "adversarial-meta", "family_alpha": "1/100",
    "n_grid": [8, 16, 32, 64, 128, 256], "alpha": "1/200", "trials": 30,
}
LOWER_BOUND = {"family_alpha": "1/2000", "gamma": "1/50", "n": 25, "trials": 30}


def setup_trials_exact(cli: Any, work: Path, seed: int | None) -> list[Step]:
    return [
        _experiment("scaling", "primary", work,
                    {**SCALING_EXACT, "seed": 70001 if seed is None else seed}, 2),
        _experiment("lower-bound", "secondary", work,
                    {**LOWER_BOUND, "seed": 80001 if seed is None else seed}, 2),
    ]


# Empirical-mode scaling (about 360-460 points per drawn domain) and the
# criterion 09 config, both with fewer trials.
SCALING_SAMPLED = {
    "generator": "uniform-shattered", "family_alpha": "1/50", "tau": "1/2",
    "alpha": "1/100", "epsilon": "1/10", "n_grid": [8, 16, 32, 64], "trials": 4,
}
UNIFORM_CONVERGENCE = {
    "family_alpha": "1/100", "n_grid": [16, 32, 64, 128, 256],
    "c_grid": [1, 2, 4, 8], "trials": 200,
}


def setup_trials_sampled(cli: Any, work: Path, seed: int | None) -> list[Step]:
    return [
        _experiment("scaling", "primary", work,
                    {**SCALING_SAMPLED, "seed": 31007 if seed is None else seed}, 1),
        _experiment("uniform-convergence", "secondary", work,
                    {**UNIFORM_CONVERGENCE, "seed": 90001 if seed is None else seed}, 1),
    ]


def relabel(cls_obj: dict[str, Any], fam_obj: dict[str, Any], seed: int) -> None:
    """Permute the instance points of a class and family in place, by a
    permutation drawn from the seed. Every error value, and so every answer,
    is unchanged, and the search does the same work in the same order."""
    perm = list(range(int(cls_obj["space"])))
    random.Random(seed).shuffle(perm)
    cls_obj["hypotheses"] = [
        [labels[perm.index(x)] for x in range(len(perm))] for labels in cls_obj["hypotheses"]
    ]
    for dom in fam_obj["domains"]:
        for atom in dom["atoms"]:
            atom["x"] = perm[atom["x"]]


def _family_chain(work: Path, tau: str, alpha: str, radius: str) -> list[Step]:
    cls_path, fam_path = str(work / "class.json"), str(work / "family.json")
    cert, cover = str(work / "cert.json"), str(work / "cover.json")
    inputs = ("--class", cls_path, "--domains", fam_path)
    return [
        Step("gdim", "primary",
             ("gdim", *inputs, "--tau", tau, "--alpha", alpha, "--cert-out", cert),
             (cert,), r"gdim=(?P<dimension>\d+) exact=true certificate="),
        Step("verify-cert", "check",
             ("verify-cert", *inputs, "--cert", cert, "--tau", tau, "--alpha", alpha),
             (), r"certificate valid: \d+ domains shattered"),
        Step("cover", "secondary",
             ("cover", *inputs, "--radius", radius, "--tau", tau, "--out", cover),
             (cover,), r"centers=(?P<centers>\d+) radius=\S+ valid=true out="),
    ]


PRODUCT_ALPHA, PRODUCT_D = "1/50", 3
PRODUCT_DEFAULT_SEED = 50003


def setup_family_product(cli: Any, work: Path, seed: int | None) -> list[Step]:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["construct", "product", "--alpha", PRODUCT_ALPHA,
                         "--d", str(PRODUCT_D), "--out-dir", str(work)])
    if code != 0:
        raise RuntimeError(f"construct product exited {code}: {printed.getvalue()}")
    cls_obj = json.loads((work / "class.json").read_text(encoding="utf-8"))
    fam_obj = json.loads((work / "family.json").read_text(encoding="utf-8"))
    relabel(cls_obj, fam_obj, PRODUCT_DEFAULT_SEED if seed is None else seed)
    _write_json(work / "class.json", cls_obj)
    _write_json(work / "family.json", fam_obj)
    return _family_chain(work, "3/10", PRODUCT_ALPHA, "1/100")


RANDOM_SPACE, RANDOM_CLASS, RANDOM_DOMAINS, RANDOM_ATOMS = 8, 64, 40, 4
RANDOM_STRUCTURE_SEED = 60013
RANDOM_DEFAULT_SEED = 60017


def random_instance(structure_seed: int) -> tuple[dict[str, Any], dict[str, Any]]:
    """64 distinct labelings of 8 points and 40 domains of at most 4 atoms
    with integer weights, as class and family JSON objects."""
    rng = random.Random(structure_seed)
    codes = rng.sample(range(1 << RANDOM_SPACE), RANDOM_CLASS)
    cls_obj = {
        "space": RANDOM_SPACE,
        "hypotheses": [[c >> x & 1 for x in range(RANDOM_SPACE)] for c in codes],
    }
    domains = []
    for _ in range(RANDOM_DOMAINS):
        xs = rng.sample(range(RANDOM_SPACE), rng.randint(1, RANDOM_ATOMS))
        weights = [rng.randint(1, 9) for _ in xs]
        total = sum(weights)
        domains.append({"space": RANDOM_SPACE, "atoms": [
            {"x": x, "y": rng.randint(0, 1), "mass": f"{w}/{total}"}
            for x, w in zip(xs, weights)
        ]})
    return cls_obj, {"domains": domains}


def setup_family_random(cli: Any, work: Path, seed: int | None) -> list[Step]:
    cls_obj, fam_obj = random_instance(RANDOM_STRUCTURE_SEED)
    relabel(cls_obj, fam_obj, RANDOM_DEFAULT_SEED if seed is None else seed)
    _write_json(work / "class.json", cls_obj)
    _write_json(work / "family.json", fam_obj)
    return _family_chain(work, "3/10", "1/20", "1/40")


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    "trials-exact": setup_trials_exact,
    "trials-sampled": setup_trials_sampled,
    "family-product": setup_family_product,
    "family-random": setup_family_random,
}
