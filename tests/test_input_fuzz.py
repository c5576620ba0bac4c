"""Seeded fuzz of the CLI's file inputs.

Each mutant of a valid class, family, domain, meta, certificate or experiment
config must either run (exit 0, or 1 for an invalid certificate) or be refused
with exit 2 and exactly one `error:` line; none may raise. One more mutant per
kind nests lists deeper than `json.load` can recurse.
"""
import copy
import json
import random

import pytest

from genlab.cli import main

SEED = 61001
MUTANTS = 30  # per file kind
SWAPS = (None, True, False, 0.5, 2.0, "3", "1/0", [], {}, [[0]])
SIZE_KEYS = ("trials", "n", "n_grid")
DELETED = "<deleted>"
DEEP = "[" * 200000

CONFIGS = {
    "scaling": {
        "experiment": "scaling", "generator": "point-mass", "family_alpha": "1/50",
        "n_grid": [2, 4], "trials": 2, "seed": 7, "alpha": "1/100", "delta": "1/10",
    },
    "uniform-convergence": {
        "experiment": "uniform-convergence", "family_alpha": "1/50", "n_grid": [4],
        "trials": 3, "seed": 42, "tau": "3/10", "c_grid": [1, 2],
    },
    "lower-bound": {
        "experiment": "lower-bound", "family_alpha": "1/50", "gamma": "1/20", "n": 4,
        "trials": 2, "seed": 43, "tau_margin": "1/1000",
    },
}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["construct", "large-k", "--alpha", "1/50", "--out-dir", str(root)]) == 0
    assert main([
        "construct", "adversarial", "--alpha", "1/50", "--gamma", "1/20", "--b", "000",
        "--out-dir", str(root / "adv"),
    ]) == 0
    # one atom of mass 1: a mass that loads as 1 by mistake still sums to 1
    (root / "point_mass.json").write_text(json.dumps(
        {"space": 10, "atoms": [{"x": 0, "y": 1, "mass": "1"}]}
    ))
    return root


def _cases(root, mutant):
    """Per file kind: the valid file and the argv that reads a mutant of it."""
    cls, fam = str(root / "class.json"), str(root / "family.json")
    query = ("--tau", "3/10", "--alpha", "1/50")
    cases = {
        "class": (root / "class.json", ["gdim", "--class", mutant, "--domains", fam, *query]),
        "family": (root / "family.json", ["gdim", "--class", cls, "--domains", mutant, *query]),
        "domain": (root / "point_mass.json", [
            "divergence", "--class", cls, "--d1", mutant, "--d2", str(root / "domain_2.json"),
        ]),
        "meta": (root / "adv" / "meta.json", [
            "learn", "--class", str(root / "adv" / "class.json"), "--meta", mutant,
            "--n", "2", "--m", "2", "--seed", "1",
        ]),
        "certificate": (root / "certificate.json", [
            "verify-cert", "--class", cls, "--domains", fam, "--cert", mutant, *query,
        ]),
    }
    for name in CONFIGS:
        cases[name] = (None, [
            "experiment", name, "--config", mutant, "--out", str(root / "out" / name),
        ])
    return cases


def _nodes(doc, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if type(doc) is list else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def mutate(doc, rng):
    """(mutant, path, value): a copy of `doc` with the value at `path` swapped
    for a wrong-typed `value`, or its key deleted (`value` is DELETED); the
    empty path replaces the root."""
    mutant = copy.deepcopy(doc)
    value = copy.deepcopy(rng.choice(SWAPS))
    paths = list(_nodes(mutant))[1:]
    if rng.random() < 0.1:
        return value, (), value
    path = rng.choice(paths)
    parent = mutant
    for step in path[:-1]:
        parent = parent[step]
    if isinstance(parent, dict) and rng.random() < 0.25:
        del parent[path[-1]]
        value = DELETED
    else:
        parent[path[-1]] = value
    return mutant, path, value


def _sizes(doc):
    """The numbers a document puts in its size fields."""
    if not isinstance(doc, dict):
        return []
    values = []
    for key in SIZE_KEYS:
        value = doc.get(key)
        values += value if isinstance(value, list) else [value]
    return [v for v in values if isinstance(v, (int, float))]


@pytest.mark.parametrize("kind", [
    "class", "family", "domain", "meta", "certificate", *CONFIGS,
])
def test_mutants_run_or_are_refused(built, tmp_path, capsys, kind):
    mutant_path = tmp_path / "mutant.json"
    source, argv = _cases(built, str(mutant_path))[kind]
    valid = CONFIGS[kind] if source is None else json.loads(source.read_text())
    rng = random.Random(f"{SEED}:{kind}")
    for i in range(MUTANTS):
        mutant, path, value = mutate(valid, rng)
        assert max(_sizes(mutant), default=0) <= max(_sizes(valid), default=0)
        mutant_path.write_text(json.dumps(mutant))
        code = main(argv)
        err = capsys.readouterr().err
        context = (kind, i, path, value, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, context
            continue
        assert code in ((0, 1) if kind == "certificate" else (0,)), context
        # Only a config may still run: with a top-level key dropped or null,
        # which takes its default, or a numeric string where a rational goes.
        assert source is None and len(path) == 1 and value in (DELETED, None, "3"), context
    mutant_path.write_text(DEEP)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {mutant_path}: JSON nested too deeply\n"
