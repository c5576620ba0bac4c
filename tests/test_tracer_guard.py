"""The benchmark's tracer (`perfbench/tracer.py`) patches genlab's layer
functions by name. Installing and restoring it here makes a renamed or removed
traced function fail the test suite, not only a traced benchmark run."""
import importlib
import pkgutil
import sys
from pathlib import Path

import genlab
from genlab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = [m.name for m in pkgutil.iter_modules(genlab.__path__)]


def genlab_bindings():
    """Every module-level binding of every genlab module, the attributes of
    every class defined there, and the CLI's experiment table."""
    bound = {}
    for name in MODULES:
        module = importlib.import_module(f"genlab.{name}")
        for attr, value in vars(module).items():
            bound[name, attr] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for key, member in vars(value).items():
                    bound[name, attr, key] = member
    for attr, value in vars(genlab).items():
        bound["genlab", attr] = value
    for key, entry in cli._EXPERIMENTS.items():
        bound["cli._EXPERIMENTS", key] = entry
    return bound


def test_tracer_installs_and_restores_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)
    specs = [s for group in tracer.SPANS.values() for s in group]
    specs += list(tracer.COUNTED.values())
    originals = {spec: tracer._resolve(spec) for spec in specs}  # fails on a missing name
    before = genlab_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        for spec, (owner, attr, original) in originals.items():
            assert owner.__dict__[attr] is not original, f"{spec} was not patched"
    finally:
        t.restore()
    for spec, (owner, attr, original) in originals.items():
        assert owner.__dict__[attr] is original, f"{spec} was not restored"
    after = genlab_bindings()
    assert [k for k, v in before.items() if after.get(k) is not v] == []
