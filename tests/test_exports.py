"""The package's export list: each name resolves, none repeats, and a star
import binds exactly those names. The names resolve lazily: `import genlab`
loads no submodule, and each name is its defining module's object."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genlab


def test_all_names_resolve_once():
    assert len(set(genlab.__all__)) == len(genlab.__all__)
    assert [name for name in genlab.__all__ if not hasattr(genlab, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from genlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(genlab.__all__)


def test_each_name_is_its_modules_attribute():
    for name in genlab.__all__:
        module = importlib.import_module(f"genlab.{genlab._EXPORTS[name]}")
        assert getattr(genlab, name) is getattr(module, name), name


def test_import_loads_no_submodule():
    src = str(Path(genlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, genlab; print([m for m in sys.modules if m.startswith('genlab.')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_dir_lists_every_export():
    assert set(genlab.__all__) <= set(dir(genlab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        genlab.no_such_name


def test_submodule_import_still_works():
    from genlab import core
    assert core is sys.modules["genlab.core"]
