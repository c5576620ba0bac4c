"""The package's export list: each name resolves, none repeats, and a star
import binds exactly those names."""
import genlab


def test_all_names_resolve_once():
    assert len(set(genlab.__all__)) == len(genlab.__all__)
    assert [name for name in genlab.__all__ if not hasattr(genlab, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from genlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(genlab.__all__)
