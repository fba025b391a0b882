"""The package root's export list."""

import trunca


def test_every_exported_name_resolves():
    assert len(set(trunca.__all__)) == len(trunca.__all__)
    for name in trunca.__all__:
        assert hasattr(trunca, name), name


def test_star_import_is_clean():
    namespace = {}
    exec("from trunca import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(trunca.__all__)
