"""The package's export list: a name left in __all__ after its code went
would only fail at a star import."""

import ramanvortex


def test_every_exported_name_resolves():
    assert [name for name in ramanvortex.__all__
            if not hasattr(ramanvortex, name)] == []


def test_exported_names_are_unique():
    assert len(set(ramanvortex.__all__)) == len(ramanvortex.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ramanvortex import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ramanvortex.__all__)
