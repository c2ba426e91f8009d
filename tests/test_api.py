"""The package namespace: every public name is bound once and exported once."""

import types

import pinnacles


def bound_public_names():
    return {
        name
        for name, value in vars(pinnacles).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }


def test_all_lists_exactly_the_bound_names():
    assert sorted(pinnacles.__all__) == sorted(bound_public_names())


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from pinnacles import *", namespace)
    assert all(name in namespace for name in pinnacles.__all__)
