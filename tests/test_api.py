"""The package namespace: every public name is bound once and exported once.

Names bind on first access, so each check below resolves them first, or
reads ``dir``, which lists them before they bind.
"""

import subprocess
import sys
import types

import pytest

import pinnacles


def public_names(names):
    return [
        name
        for name in names
        if not name.startswith("_")
        and not isinstance(getattr(pinnacles, name), types.ModuleType)
    ]


def test_dir_lists_exactly_the_exported_names():
    assert public_names(dir(pinnacles)) == sorted(pinnacles.__all__)


def test_every_name_is_its_home_modules_object():
    for name in pinnacles.__all__:
        value = getattr(pinnacles, name)
        home = sys.modules[value.__module__]
        assert home is getattr(pinnacles, value.__module__.removeprefix("pinnacles."))
        assert value is getattr(home, name), name


def test_all_lists_exactly_the_bound_names():
    for name in pinnacles.__all__:
        getattr(pinnacles, name)
    bound = [
        name
        for name, value in vars(pinnacles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(bound) == pinnacles.__all__
    assert len(pinnacles.__all__) == len(set(pinnacles.__all__)) == 38


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pinnacles.no_such_name


def test_import_loads_no_module_of_the_package():
    # nor numpy or the process pool, which only scans load
    code = ("import sys, pinnacles\n"
            "print(sorted(m for m in sys.modules if m.startswith('pinnacles.')\n"
            "             or m in ('numpy', 'concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from pinnacles import *", namespace)
    assert all(name in namespace for name in pinnacles.__all__)
