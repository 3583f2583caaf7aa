"""The docstring examples of every fpaccel module run and print what they show."""

import doctest
import importlib
import pkgutil

import fpaccel


def test_module_doctests_pass():
    names = ["fpaccel"] + [m.name for m in pkgutil.iter_modules(fpaccel.__path__, "fpaccel.")]
    attempted = {}
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted[name] = result.attempted
    assert attempted["fpaccel.jets"] >= 3, attempted
