"""The package exports exactly the names its submodules declare public."""

import smoothint
from smoothint import bumps, coefficients, encoder, integral_map, interp, multidim, recovery, tableio

MODULES = [bumps, coefficients, encoder, integral_map, interp, multidim, recovery, tableio]


def test_package_all_is_its_modules_all():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert smoothint.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_package_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(smoothint, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from smoothint import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(smoothint.__all__)
