"""The package exports exactly the names its submodules declare public."""

import os
import subprocess
import sys

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


def test_the_library_imports_only_numpy_and_the_standard_library():
    # numpy is the one run-time dependency; scipy, mpmath and hypothesis are
    # for tests and benchmarks only
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import smoothint\n"
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))\n"
    )
    src = os.path.dirname(os.path.dirname(smoothint.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    imported = set(run.stdout.split())
    assert {"smoothint", "numpy"} <= imported
    assert imported - set(sys.stdlib_module_names) - {"numpy", "smoothint"} == set()
