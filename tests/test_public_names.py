"""The package re-exports only names its submodules declare public."""

import ast
import importlib
from pathlib import Path

import smoothint


def test_package_names_are_in_their_module_all():
    tree = ast.parse(Path(smoothint.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"smoothint.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"smoothint.{node.module}.{alias.name}"
