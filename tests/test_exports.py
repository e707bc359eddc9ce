"""Every name the package exports has a reader outside its own unit tests,
and resolves on first use to the object its module defines."""
import ast
import importlib
import types
from pathlib import Path

import systolic

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "systolic"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _referenced(path: Path) -> set[str]:
    """Names read in a file; definitions and import lines do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    readers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    referenced = set().union(*(_referenced(path) for path in [*readers, ACCEPTANCE]))
    assert sorted(set(systolic._EXPORTS) - referenced) == []


def test_every_export_resolves_to_its_module():
    listed = dir(systolic)
    for name, module in systolic._EXPORTS.items():
        value = getattr(systolic, name)
        defining = importlib.import_module(f"systolic.{module}")
        assert value is getattr(defining, name), name
        assert value.__module__ == defining.__name__, name
        assert name in listed


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(systolic, "no_such_export")


def test_homology_is_the_submodule():
    from systolic import homology

    assert isinstance(homology, types.ModuleType)
    assert systolic.homology is homology
    assert callable(homology.homology)
