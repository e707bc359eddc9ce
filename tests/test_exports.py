"""Every public top-level name a module defines, and every public method
and property of its public classes, has a reader outside its unit tests:
code of the package (its own module included) or the acceptance suite."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "systolic"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _referenced(path: Path) -> set[str]:
    """Names read in a file; definitions and import lines do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _public_definitions(path: Path) -> set[str]:
    """Top-level functions, classes and constants without a leading ``_``."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _public_members(path: Path) -> set[tuple[str, str]]:
    """(class, name) of the methods and properties, without a leading ``_``,
    of the top-level classes without one."""
    return {
        (node.name, member.name)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for member in node.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    }


def _referenced_by_package_and_acceptance() -> set[str]:
    return set().union(*(_referenced(path) for path in [*PACKAGE.glob("*.py"), ACCEPTANCE]))


def test_every_export_has_a_caller():
    referenced = _referenced_by_package_and_acceptance()
    unread = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in sorted(_public_definitions(module) - referenced)
    ]
    assert unread == []


def test_every_public_method_has_a_caller():
    referenced = _referenced_by_package_and_acceptance()
    unread = [
        f"{module.stem}.{cls}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for cls, name in sorted(_public_members(module))
        if name not in referenced
    ]
    assert unread == []


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
