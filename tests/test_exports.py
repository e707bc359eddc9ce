"""Every name the package exports has a reader outside its own unit tests."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "systolic"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


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
    assert sorted(_exported() - referenced) == []
