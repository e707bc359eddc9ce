"""Every public top-level name a module defines has a reader outside its
unit tests: code of the package (its own module included) or the acceptance
suite.  Every public method and property of its public classes runs, as a
member of its own class, under the acceptance suite or the CLI tests."""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import member_calls

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "systolic"
ACCEPTANCE = TESTS / "test_acceptance.py"
CLI_TESTS = TESTS / "test_cli.py"


def _reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) of each public name of a package module that a file
    reads: ``from .M import name`` or ``from systolic.M import name``, and
    ``M.name`` through a name an import in the file binds to module M."""
    tree = ast.parse(path.read_text())
    reads, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # a relative import is from within the package
                source = f"systolic.{source}".rstrip(".")
            if source == "systolic":  # from . import M
                aliases.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif source.startswith("systolic."):
                reads.update((source[len("systolic."):], alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("systolic.") and alias.asname:
                    aliases[alias.asname] = alias.name[len("systolic."):]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            reads.add((aliases[node.value.id], node.attr))
    return reads


def _own_loads(path: Path) -> set[str]:
    """Names a module loads in its own body, outside ``raise`` statements: a
    class the module only raises has no reader there, as raising it tells the
    caller nothing a plain ValueError would not."""
    tree = ast.parse(path.read_text())
    raised = {id(node) for statement in ast.walk(tree) if isinstance(statement, ast.Raise)
              for node in ast.walk(statement)}
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in raised
    }


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


def test_every_export_has_a_caller():
    # a name counts as read only when the read names its module: a load in
    # the module itself, an import from it, or an attribute of it
    reads = set().union(*(_reads(path) for path in [*PACKAGE.glob("*.py"), ACCEPTANCE]))
    # cli.main runs a command's handler by its name, cmd_<name>, for each name of its table
    from systolic.cli import COMMANDS

    reads |= {("cli", "cmd_" + name.replace("-", "_")) for name in COMMANDS}
    unread = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in sorted(_public_definitions(module) - _own_loads(module))
        if (module.stem, name) not in reads
    ]
    assert unread == []


def test_every_public_method_has_a_caller(tmp_path):
    # matched by (class, member): a read of a same-named attribute of
    # another class does not count, as a name search over the sources would
    members = {
        f"{module.stem}.{cls}.{name}"
        for module in PACKAGE.glob("*.py")
        for cls, name in _public_members(module)
    }
    # the plugin records every member the sources define, and no other
    assert {
        f"{module}.{cls.__qualname__}.{name}" for module, cls, name in member_calls.public_members()
    } == members
    calls = tmp_path / "calls.json"
    env = dict(os.environ, MEMBER_CALLS=str(calls),
               PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), str(TESTS)]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "member_calls",
         str(ACCEPTANCE), str(CLI_TESTS)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-3000:]
    assert sorted(members - set(json.loads(calls.read_text()))) == []


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_oracles_share_only_the_private_names_their_docstring_states():
    # a reference that reads a private helper of the code it checks shares that
    # helper's faults, so each such helper is named where the sharing is stated
    path = TESTS / "oracles.py"
    shared = {name for _, name in _reads(path) if name.startswith("_")}
    stated = ast.get_docstring(ast.parse(path.read_text())).split("None of this shares code paths", 1)[1]
    assert shared == set(re.findall(r"``(_\w+)``", stated)) == {"_tokenize", "_is_far", "_double_swap"}
