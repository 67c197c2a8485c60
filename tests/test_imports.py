"""Each module imports on its own, in a fresh interpreter, and reads
every name it imports; every definition in the package, down to a
class's methods and fields, has a reader besides the unit tests.

The package root exports only ``__version__``, so no module may lean on
another having been imported first.  The modules are those of the
``triauth`` this run imports: the source tree's or an installed copy's.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import triauth

PACKAGE = Path(triauth.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
_LIST_LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('triauth'))))"


@pytest.fixture(scope="module")
def imports():
    """Per module: (exit status, the triauth modules loaded, stderr) of a
    fresh interpreter that imports only it.  The interpreters run side by
    side, as their start-up is most of the time."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    runs = {
        module: subprocess.Popen(
            # -S: no site-packages, so the standard library must suffice
            [sys.executable, "-S", "-c",
             "import sys, triauth.%s; %s" % (module, _LIST_LOADED)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for module in MODULES
    }
    results = {}
    for module, run in runs.items():
        out, err = run.communicate()
        results[module] = run.returncode, out.split(), err
    return results


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_on_its_own(imports, module):
    status, loaded, err = imports[module]
    assert status == 0, err
    assert "triauth." + module in loaded


def test_importing_core_loads_nothing_else(imports):
    assert imports["core"][1] == ["triauth", "triauth.core"]


# Imported names that only code built at run time reads: the adversary's
# generated search calls the fuzzy extractor `rep`.
READ_AT_RUN_TIME = {("adversary", "rep")}


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(path.stem, name) for name in imported - read
                   if (path.stem, name) not in READ_AT_RUN_TIME]
    assert sorted(unread) == []


def test_only_core_imports_hashlib():
    """Every protocol hash starts from ``HashEngine.new``, where a counting
    hook sees it; no other module makes hashes of its own."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "hashlib" for m in modules):
                importers.append(path.stem)
    assert sorted(set(importers)) == ["core"]


_FILE_BYTE_FUNCTIONS = {"open", "os.open", "os.read", "os.write"}
_FILE_BYTE_METHODS = {"read_bytes", "read_text", "write_bytes", "write_text"}


def test_only_files_reads_or_writes_file_bytes():
    """Every file's bytes are read by ``files.read_file`` and written by
    ``files.write_file``; other modules only make and list folders."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                ast.unparse(node.func) in _FILE_BYTE_FUNCTIONS
                or isinstance(node.func, ast.Attribute) and node.func.attr in _FILE_BYTE_METHODS
            ):
                callers.add(path.stem)
    assert callers == {"files"}


def test_only_mod_exp_and_the_primality_test_call_a_modular_pow():
    """Every modular exponentiation of the package is ``core.mod_exp``,
    with its tables; only the Miller-Rabin test, which runs on numbers
    that are no group's, calls ``pow`` with a modulus itself."""
    callers = set()

    def visit(node, module, where):
        """Note each modular pow under `node` with the innermost function
        it is in (`where`, "<module>" at the top level)."""
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and ast.unparse(child.func) == "pow"
                    and len(child.args) + len(child.keywords) == 3):
                callers.add((module, where))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, module, getattr(child, "name", "<lambda>") if inner else where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem, "<module>")
    assert callers == {("core", "is_probable_prime"), ("core", "mod_exp")}


# What a package definition must be read by, besides the unit tests: the
# package itself, the benchmark, the acceptance gate and the README's
# examples.  They are found from this file, so an installed package is
# checked against the checkout its tests come from.
CHECKOUT = Path(__file__).resolve().parent.parent


def _reader_trees():
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((CHECKOUT / "perfbench").glob("*.py")),
             CHECKOUT / "tests" / "test_acceptance.py"]
    for path in paths:
        yield ast.parse(path.read_text(encoding="utf-8"), str(path))
    readme = (CHECKOUT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        yield ast.parse(block, "README.md")


def _field_names(cls: ast.ClassDef) -> set[str]:
    """The names a class lists in ``FIELD_NAMES``, which the card file
    reads and writes by name."""
    for item in cls.body:
        if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FIELD_NAMES" for t in item.targets):
            return set(ast.literal_eval(item.value))
    return set()


def _exempt(name: str) -> bool:
    """Dunders, which Python calls, and the scenario's op handlers, which
    KNOWN_OPS finds by name."""
    return name.startswith("_op_") or name.startswith("__") and name.endswith("__")


def test_every_public_name_has_a_reader_besides_the_unit_tests():
    names, attributes = set(), set()
    for tree in _reader_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    read = names | attributes
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in read and not _exempt(node.name):
                unread.append("%s.%s" % (path.stem, node.name))
            if isinstance(node, ast.ClassDef):  # a method or field is read as an attribute
                unread += ["%s.%s.%s" % (path.stem, node.name, item.name) for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and item.name not in attributes and not _exempt(item.name)]
                unread += ["%s.%s.%s" % (path.stem, node.name, item.target.id)
                           for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                           and item.target.id not in attributes | _field_names(node)]
    assert not unread, "read only by the unit tests: " + ", ".join(unread)
