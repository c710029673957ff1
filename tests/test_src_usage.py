"""No test-only code in src/: every name a module of d2ssl defines, at
its top level or in one of its classes, is read somewhere in the
program (src/ or bench/) or exported in d2ssl.__all__. Code
that only tests reach belongs under tests/. And every exception class
of errors.py that ends a run is raised by the program, so the exit-code
table of cli.run_guarded names no error that cannot happen. And
data.py is the one module that writes CSV: no other imports csv. And
pseudo.residual_terms is the one place where logits become the
residual t: no other module reads convergence_residual. And the
open-world switch is read only where the config builds the plan and
where trainer._discard_count sizes the discarded rows. And the binary
readers check lengths against the file size only in errors.read_checked.
And importing the CLI imports neither multiprocessing nor mmap, which
only a run's evaluation worker needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import d2ssl

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "bench")


def _targets(node):
    """The names a def, class or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def defined_names(tree):
    """(name, line) of each name bound at the top level of a module or
    of one of its classes, dunders left out."""
    out = []
    for node in tree.body:
        out += [(name, node.lineno) for name in _targets(node)]
        if isinstance(node, ast.ClassDef):
            out += [(name, item.lineno) for item in node.body for name in _targets(item)]
    return [(name, line) for name, line in out
            if not (name.startswith("__") and name.endswith("__"))]


def read_names(tree):
    """Every name read as an ast.Name or an ast.Attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_name_in_src_is_used_by_the_program():
    program = [path for top in PROGRAM for path in sorted((ROOT / top).rglob("*.py"))
               if not path.name.startswith("test_")]
    used = set(d2ssl.__all__)
    for path in program:
        used |= read_names(ast.parse(path.read_text()))
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted((ROOT / "src" / "d2ssl").glob("*.py"))
        for name, line in defined_names(ast.parse(path.read_text()))
        if name not in used
    ]
    assert not unused, "defined in src/ but read only by tests: " + ", ".join(unused)


def raised_names(tree):
    """The name of every class a raise statement raises, as X or X(...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised_by_the_program():
    tree = ast.parse((ROOT / "src" / "d2ssl" / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases}
    raised = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        raised |= raised_names(ast.parse(path.read_text()))
    # A base class is raised through its subclasses.
    never = [node.name for node in classes if node.name not in bases | raised]
    assert not never, "error classes that nothing in src/ raises: " + ", ".join(never)


def test_only_data_imports_csv():
    importers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in names and path.name != "data.py":
                importers.append(str(path.relative_to(ROOT)))
    assert not importers, "csv imported outside data.py by: " + ", ".join(importers)


def test_only_pseudo_reads_convergence_residual():
    readers = [str(path.relative_to(ROOT))
               for path in sorted((ROOT / "src").rglob("*.py"))
               if path.name != "pseudo.py"
               and "convergence_residual" in read_names(ast.parse(path.read_text()))]
    assert not readers, "convergence_residual read outside pseudo.py by: " + ", ".join(readers)


def scopes_reading(node, attr, scope):
    """The dotted class and function scope of each read of the attribute
    attr under node, starting from scope."""
    if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load):
        yield scope
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    for child in ast.iter_child_nodes(node):
        yield from scopes_reading(child, attr, scope)


def test_open_world_read_only_by_the_plan_and_the_discard_count():
    allowed = {
        "cli.ExperimentConfig",  # the key's default, taken from SchedulePlan's
        "cli.ExperimentConfig.schedule_plan",
        "trainer._discard_count",
    }
    readers = [f"{path.relative_to(ROOT)} in {scope}"
               for path in sorted((ROOT / "src").rglob("*.py"))
               for scope in scopes_reading(ast.parse(path.read_text()), "open_world", path.stem)
               if scope not in allowed]
    assert not readers, "open_world read outside the plan and the discard count: " + ", ".join(
        readers)


def test_only_read_checked_and_the_csv_buffer_read_the_file_size():
    # The size rule of the binary readers has one home: no reader
    # compares a length read from a file with the file size itself.
    allowed = {
        "errors.read_checked",
        "data._read_padded",  # sizes the buffer dataset.csv is read into
    }
    readers = [f"{path.relative_to(ROOT)} in {scope}"
               for path in sorted((ROOT / "src").rglob("*.py"))
               for scope in scopes_reading(ast.parse(path.read_text()), "fstat", path.stem)
               if scope not in allowed]
    assert not readers, "fstat read outside read_checked and _read_padded: " + ", ".join(readers)


def test_importing_the_cli_does_not_import_multiprocessing():
    # trainer imports them only where a run forks its evaluation worker
    # and maps its rings, so every interpreter that only parses a config
    # skips their cost.
    code = ("import sys; from d2ssl import cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'mmap')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout == "[]\n"
