"""The library's surface: every function, class and method has a user
outside the tests, the README's library example gives the values it shows
and its command lines parse, and importing the library loads no process
machinery."""

import ast
import inspect
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import stacksort
from stacksort import (
    ANCHORED_132,
    cli,
    contains_bivincular,
    count_sortable,
    machine_output,
    sorted_profile,
    stack_pass,
)

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "stacksort").glob("*.py"))


def _code_references(path):
    """Names a module's code uses: Name and Attribute nodes, f-string fields
    included.  Imports, strings, comments and the names that a def, class
    or assignment defines are not uses."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _definitions(path):
    """Every module-level function and class of a module, and every method
    of its classes that is not a dunder, as dotted names."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}"


def test_every_public_name_has_a_caller():
    # Users are the library, the benchmark and the README; a name only the
    # tests use belongs in tests/.  A method counts as used when some
    # attribute of its name is read.
    users = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    used = Counter(name for path in users for name in _code_references(path))
    readme = (ROOT / "README.md").read_text()
    names = [f"{path.stem}.{name}" for path in MODULES for name in _definitions(path)]
    names += [name for name in stacksort.__all__ if not inspect.ismodule(getattr(stacksort, name))]
    unused = []
    for name in names:
        last = name.rpartition(".")[2]
        if not used[last] and not re.search(rf"\b{last}\b", readme):
            unused.append(name)
    assert not unused, f"no caller outside tests: {unused}"


def test_readme_library_example():
    assert stack_pass((2, 3, 1), (2, 4, 1, 3)) == (1, 4, 3, 2)
    assert machine_output((2, 3, 1), (2, 4, 1, 3)) == (1, 2, 3, 4)
    assert count_sortable(8, (2, 3, 1)) == 13934
    entries = sorted_profile(3, (1, 2, 3)).entries
    assert list(entries.items())[:2] == [((1, 3, 2), 1), ((2, 1, 3), 2)]
    assert contains_bivincular((1, 4, 3, 2), ANCHORED_132) is True


def test_readme_command_lines_parse():
    # Parsed, not run: a flag the CLI no longer has fails here.
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("stacksort ")
    ]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_import_loads_no_process_pool():
    # Enumeration is one serial walk; importing what the CLI and the
    # benchmark use must not pull in the multiprocessing modules either.
    code = (
        "import sys, stacksort, stacksort.verify, stacksort.conjectures, stacksort.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert done.stdout.strip() == "[]"
