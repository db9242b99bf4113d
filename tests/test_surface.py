"""The public surface: every exported name has a user, the README's library
example gives the values it shows and its command lines parse, and importing
the library loads no process machinery."""

import inspect
import io
import os
import re
import shlex
import subprocess
import sys
import tokenize
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


def _code_references(path):
    """Names used in a module's code: strings, comments and the name being
    defined by a def, class or top-level assignment are not counted."""
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type != tokenize.NAME or prev.string in ("def", "class"):
            continue
        if tok.start[1] == 0 and nxt.string in ("=", ":"):
            continue
        yield tok.string


def test_every_public_name_has_a_caller():
    # Users are the library (the package's re-exports not counted), the
    # benchmark and the README; names only the tests use belong in tests/.
    modules = [p for p in (ROOT / "src" / "stacksort").glob("*.py") if p.name != "__init__.py"]
    modules += (ROOT / "perfbench").glob("*.py")
    used = Counter(name for path in modules for name in _code_references(path))
    readme = (ROOT / "README.md").read_text()
    unused = [
        name
        for name in stacksort.__all__
        if not inspect.ismodule(getattr(stacksort, name))
        and not used[name]
        and not re.search(rf"\b{name}\b", readme)
    ]
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
