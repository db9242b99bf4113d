"""The library's surface: every function, class and method has a user
outside the tests, every public callable that takes a permutation rejects
one that is not, the README's library example gives the values it shows
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
    FISHBURN_PATTERN,
    BivincularPattern,
    as_perm,
    avoids_anchored_132_via_blocks,
    classification_row,
    cli,
    contains,
    contains_anchored_132,
    contains_bivincular,
    count_sortable,
    count_sorted,
    fertility,
    first_element_decomposition,
    gamma_decomposition_123,
    is_effective,
    is_sortable,
    machine_output,
    machine_outputs,
    occurrences,
    parse_perm,
    sort_is_class,
    sortable_permutations,
    sortables_avoid_anchored_132,
    sorted_profile,
    stack_pass,
    stack_pass_traced,
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


# Inputs that are not permutations of 1..n: a repeated value, a 0, a gap,
# and entries that are not exactly ints, some also inside a longer input
BAD = [
    (1, 1),
    (2, 3, 1, 1),
    (1, 3, 3, 2),
    (0, 1),
    (0, 3, 2),
    (1, 2, 5),
    (2.0, 1),
    (2.0, 3, 1),
    (True,),
    (True, 3, 2),
    ("a",),
]
# A host of `contains` or `occurrences` may hold any distinct ints.
BAD_HOSTS = [(1, 1), (2.0, 1), (True,), ("a",)]

# Each public callable that takes a permutation, with one call per such
# argument and the bad inputs that argument must reject with ValueError.
CHECKED = {
    "BivincularPattern": [(lambda p: BivincularPattern(p, frozenset(), frozenset()), BAD)],
    "as_perm": [(as_perm, BAD)],
    "avoids_anchored_132_via_blocks": [(avoids_anchored_132_via_blocks, BAD)],
    "classification_row": [(classification_row, BAD)],
    "contains": [
        (lambda p: contains((3, 1, 2), p), BAD),
        (lambda h: contains(h, (1, 2)), BAD_HOSTS),
    ],
    "contains_anchored_132": [(contains_anchored_132, BAD)],
    "contains_bivincular": [(lambda h: contains_bivincular(h, FISHBURN_PATTERN), BAD)],
    "count_sortable": [(lambda s: count_sortable(3, s), BAD)],
    "count_sorted": [(lambda s: count_sorted(3, s), BAD)],
    "fertility": [
        (lambda s: fertility(s, (1, 2, 3)), BAD),
        (lambda g: fertility((2, 3, 1), g), BAD),
    ],
    "first_element_decomposition": [(first_element_decomposition, BAD)],
    "gamma_decomposition_123": [(gamma_decomposition_123, BAD)],
    "is_effective": [(is_effective, BAD)],
    "is_sortable": [
        (lambda s: is_sortable(s, (2, 1, 3)), BAD),
        (lambda p: is_sortable((2, 3, 1), p), BAD),
    ],
    "machine_output": [
        (lambda s: machine_output(s, (2, 1, 3)), BAD),
        (lambda p: machine_output((2, 3, 1), p), BAD),
    ],
    "machine_outputs": [(lambda s: machine_outputs(3, s), BAD)],
    "occurrences": [
        (lambda p: occurrences((3, 1, 2), p), BAD),
        (lambda h: occurrences(h, (1, 2)), BAD_HOSTS),
    ],
    "parse_perm": [(lambda p: parse_perm(" ".join(map(str, p))), BAD)],
    "sort_is_class": [(sort_is_class, BAD)],
    "sortable_permutations": [(lambda s: sortable_permutations(3, s), BAD)],
    "sortables_avoid_anchored_132": [(sortables_avoid_anchored_132, BAD)],
    "sorted_profile": [(lambda s: sorted_profile(3, s), BAD)],
    "stack_pass": [
        (lambda s: stack_pass(s, (2, 1, 3)), BAD),
        (lambda p: stack_pass((2, 3, 1), p), BAD),
    ],
    "stack_pass_traced": [
        (lambda s: stack_pass_traced(s, (2, 1, 3)), BAD),
        (lambda p: stack_pass_traced((2, 3, 1), p), BAD),
    ],
}
EXEMPT = {
    "ClassificationRow": "a result record",
    "MachineTrace": "a type alias",
    "Perm": "a type alias",
    "SortedProfile": "a result record",
    "TraceEvent": "a result record",
    "all_perms": "takes a length",
    "catalan": "takes a length",
    "count_anchored_132_avoiders": "takes a length",
    "count_sortable_123_formula": "takes a length",
    "identity": "takes a length",
    "format_perm": "unchecked: its callers pass checked permutations",
    "reverse": "unchecked: classify._row calls it on checked patterns",
    "swap_first_two": "unchecked: classify._row calls it on checked patterns",
}
CALLABLES = sorted(name for name in stacksort.__all__ if callable(getattr(stacksort, name)))


@pytest.mark.parametrize("name", CALLABLES)
def test_public_callables_reject_what_is_not_a_permutation(name):
    # A new public callable fails here until it is listed in CHECKED or EXEMPT.
    assert (name in CHECKED) != (name in EXEMPT), f"classify {name} in CHECKED or EXEMPT"
    for call, bad_inputs in CHECKED.get(name, []):
        call((2, 3, 1))  # the call itself is well formed
        for bad in bad_inputs:
            with pytest.raises(ValueError):
                call(bad)


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
