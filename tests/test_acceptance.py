"""Acceptance suite: every criterion at its stated bound, one line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The n = 9/10 extended rows are marked slow; enable with `-m slow`.
"""

import time

import pytest

from oracles import count_anchored_132_avoiders_brute, standardize
from stacksort.bivincular import contains_anchored_132, count_anchored_132_avoiders
from stacksort.classify import is_effective, sort_is_class, sortables_avoid_anchored_132
from stacksort.conjectures import ascent_sequences_avoiding, compare_families, fishburn_avoiding
from stacksort.enumeration import (
    catalan,
    count_sortable,
    count_sortable_123_formula,
    machine_outputs,
    sorted_profile,
)
from stacksort.machine import is_sortable, stack_pass_traced
from stacksort.perms import (
    all_perms,
    contains,
    identity,
    reverse,
    swap_first_two,
)
from stacksort.verify import (
    EFFECTIVE_PATTERNS,
    EQUINUMEROUS_COUNTS,
    SORTABLE_COUNTS,
    SORTED_COUNTS,
    _machine,
    avoider_set,
    west_two_stack_count,
)


def _sortables(n, pattern):
    # (inputs, profile, lemma) of length n, as the verify suites read them:
    # one table per machine for every length up to 8
    return _machine(pattern, max(n, 8))[n]


def _report(criterion, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, criterion


def test_01_machine_trace_schedule():
    output, trace = stack_pass_traced((2, 3, 1), (2, 4, 1, 3))  # warm-up + value
    schedule_ok = output == (1, 4, 3, 2) and [(e.op, e.value) for e in trace] == [
        ("push", 2),
        ("push", 4),
        ("push", 1),
        ("pop", 1),
        ("pop", 4),
        ("push", 3),
        ("pop", 3),
        ("pop", 2),
    ]
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        stack_pass_traced((2, 3, 1), (2, 4, 1, 3))
        timings.append(time.perf_counter() - t0)
    fast = min(timings) < 0.001
    _report("01 machine-trace", schedule_ok and fast, f"best {min(timings) * 1e6:.0f}us")


def test_02_sortable_count_rows():
    t0 = time.perf_counter()
    ok = True
    for pattern, row in SORTABLE_COUNTS.items():
        got = [count_sortable(n, pattern) for n in range(1, 9)]
        ok = ok and got == list(row[:8])
    elapsed = time.perf_counter() - t0
    _report("02 sortable-count-rows", ok and elapsed < 30, f"{elapsed:.1f}s")


@pytest.mark.slow
@pytest.mark.parametrize("n", [9, 10])
def test_02_sortable_count_rows_extended(n):
    ok = all(
        count_sortable(n, pattern) == row[n - 1] for pattern, row in SORTABLE_COUNTS.items()
    )
    _report(f"02x sortable-count-rows n={n}", ok)


def test_03_sorted_count_rows():
    ok = True
    for pattern, row in SORTED_COUNTS.items():
        profiles = [_sortables(n, pattern)[1] for n in range(1, 9)]
        ok = ok and [len(profile) for profile in profiles] == list(row[:8])
        ok = ok and all(list(profile) == sorted(profile) for profile in profiles)
    _report("03 sorted-count-rows", ok)


@pytest.mark.slow
def test_03_sorted_count_rows_extended():
    ok = all(
        len(_sortables(9, pattern)[1]) == row[8] for pattern, row in SORTED_COUNTS.items()
    )
    _report("03x sorted-count-rows n=9", ok)


def test_04_avoider_count_formula():
    ok = all(
        count_anchored_132_avoiders(n) == count_anchored_132_avoiders_brute(n)
        for n in range(1, 10)
    )
    first = [count_anchored_132_avoiders(n) for n in range(1, 7)]
    ok = ok and first == [1, 2, 5, 17, 75, 407]
    _report("04 anchored132-count-formula", ok)


def test_05_class_characterization():
    ok = True
    for m in (3, 4):
        for pattern in all_perms(m):
            is_class, basis = sort_is_class(pattern)
            if is_class:
                for n in range(1, 9):
                    if _sortables(n, pattern)[0] != avoider_set(n, tuple(basis)):
                        ok = False
            else:
                found = False
                for n in range(m, 8):
                    smaller = frozenset(_sortables(n - 1, pattern)[0])
                    for p in _sortables(n, pattern)[0]:
                        if any(
                            standardize(p[:i] + p[i + 1 :]) not in smaller
                            for i in range(n)
                        ):
                            found = True
                            break
                    if found:
                        break
                ok = ok and found
    _report("05 class-characterization", ok)


def test_06_anchored_avoidance_predicate():
    ok = True
    exceptional = []
    for m in (3, 4):
        for pattern in all_perms(m):
            predicted = sortables_avoid_anchored_132(pattern)
            brute = all(
                not contains_anchored_132(p)
                for n in range(1, 9)
                for p in _sortables(n, pattern)[0]
            )
            ok = ok and predicted == brute
            if not predicted:
                exceptional.append(pattern)
    ok = ok and exceptional == [(2, 3, 1), (3, 4, 1, 2), (3, 4, 2, 1)]
    _report("06 anchored-avoidance-predicate", ok)


def test_07_effectiveness_characterization():
    ok = True
    for m in (2, 3, 4):
        for pattern in all_perms(m):
            predicted = is_effective(pattern)
            brute = all(
                not contains(gamma, pattern)
                for n in range(1, 9)
                for gamma in _sortables(n, pattern)[1]
            )
            ok = ok and predicted == brute
            if predicted:
                for n in range(1, 9):
                    keys = tuple(_sortables(n, pattern)[1])
                    if keys != avoider_set(n, ((2, 3, 1), pattern)):
                        ok = False
        listed = tuple(p for p in all_perms(m) if is_effective(p))
        ok = ok and listed == EFFECTIVE_PATTERNS[m]
    for m in (2, 3, 4, 5):
        ok = ok and sum(1 for p in all_perms(m) if not is_effective(p)) == catalan(m - 1)
    _report("07 effectiveness-characterization", ok)


def test_08_123_machine_closed_form():
    ok = True
    for n in range(1, 10):
        formula = count_sortable_123_formula(n)
        ok = ok and count_sortable(n, (1, 2, 3)) == formula
        if n <= 8:
            ok = ok and sum(_sortables(n, (1, 2, 3))[1].values()) == formula
    _report("08 123-machine-closed-form", ok)


def test_09_pass_reversal_lemma_suite():
    counterexamples = 0
    for m in (3, 4):
        for pattern in all_perms(m):
            rev = reverse(pattern)
            swapped = swap_first_two(pattern)
            for n in range(1, 8):
                for p, output in machine_outputs(n, pattern):
                    if contains(p, rev):
                        if not contains(output, swapped):
                            counterexamples += 1
                    elif output != reverse(p):
                        counterexamples += 1
    _report("09 pass-reversal-lemma", counterexamples == 0, f"{counterexamples} counterexamples")


def test_10_3421_sortable_examples():
    witnesses = ((1, 2, 3, 5, 4), (1, 2, 4, 5, 3), (1, 2, 5, 3, 4), (1, 2, 5, 4, 3))
    ok = all(is_sortable((3, 4, 2, 1), p) for p in witnesses)
    ok = ok and all(p[0] == 1 and p != identity(5) for p in witnesses)
    _report("10 3421-sortable-witnesses", ok)


def test_11_conjecture_cardinalities_and_distributions():
    ok = True
    for n in range(1, 9):
        a = len(_sortables(n, (3, 1, 2))[0])
        b = sum(1 for _ in ascent_sequences_avoiding(n, (2, 0, 1)))
        c = sum(1 for _ in fishburn_avoiding(n, (3, 4, 1, 2)))
        ok = ok and a == b == c == EQUINUMEROUS_COUNTS[n - 1]
    findings = []
    for n in range(1, 8):
        _, mism = compare_families(n)
        findings.append("agree" if mism is None else f"differ at {mism[0]}")
    extra = "joint distributions n<=7: " + ", ".join(findings)
    _report("11 equinumerous-families", ok, extra)


def test_12_two_letter_pattern_resolution():
    matches = {}
    for pattern in ((2, 1), (1, 2)):
        counts = [len(_sortables(n, pattern)[0]) for n in range(1, 9)]
        matches[pattern] = (
            counts == [len(avoider_set(n, ((2, 1, 3),))) for n in range(1, 9)],
            counts == [west_two_stack_count(n) for n in range(1, 9)],
        )
    a, b = matches[(2, 1)], matches[(1, 2)]
    consistent = (a == (False, True) and b == (True, False)) or (
        a == (True, False) and b == (False, True)
    )
    assignment = (
        "21 -> west-two-stack, 12 -> catalan"
        if a == (False, True)
        else "21 -> catalan, 12 -> west-two-stack"
    )
    _report("12 two-letter-resolution", consistent, assignment)
