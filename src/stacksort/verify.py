"""Brute-force verification of the classification predicates, counting
formulas and reference sequences, at desk scale.

Every check pits a predicate or closed form against exhaustive enumeration
and reports one line per instance: "<id> | <pattern> | <n> | PASS/FAIL".
A check is a generator of rows (check id, pattern, n, verdict, detail), and
`_report` alone turns rows into `CheckResult`s.  The theorem checks take
(max_len, max_n) and are listed in one tuple, `_THEOREM_CHECKS`; the table
and conjecture suites are one generator each.
Each machine is walked once per run for every length n <= max_n at once
(`_machine`): a node of a walk whose prefix holds exactly 1..j holds that
input's own machine state.  For each n the table keeps the sortable inputs,
the profile of their first-pass outputs and, up to n = LEMMA_N, LEM 2.1's
first counterexamples, which every check on that machine reads.
Containment comes from one table of pattern masks up to n = TABLE_N and
|tau| = TABLE_K, and from `contains` beyond.  A class grows from its
members of length n - 1, since a class is a downset.  Every table of a
run takes its permutations from one dict per length (`_perms(n)`, each
permutation to itself), so a run holds one tuple per permutation however
many tables list it.  `verify_theorems` drops the tables of earlier runs,
and those dicts, on entry.  The anchored-132 claims (THM 3.3, COR 3.2,
LEM 3.1) read one scan of the permutations of each length.  Every suite
raises ValueError for max_n < 0.
Conjectured facts are reported as FINDING instead of asserted; reference
rows that have no published values to pin, and predicted witnesses not yet
found by a search that stops below n = witness_n(k) for a pattern of
length k, are reported as INFO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .bivincular import (
    _contains_anchored_132,
    avoids_anchored_132_via_blocks,
    count_anchored_132_avoiders,
)
from .classify import (
    ALL_LABELS,
    classification_row,
    is_effective,
    sort_is_class,
    sortables_avoid_anchored_132,
)
from .conjectures import check_convention, compare_families, fishburn_permutations
from .enumeration import (
    catalan,
    count_sortable_123_formula,
    every_length_pairs,
    gamma_decomposition_123,
)
from .machine import check_forbidden
from .perms import (
    Perm,
    all_perms,
    contains,
    format_perm,
    identity,
    reverse,
    swap_first_two,
)

# Published reference counts of sortable inputs, lengths 1..10.
SORTABLE_COUNTS: dict[Perm, tuple[int, ...]] = {
    (2, 1, 3): (1, 2, 5, 16, 62, 273, 1307, 6626, 35010, 190862),
    (2, 3, 1): (1, 2, 6, 23, 102, 496, 2569, 13934, 78295, 452439),
    (3, 1, 2): (1, 2, 5, 15, 52, 201, 843, 3764, 17659, 86245),
}

# Published reference counts of distinct sorted outputs for the
# non-effective patterns, lengths 1..9.  The non-effective pattern 21 has a
# reference sequence identifier (A027432) but no printed values, so it is
# reported without a pinned row.
SORTED_COUNTS: dict[Perm, tuple[int, ...]] = {
    (2, 1, 3): (1, 2, 4, 9, 22, 58, 161, 466, 1390),
    (3, 1, 2): (1, 2, 4, 8, 17, 40, 104, 291, 855),
    (2, 1, 3, 4): (1, 2, 5, 13, 34, 91, 252, 724, 2150),
    (2, 1, 4, 3): (1, 2, 5, 13, 35, 97, 277, 813, 2448),
    (3, 1, 2, 4): (1, 2, 5, 13, 34, 90, 244, 683, 1979),
    (4, 1, 2, 3): (1, 2, 5, 13, 33, 82, 203, 510, 1321),
    (4, 1, 3, 2): (1, 2, 5, 13, 34, 89, 234, 622, 1684),
}

# Published list of effective patterns of lengths 2..4.
EFFECTIVE_PATTERNS: dict[int, tuple[Perm, ...]] = {
    2: ((1, 2),),
    3: ((1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1)),
    4: (
        (1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2),
        (1, 4, 2, 3), (1, 4, 3, 2), (2, 3, 1, 4), (2, 3, 4, 1),
        (2, 4, 1, 3), (2, 4, 3, 1), (3, 1, 4, 2), (3, 2, 1, 4),
        (3, 2, 4, 1), (3, 4, 1, 2), (3, 4, 2, 1), (4, 2, 1, 3),
        (4, 2, 3, 1), (4, 3, 1, 2), (4, 3, 2, 1),
    ),
}

# Published classification of patterns of lengths 3 and 4, grouped by the
# six hypothesis rows (same order as classify.ALL_LABELS).
CLASSIFICATION_GROUPS: tuple[tuple[Perm, ...], ...] = (
    ((1, 3, 4, 2), (2, 3, 4, 1), (2, 4, 3, 1), (3, 1, 4, 2), (3, 2, 4, 1), (4, 2, 3, 1)),
    ((3, 2, 1), (3, 2, 1, 4), (4, 2, 1, 3), (4, 3, 1, 2), (4, 3, 2, 1)),
    ((1, 2, 3), (1, 3, 2), (1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 4, 2, 3), (1, 4, 3, 2)),
    ((2, 3, 1, 4), (2, 4, 1, 3)),
    ((2, 3, 1), (3, 4, 1, 2), (3, 4, 2, 1)),
    ((2, 1, 3), (3, 1, 2), (2, 1, 3, 4), (2, 1, 4, 3), (3, 1, 2, 4), (4, 1, 2, 3), (4, 1, 3, 2)),
)

# Reference counts of conjecturally equinumerous families, lengths 1..8.
EQUINUMEROUS_COUNTS = (1, 2, 5, 15, 52, 201, 843, 3764)

FISHBURN_NUMBERS = (1, 2, 5, 15, 53)


def witness_n(k: int) -> int:
    """Length by which every predicted witness (a sortable input with a
    non-sortable pattern, a sortable input containing anchored 132, a sorted
    output containing the pattern) has shown up for patterns of length k.
    For k = 3, 4 and 5 the last ones (`COR 4.5`) first appear at n = 5, 7
    and 9, that is 2k - 1; 7 is the floor, where 4123 and 4132 appear."""
    return max(7, 2 * k - 1)


def west_two_stack_count(n: int) -> int:
    """Closed form for the number of permutations sortable by two passes
    through a plain increasing stack (A000139)."""
    return 2 * math.factorial(3 * n) // (math.factorial(n + 1) * math.factorial(2 * n + 1))


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    subject: str  # formatted pattern or "-"
    n: int
    status: str  # PASS | FAIL | FINDING | INFO
    detail: str = ""

    def line(self) -> str:
        base = f"{self.check_id} | {self.subject} | {self.n} | {self.status}"
        return f"{base} ({self.detail})" if self.detail else base


# The containment table's largest host and pattern, with one bit per pattern
# of length 1..TABLE_K, and LEM 2.1's largest n.
TABLE_N, TABLE_K, LEMMA_N = 8, 4, 7
_BITS = {
    tau: 1 << b for b, tau in enumerate(q for k in range(1, TABLE_K + 1) for q in all_perms(k))
}


def _deletions(p: Perm, positions: int | None = None) -> Iterator[Perm]:
    """The patterns of p one entry shorter, one per deleted position: every
    position, or the first `positions` of them."""
    return (tuple(x - (x > v) for x in p[:i] + p[i + 1 :]) for i, v in enumerate(p[:positions]))


@lru_cache(maxsize=None)
def _perms(n: int) -> dict[Perm, Perm]:
    """Each permutation of length n in the run's tables, to itself: a table
    stores the tuple this dict holds, so that equal permutations are one
    object.  One dict per length keeps each sized to its own entries."""
    return {}


@lru_cache(maxsize=None)
def _masks(n: int) -> dict[Perm, int]:
    """The mask of the patterns each permutation of length n contains: its own
    bit OR the masks of its first TABLE_K + 1 one-entry deletions.  Pattern
    classes are downsets, and an occurrence of a pattern of length <= TABLE_K
    misses one of any TABLE_K + 1 positions, so those deletions hold it."""
    smaller = _masks(n - 1) if n else {}
    perm = _perms(n).setdefault
    table = {perm(p, p): _BITS.get(p, 0) for p in all_perms(n)}
    for p in table:
        for q in _deletions(p, TABLE_K + 1):
            table[p] |= smaller[q]
    return table


def _contains(p: Perm, tau: Perm) -> bool:
    """contains(p, tau) for a permutation p, read from the table within its sizes."""
    bit = _BITS.get(tau)
    if bit is None or len(p) > TABLE_N:
        return contains(p, tau)
    return bool(_masks(len(p))[p] & bit)


@lru_cache(maxsize=None)
def _machine(
    forbidden: Perm, max_n: int
) -> tuple[tuple[tuple[Perm, ...], Mapping[Perm, int], tuple | None], ...]:
    """(inputs, profile, lemma) for every n = 0..max_n: the sortable inputs
    of length n, lexicographic; the walk's count of each of their first-pass
    outputs, a read-only dict in output order; and LEM 2.1's first
    counterexample to each half, as (half, input) pairs, up to n = LEMMA_N
    for patterns of length 3 or more, else None.  Every input, output and
    counterexample is the tuple of `_perms`.  The suites read entry n of one
    table per run and machine.

    The table comes from at most two walks.  For a pattern of length 3 or
    more, one walk of length min(max_n, LEMMA_N) visits every input of each
    length up to it, for the lemma; the lengths beyond LEMMA_N, and every
    length of a pattern of length 2, come from one walk of length max_n
    that visits only the sortable inputs."""
    forbidden = check_forbidden(forbidden, max_n)
    full = min(max_n, LEMMA_N) if len(forbidden) >= 3 else 0
    inputs: list[list[Perm]] = [[()]] + [[] for _ in range(max_n)]
    counts: list[dict[Perm, int]] = [{(): 1}] + [{} for _ in range(max_n)]
    lemmas: list[dict[str, Perm]] = [{} for _ in range(full + 1)]
    perms = [_perms(n).setdefault for n in range(max_n + 1)]

    def keep(n: int, p: Perm, out: Perm) -> None:
        perm = perms[n]
        inputs[n].append(perm(p, p))
        count = counts[n]
        if out in count:
            count[out] += 1
        else:
            count[perm(out, out)] = 1

    if full:  # full <= LEMMA_N <= TABLE_N: the table holds every host
        rev, swapped = reverse(forbidden), swap_first_two(forbidden)
        rev_bit, swap_bit = _BITS.get(rev), _BITS.get(swapped)  # None beyond TABLE_K
        tables, bit_231 = [_masks(n) for n in range(full + 1)], _BITS[(2, 3, 1)]
        for p, out in every_length_pairs(full, forbidden):
            n = len(p)
            table = tables[n]
            mask = table[out]
            if (table[p] & rev_bit) if rev_bit else contains(p, rev):
                if not ((mask & swap_bit) if swap_bit else contains(out, swapped)):
                    lemmas[n].setdefault("swap", perms[n](p, p))
            elif out != p[::-1]:
                lemmas[n].setdefault("rev", perms[n](p, p))
            if not mask & bit_231:
                keep(n, p, out)
    if max_n > full:
        for p, out in every_length_pairs(max_n, forbidden, sortable=True):
            if len(p) > full:
                keep(len(p), p, out)
    return tuple(
        (
            tuple(inputs[n]),
            MappingProxyType(dict(sorted(counts[n].items()))),
            tuple(lemmas[n].items()) if len(forbidden) >= 3 and n <= LEMMA_N else None,
        )
        for n in range(max_n + 1)
    )


@lru_cache(maxsize=None)
def avoider_set(n: int, basis: tuple[Perm, ...]) -> tuple[Perm, ...]:
    """The avoiders of basis of length n, lexicographic, as `_perms(n)`'s
    tuples: n at each position of each avoider of length n - 1 (a class is a
    downset), kept unless `_contains` finds a basis pattern."""
    if not n:
        return ((),)
    perm = _perms(n).setdefault
    grown = (q[:i] + (n,) + q[i:] for q in avoider_set(n - 1, basis) for i in range(n))
    return tuple(sorted(perm(p, p) for p in grown if not any(_contains(p, b) for b in basis)))


def _first_witness(ns: range, witnesses: Callable[[int], Iterable]) -> tuple | None:
    """The first (n, w) over n in ns, in order, and w in witnesses(n), or
    None when there is none."""
    return next(((n, w) for n in ns for w in witnesses(n)), None)


def _downset_violations(inputs: tuple[Perm, ...], smaller: tuple[Perm, ...]) -> Iterator[tuple]:
    """(p, tau) for each input p and each pattern tau of p one entry shorter
    that is not in smaller."""
    members = set(smaller)
    return ((p, tau) for p in inputs for tau in _deletions(p) if tau not in members)


def _witness_status(found: bool, predicted: bool, max_n: int, k: int) -> str:
    """PASS when a witness turns up exactly as predicted, for a pattern of
    length k.  A witness found against the prediction fails at every n; a
    predicted witness that has not turned up only fails once the search
    reached witness_n(k)."""
    if found == predicted:
        return "PASS"
    return "FAIL" if found or max_n >= witness_n(k) else "INFO"


def _fmt(p: Perm) -> str:
    return format_perm(p) if p else "-"


# A row of a check: (check id, pattern or (), n, verdict, detail), where the
# verdict is a bool (PASS or FAIL) or a status string.
Row = tuple[str, Perm, int, bool | str, str]
_STATUS = {True: "PASS", False: "FAIL"}


def _report(rows: Iterable[Row]) -> list[CheckResult]:
    """One CheckResult per row, in order: the pattern formatted ("-" for
    ()), and a bool verdict as PASS or FAIL."""
    return [
        CheckResult(check_id, _fmt(pattern), n, _STATUS.get(verdict, verdict), detail)
        for check_id, pattern, n, verdict, detail in rows
    ]


# ---------------------------------------------------------------------------
# theorem suite: each check takes (max_len, max_n) and yields its rows


def _check_class_characterization(max_len: int, max_n: int) -> Iterator[Row]:
    for m in range(3, max_len + 1):
        witness_cap = min(max_n, witness_n(m))
        for pattern in all_perms(m):
            is_class, basis = sort_is_class(pattern)
            if is_class:
                claim = f"sortables = avoiders of {{{', '.join(map(_fmt, basis))}}}"
                for n in range(1, max_n + 1):
                    ok = _machine(pattern, max_n)[n][0] == avoider_set(n, tuple(basis))
                    yield "THM 2.2", pattern, n, ok, claim
                continue
            found = _first_witness(
                range(m, witness_cap + 1),
                lambda n: _downset_violations(
                    _machine(pattern, max_n)[n][0], _machine(pattern, max_n)[n - 1][0]
                ),
            )
            if found:
                n, (p, tau) = found
                detail = f"not a class: sortable {_fmt(p)} has non-sortable pattern {_fmt(tau)}"
                yield "THM 2.2", pattern, n, True, detail
            else:
                status = _witness_status(False, True, max_n, m)
                detail = f"no downset violation within n <= {witness_cap}"
                yield "THM 2.2", pattern, witness_cap, status, detail


def _check_anchored_avoidance_of_sortables(max_len: int, max_n: int) -> Iterator[Row]:
    for m in range(3, max_len + 1):
        for pattern in all_perms(m):
            predicted = sortables_avoid_anchored_132(pattern)
            found = _first_witness(
                range(1, max_n + 1),
                lambda n: filter(_contains_anchored_132, _machine(pattern, max_n)[n][0]),
            )
            status = _witness_status(found is not None, not predicted, max_n, m)
            detail = (
                "all sortables avoid anchored 132"
                if found is None
                else f"sortable {_fmt(found[1])} contains anchored 132"
            )
            yield "THM 3.4", pattern, max_n, status, detail


def _check_anchored_132_avoiders(max_len: int, max_n: int) -> Iterator[Row]:
    """THM 3.3, and COR 3.2 and LEM 3.1 up to n = 8, from one scan of the
    permutations of each length: the avoiders it counts are the exhaustive
    side of the closed form."""
    claims = (
        ("COR 3.2", "avoiders starting with 1 are the identity"),
        ("LEM 3.1", "blocks all increasing <=> anchored 132 avoided"),
    )
    for n in range(1, max_n + 1):
        lemmas = claims if n <= 8 else ()
        brute, broken = 0, set()
        for p in all_perms(n):
            avoids = not _contains_anchored_132(p)
            brute += avoids
            if not lemmas:
                continue
            if avoids and p[0] == 1 and p != identity(n):
                broken.add("COR 3.2")
            if avoids_anchored_132_via_blocks(p) != avoids:
                broken.add("LEM 3.1")
        formula = count_anchored_132_avoiders(n)
        yield "THM 3.3", (), n, formula == brute, f"formula {formula} vs brute {brute}"
        for check_id, claim in lemmas:
            yield check_id, (), n, check_id not in broken, claim


def _check_effectiveness(max_len: int, max_n: int) -> Iterator[Row]:
    """COR 4.5 for every pattern, and PROP 4.1 for the effective ones."""
    for m in range(2, max_len + 1):
        for pattern in all_perms(m):
            effective = is_effective(pattern)
            found = _first_witness(
                range(1, max_n + 1),
                lambda n: (g for g in _machine(pattern, max_n)[n][1] if _contains(g, pattern)),
            )
            status = _witness_status(found is not None, not effective, max_n, m)
            detail = (
                "no sorted output contains the pattern"
                if found is None
                else f"sorted output {_fmt(found[1])} contains the pattern"
            )
            yield "COR 4.5", pattern, max_n, status, detail
            if not effective:
                continue
            ok = all(
                tuple(_machine(pattern, max_n)[n][1]) == avoider_set(n, ((2, 3, 1), pattern))
                for n in range(1, max_n + 1)
            )
            yield "PROP 4.1", pattern, max_n, ok, "sorted outputs = avoiders of {231, pattern}"


def _check_pass_reversal_lemma(max_len: int, max_n: int) -> Iterator[Row]:
    cap = min(max_n, LEMMA_N)
    claims = (
        ("rev", "inputs avoiding the reversed pattern come out reversed"),
        ("swap", "other outputs contain the pattern with first entries swapped"),
    )
    for m in range(3, max_len + 1):
        for pattern in all_perms(m):
            bad: dict[str, Perm] = {}  # the first counterexample to each half
            for n in range(1, cap + 1):
                for half, p in _machine(pattern, max_n)[n][2]:
                    bad.setdefault(half, p)
            for half, claim in claims:
                p = bad.get(half)
                detail = claim if p is None else f"counterexample {_fmt(p)}"
                yield f"LEM 2.1-{half}", pattern, cap, p is None, detail


def _check_123_machine(max_len: int, max_n: int) -> Iterator[Row]:
    forbidden = (1, 2, 3)
    for n in range(1, max_n + 1):
        formula = count_sortable_123_formula(n)
        total = sum(_machine(forbidden, max_n)[n][1].values())
        direct = len(_machine(forbidden, max_n)[n][0])
        detail = f"sortable count {direct}, profile mass {total}, closed form {formula}"
        yield "EX 123-machine", forbidden, n, total == formula == direct, detail


def _fertility_law_break(profile: Mapping[Perm, int]) -> str | None:
    """The first output of the 123-machine's profile that breaks the observed
    per-output law, or None: an output splitting as (i, j, k) has fertility
    catalan(j) when k >= 1 and fertility 1 when k = 0."""
    for gamma, count in profile.items():
        split = gamma_decomposition_123(gamma)
        if split is None:
            return f"output {_fmt(gamma)} does not decompose"
        _, j, k = split
        expected = 1 if k == 0 else catalan(j)
        if count != expected:
            return f"output {_fmt(gamma)} has fertility {count}, law gives {expected}"
    return None


def _check_123_fertility_law(max_len: int, max_n: int) -> Iterator[Row]:
    # Reported as a finding; the grouped sum over outputs gives the closed form.
    forbidden = (1, 2, 3)
    for n in range(1, min(max_n, 7) + 1):
        broken = _fertility_law_break(_machine(forbidden, max_n)[n][1])
        detail = "per-output fertility = catalan(j) if k >= 1 else 1: " + (
            "holds" if broken is None else f"fails: {broken}"
        )
        yield "OQ 123-fertility-law", forbidden, n, "FINDING", detail


def _check_two_letter_resolution(max_len: int, max_n: int) -> Iterator[Row]:
    """Which of 21 and 12 matches which reference.  PASS when they match one
    reference each, not the same one.  While the references agree at every
    n <= max_n they cannot tell the patterns apart: INFO when both patterns
    match both, FAIL otherwise."""
    ns = range(1, max_n + 1)
    # In name order, so each list of matches below comes out sorted.
    references = {
        "avoiders-of-213 (catalan)": [len(avoider_set(n, ((2, 1, 3),))) for n in ns],
        "west-two-stack (A000139)": [west_two_stack_count(n) for n in ns],
    }
    m21, m12 = (
        [name for name, row in references.items() if row == counts]
        for counts in [
            [len(_machine(pattern, max_n)[n][0]) for n in ns] for pattern in ((2, 1), (1, 2))
        ]
    )
    names = list(references)
    if references[names[0]] != references[names[1]]:  # they separate at some n <= max_n
        status = sorted([m21, m12]) == [[name] for name in names]
    else:
        status = "INFO" if m21 == m12 == names else False
    detail = f"21 matches {m21 or ['nothing']}, 12 matches {m12 or ['nothing']}"
    yield "AMB two-letter", (), max_n, status, detail


# The theorem checks, run in this order.  The report is sorted, so the order
# decides only which check builds each shared table first.
_THEOREM_CHECKS: tuple[Callable[[int, int], Iterator[Row]], ...] = (
    _check_class_characterization,
    _check_anchored_avoidance_of_sortables,
    _check_anchored_132_avoiders,
    _check_effectiveness,
    _check_pass_reversal_lemma,
    _check_123_machine,
    _check_123_fertility_law,
    _check_two_letter_resolution,
)


def _check_limits(max_len: int, max_n: int) -> None:
    # A pattern length below 2 would leave every pattern check out silently.
    if max_n < 0:
        raise ValueError("n must be >= 0")
    if max_len < 2:
        raise ValueError("max pattern length must be >= 2")


def verify_theorems(max_len: int = 4, max_n: int = 8) -> list[CheckResult]:
    """Run every predicate/enumeration cross-check; see module docstring.

    Report lines come out sorted by check id, then pattern, then n.  The
    tables of earlier runs are dropped on entry, so a process holds one run's
    tables at most; verify_tables, called after it, reads the tables it
    built.  Raises ValueError for max_n < 0 or max_len < 2."""
    _check_limits(max_len, max_n)
    _machine.cache_clear()
    avoider_set.cache_clear()
    _masks.cache_clear()
    _perms.cache_clear()
    out = _report(row for check in _THEOREM_CHECKS for row in check(max_len, max_n))
    out.sort(key=lambda r: (r.check_id, r.subject, r.n))
    return out


# ---------------------------------------------------------------------------
# table suite


def _table_rows(max_len: int, max_n: int) -> Iterator[Row]:
    # (check id, published rows, the table entry counted, longest pattern):
    # the sortable rows are pinned whatever max_len is.
    for check_id, published, part, longest in (
        ("TAB sortable", SORTABLE_COUNTS, 0, math.inf),
        ("TAB sorted", SORTED_COUNTS, 1, max_len),
    ):
        for pattern, row in published.items():
            if len(pattern) > longest:
                continue
            for n in range(1, min(max_n, len(row)) + 1):
                got, want = len(_machine(pattern, max_n)[n][part]), row[n - 1]
                yield check_id, pattern, n, got == want, f"counted {got}, published {want}"
    seq21 = [len(_machine((2, 1), max_n)[n][1]) for n in range(1, min(max_n, 9) + 1)]
    detail = "no published values to pin; counted " + ", ".join(map(str, seq21))
    yield "TAB sorted", (2, 1), min(max_n, 9), "INFO", detail
    for m in range(2, min(max_len, 4) + 1):
        got = tuple(p for p in all_perms(m) if is_effective(p))
        detail = f"{len(got)} effective patterns of length {m}"
        yield "TAB effective", (), m, got == EFFECTIVE_PATTERNS[m], detail
    for m in range(2, max(3, min(max_len + 1, 5)) + 1):
        non_effective = sum(1 for p in all_perms(m) if not is_effective(p))
        want = catalan(m - 1)
        detail = f"counted {non_effective}, catalan({m - 1}) = {want}"
        yield "TAB noneffective-count", (), m, non_effective == want, detail
    if max_len >= 4:
        grouped: dict[str, list[Perm]] = {label: [] for label in ALL_LABELS}
        for m in (3, 4):
            for pattern in all_perms(m):
                grouped[classification_row(pattern).label].append(pattern)
        for label, want in zip(ALL_LABELS, CLASSIFICATION_GROUPS):
            got = tuple(sorted(grouped[label], key=lambda p: (len(p), p)))
            ok = got == tuple(sorted(want, key=lambda p: (len(p), p)))
            yield "TAB classification", (), 4, ok, f"row '{label}': {len(got)} patterns"


def verify_tables(max_len: int = 4, max_n: int = 8) -> list[CheckResult]:
    _check_limits(max_len, max_n)
    return _report(_table_rows(max_len, max_n))


# ---------------------------------------------------------------------------
# conjecture suite


def _conjecture_rows(max_n: int, minima_convention: str) -> Iterator[Row]:
    for n in range(1, min(5, max_n) + 1):
        got, want = sum(1 for _ in fishburn_permutations(n)), FISHBURN_NUMBERS[n - 1]
        yield "CONJ fishburn-def", (), n, got == want, f"counted {got}, reference {want}"
    compared = [compare_families(n, minima_convention) for n in range(1, max_n + 1)]
    for n, (dists, _) in enumerate(compared, start=1):
        a, c, b = (dist.total() for dist in dists)
        pinned = n <= len(EQUINUMEROUS_COUNTS)
        ok = a == b == c and (not pinned or a == EQUINUMEROUS_COUNTS[n - 1])
        detail = f"sort312 {a}, ascent201 {b}, fishburn3412 {c}" + (
            f", published {EQUINUMEROUS_COUNTS[n - 1]}" if pinned else ""
        )
        yield "CONJ cardinality", (), n, ok, detail
    for n, (_, mism) in enumerate(compared[:7], start=1):
        detail = f"{minima_convention} minima: " + (
            "joint distributions agree"
            if mism is None
            else f"mismatch at pair {mism[0]}: {mism[1]} vs {mism[2]}"
        )
        yield "CONJ equidistribution", (), n, "FINDING", detail


def verify_conjectures(max_n: int = 7, minima_convention: str = "strict") -> list[CheckResult]:
    if max_n < 0:
        raise ValueError("n must be >= 0")
    check_convention(minima_convention)
    return _report(_conjecture_rows(max_n, minima_convention))


def verify_all(max_len: int = 4, max_n: int = 8) -> list[CheckResult]:
    results = verify_theorems(max_len, max_n)
    results += verify_tables(max_len, max_n)
    results += verify_conjectures(min(max_n, 7))
    return results
