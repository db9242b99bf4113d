"""The three benchmark workloads: fixed job lists, request streams and the
checks that every answer must pass.

A workload is run one repetition at a time by ``worker.py`` in a fresh
process.  ``setup(seed, rep)`` builds the repetition's inputs, ``warm_up()``
makes a few untimed calls that touch no cache the timed part uses,
``operations()`` yields the timed operations, ``check(answers)`` returns
one message per wrong answer and ``counters(answers)`` counts work done.
Every call into the library goes through ``call(layer, tag, fn, *args)`` so
that a traced repetition can record a span around it; ``layer`` is
``<module>.<function>``.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Callable, Iterator, NamedTuple

from stacksort import (
    FISHBURN_PATTERN,
    classification_row,
    contains,
    contains_anchored_132,
    contains_bivincular,
    count_sortable,
    is_sortable,
    machine_output,
    sorted_profile,
    stack_pass_traced,
)
from stacksort.classify import (
    LABEL_CONTAINS_231_NOT_MIRROR,
    LABEL_CONTAINS_MIRROR,
    LABEL_NOT_EFFECTIVE,
    LABEL_PLAIN_AVOIDS_231,
    LABEL_SWAP_231_AND_231,
    LABEL_SWAP_231_NOT_231,
)
from stacksort.conjectures import KINDS, equidistribution_report
from stacksort.verify import (
    EQUINUMEROUS_COUNTS,
    SORTABLE_COUNTS,
    SORTED_COUNTS,
    verify_conjectures,
    verify_tables,
    verify_theorems,
)

Call = Callable[..., object]


class Operation(NamedTuple):
    """One timed request: ``run(call)`` returns the answer kept for checking."""

    name: str
    run: Callable[[Call], object]


def _tag(pattern: tuple[int, ...]) -> str:
    return f"k{len(pattern)}"


# ---------------------------------------------------------------------------
# enumerate: the batch job behind `stacksort count sortable|sorted`

# Sortable-input counts, n = 1..8 for k = 4 (no published rows exist; counted
# by brute force over all n! inputs, both with the library's
# sorts_to_identity and with first_pass below).
SORTABLE = {
    **SORTABLE_COUNTS,
    (2, 1, 3, 4): (1, 2, 5, 14, 45, 170, 740, 3567),
    (4, 1, 2, 3): (1, 2, 5, 14, 42, 135, 467, 1731),
}

# (kind, pattern, max_n): a count row covers n = 1..max_n, a profile n only.
ENUMERATE_JOBS = (
    ("count", (2, 3, 1), 9),
    ("count", (3, 1, 2), 9),
    ("count", (2, 1, 3), 9),
    ("count", (2, 1, 3, 4), 8),
    ("profile", (2, 1, 3, 4), 8),
    ("profile", (4, 1, 2, 3), 8),
    ("profile", (2, 1, 3), 8),
)


def _count_row(call: Call, sigma: tuple[int, ...], max_n: int) -> list[int]:
    return [
        call("enumeration.count_sortable", _tag(sigma), count_sortable, n, sigma)
        for n in range(1, max_n + 1)
    ]


def _profile(call: Call, sigma: tuple[int, ...], n: int) -> tuple[int, int]:
    prof = call("enumeration.sorted_profile", _tag(sigma), sorted_profile, n, sigma)
    return len(prof.entries), prof.total()


class Enumerate:
    """Fixed job list, timed as one operation: the job lengths differ by up
    to ten times, so a percentile over single jobs would jump from job to
    job.  The seed only sets the order the independent jobs run in."""

    def setup(self, seed: int, rep: int) -> None:
        self.jobs = list(ENUMERATE_JOBS)
        random.Random(f"enumerate:{seed}").shuffle(self.jobs)

    def warm_up(self) -> None:
        for kind, sigma, _ in self.jobs:
            (count_sortable if kind == "count" else sorted_profile)(4, sigma)

    def _run(self, call: Call) -> list:
        return [
            _count_row(call, sigma, n) if kind == "count" else _profile(call, sigma, n)
            for kind, sigma, n in self.jobs
        ]

    def operations(self) -> Iterator[Operation]:
        yield Operation("jobs", self._run)

    def check(self, answers: list[object]) -> list[str]:
        (results,) = answers
        errors = []
        for (kind, sigma, n), got in zip(self.jobs, results):
            if kind == "count":
                want = list(SORTABLE[sigma][:n])
            else:
                # (distinct outputs, profile mass = number of sortable inputs)
                want = (SORTED_COUNTS[sigma][n - 1], SORTABLE[sigma][n - 1])
            if got != want:
                errors.append(f"{kind} {sigma} n<={n}: got {got}, want {want}")
        return ["; ".join(errors)] if errors else []

    def counters(self, answers: list[object]) -> dict[str, int]:
        (results,) = answers
        kinds = [kind for kind, _, _ in self.jobs]
        return {
            "enumeration.count_sortable.leaves": sum(
                sum(got) for kind, got in zip(kinds, results) if kind == "count"
            ),
            "enumeration.sorted_profile.outputs": sum(
                got[0] for kind, got in zip(kinds, results) if kind == "profile"
            ),
        }


# ---------------------------------------------------------------------------
# verify: the reproduction gate, `stacksort verify` then `stacksort explore`

VERIFY_LINES = 381


class Verify:
    """Fixed job list, timed as one operation: verify_all(4, 7), made as its
    three parts so that each gets its own span, then
    equidistribution_report(8)."""

    def setup(self, seed: int, rep: int) -> None:
        pass

    def warm_up(self) -> None:
        # conjectures keeps no cache, unlike the lru_caches in verify
        equidistribution_report(3)

    def _run(self, call: Call) -> tuple[list, list[str]]:
        # exactly what verify_all(4, 7) runs, in its order
        results = (
            call("verify.verify_theorems", "", verify_theorems, 4, 7)
            + call("verify.verify_tables", "", verify_tables, 4, 7)
            + call("verify.verify_conjectures", "", verify_conjectures, 7)
        )
        return results, call("conjectures.equidistribution_report", "", equidistribution_report, 8)

    def operations(self) -> Iterator[Operation]:
        yield Operation("verify", self._run)

    def check(self, answers: list[object]) -> list[str]:
        ((results, lines),) = answers
        errors = []
        fails = [r.line() for r in results if r.status == "FAIL"]
        if fails or len(results) != VERIFY_LINES:
            errors.append(f"verify_all(4, 7): {len(results)} lines, want {VERIFY_LINES}; {fails}")
        totals = [line.strip() for line in lines if "(total " in line]
        want = [
            f"{kind} (total {count})" for count in EQUINUMEROUS_COUNTS for kind in KINDS
        ]
        if totals != want:
            errors.append(f"equidistribution_report(8) totals {totals}, want {want}")
        return ["; ".join(errors)] if errors else []

    def counters(self, answers: list[object]) -> dict[str, int]:
        return {}


# ---------------------------------------------------------------------------
# queries: single-permutation requests on long inputs

SIGMAS = [p for k in (3, 4) for p in itertools.permutations(range(1, k + 1))]
TAUS = {k: list(itertools.permutations(range(1, k + 1))) for k in (3, 4, 5)}
RANDOM_N = (32, 256)
# The generic push test and the generic occurrence search grow roughly as
# n**4 on 132-avoiders: one machine_output for sigma = 1342 takes 0.25 s at
# n = 48 and 10 s at n = 128 on one core of a Xeon KVM guest, so avoiders
# stay short to keep a run's requests in the thousands.
AVOIDER_N = (32, 40)
# Requests per (kind, input class) in a repetition: each sigma three times,
# and 1260 requests in all, so that more than ten lie beyond a repetition's p99.
ROUNDS = 90

KIND_NAMES = (
    "machine_output",
    "stack_pass_traced",
    "is_sortable",
    "contains",
    "fishburn",
    "anchored_132",
    "classification_row",
)


def avoider_132(n: int, rng: random.Random) -> tuple[int, ...]:
    """A random 132-avoider: n sits between a 132-avoider on the values above
    the part to its right and a 132-avoider on the values below."""

    def build(size: int, low: int) -> list[int]:
        if size == 0:
            return []
        left = rng.randrange(size)
        return build(left, low + size - 1 - left) + [low + size] + build(size - 1 - left, low)

    return tuple(build(n, 0))


class Request(NamedTuple):
    kind: str
    avoider: bool
    perm: tuple[int, ...]
    pattern: tuple[int, ...]  # sigma for machine kinds, tau for contains


def _spread(rng: random.Random, values: list, count: int) -> list:
    """count values in random order, each value as often as possible."""
    out: list = []
    while len(out) < count:
        cycle = list(values)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:count]


def make_requests(rng: random.Random, rounds: int, n_range: tuple[int, int] | None = None) -> list[Request]:
    """rounds requests for each (kind, input class), shuffled.  Within a
    cell the patterns, the tau lengths and n (one from each of rounds equal
    strata) are spread evenly, so that repetitions and seeds differ only in
    the draws within them."""
    out = []
    for kind in KIND_NAMES:
        for avoider in (False, True):
            lo, hi = n_range or (AVOIDER_N if avoider else RANDOM_N)
            if kind == "contains":
                patterns = [rng.choice(TAUS[k]) for k in _spread(rng, [3, 4, 5], rounds)]
            else:
                patterns = _spread(rng, SIGMAS, rounds)
            for i, pattern in enumerate(patterns):
                n = lo + int((hi - lo + 1) * (i + rng.random()) / rounds)
                perm = avoider_132(n, rng) if avoider else tuple(rng.sample(range(1, n + 1), n))
                out.append(Request(kind, avoider, perm, pattern))
    rng.shuffle(out)
    return out


def serve(call: Call, req: Request) -> object:
    p, s = req.perm, req.pattern
    if req.kind == "machine_output":
        return call("machine.machine_output", _tag(s), machine_output, s, p)
    if req.kind == "stack_pass_traced":
        return call("machine.stack_pass_traced", _tag(s), stack_pass_traced, s, p)
    if req.kind == "is_sortable":
        return call("machine.is_sortable", _tag(s), is_sortable, s, p)
    if req.kind == "contains":
        return call("perms.contains", _tag(s), contains, p, s)
    if req.kind == "fishburn":
        return call("bivincular.contains_bivincular", "fishburn", contains_bivincular, p, FISHBURN_PATTERN)
    if req.kind == "anchored_132":
        return call("bivincular.contains_anchored_132", "", contains_anchored_132, p)
    return call("classify.classification_row", "", classification_row, p)


# Independent oracles: none of them calls the library.


def has_132(p: tuple[int, ...]) -> bool:
    # Right to left: `two` is the largest value popped so far, so it has a
    # larger value to its left; any value further left below it is a "1".
    two = 0
    stack: list[int] = []
    for v in reversed(p):
        if v < two:
            return True
        while stack and stack[-1] < v:
            two = stack.pop()
        stack.append(v)
    return False


def has_231(p: tuple[int, ...]) -> bool:
    return has_132(p[::-1])


def has_fishburn(p: tuple[int, ...]) -> bool:
    # 231 at positions i, i+1, j > i+1 with p[j] = p[i] - 1
    where = {v: i for i, v in enumerate(p)}
    return any(
        p[i] < p[i + 1] and where.get(p[i] - 1, -1) > i + 1 for i in range(len(p) - 1)
    )


def has_anchored_132(p: tuple[int, ...]) -> bool:
    # 132 at positions 1, j, j+1
    return any(p[0] < p[j + 1] < p[j] for j in range(1, len(p) - 1))


def _window(vals: list[int], sigma: tuple[int, ...]) -> tuple[int, int]:
    """Open value interval for entry len(vals) of an occurrence of sigma
    whose earlier entries are vals."""
    t = len(vals)
    lo = max((x for x, s in zip(vals, sigma) if s < sigma[t]), default=0)
    hi = min((x for x, s in zip(vals, sigma) if s > sigma[t]), default=1 << 62)
    return lo, hi


def starts_occurrence(
    stack: list[int], bottoms: list[list[int]], vals: list[int], sigma: tuple[int, ...], top: int
) -> bool:
    """Do vals, then entries of stack[:top] read top to bottom, complete an
    occurrence of sigma?  bottoms[m] is sorted(stack[:m]), so the last entry
    is a bisection: is any value below the previous entry in its window?"""
    t = len(vals)
    lo, hi = _window(vals, sigma)
    if t == len(sigma) - 1:
        below = bottoms[top]
        i = bisect.bisect_right(below, lo)
        return i < len(below) and below[i] < hi
    for idx in range(top - 1, len(sigma) - 2 - t, -1):
        c = stack[idx]
        if lo < c < hi and starts_occurrence(stack, bottoms, vals + [c], sigma, idx):
            return True
    return False


def first_pass(sigma: tuple[int, ...], perm: tuple[int, ...], stop_on_231: bool = False):
    """(output, [(op, value), ...]) of the greedy sigma-stack pass, with the
    push test above; None when stop_on_231 and the output contains 231,
    found as soon as a prefix of it does."""
    stack: list[int] = []
    bottoms: list[list[int]] = [[]]
    out: list[int] = []
    events: list[tuple[str, int]] = []
    for v in perm:
        popped = False
        while stack and starts_occurrence(stack, bottoms, [v], sigma, len(stack)):
            out.append(stack.pop())
            bottoms.pop()
            events.append(("pop", out[-1]))
            popped = True
        if popped and stop_on_231 and has_231(tuple(out)):
            return None
        stack.append(v)
        bottoms.append(sorted(bottoms[-1] + [v]))
        events.append(("push", v))
    while stack:
        out.append(stack.pop())
        events.append(("pop", out[-1]))
    if stop_on_231 and has_231(tuple(out)):
        return None
    return tuple(out), events


def stack_sort(p: tuple[int, ...]) -> tuple[int, ...]:
    """One pass through a plain stack: pop while the top is smaller."""
    stack: list[int] = []
    out: list[int] = []
    for v in p:
        while stack and stack[-1] < v:
            out.append(stack.pop())
        stack.append(v)
    return tuple(out + stack[::-1])


def expected_row(p: tuple[int, ...]) -> tuple:
    """(is_class, basis, is_effective, sortables_avoid_anchored_132, label)
    from the characterizations, with the oracles' own 231 tests."""
    swapped = (p[1], p[0]) + p[2:]
    swap231, self231 = has_231(swapped), has_231(p)
    # reversed anchored 132: 231 at positions i, i+1, n
    mirror = any(p[-1] < p[i] < p[i + 1] for i in range(len(p) - 2))
    basis = ((1, 3, 2),) if self231 else ((1, 3, 2), p[::-1])
    effective = swapped[0] != 1 or has_231(swapped[1:])  # order is all that matters
    if swap231:
        label = LABEL_SWAP_231_AND_231 if self231 else LABEL_SWAP_231_NOT_231
    elif swapped[0] == 1:
        label = LABEL_NOT_EFFECTIVE
    elif not self231:
        label = LABEL_PLAIN_AVOIDS_231
    else:
        label = LABEL_CONTAINS_MIRROR if mirror else LABEL_CONTAINS_231_NOT_MIRROR
    return swap231, basis if swap231 else None, effective, swap231 or not mirror, label


def brute_contains(p: tuple[int, ...], tau: tuple[int, ...]) -> bool:
    """Subsequence search over k-subsets of positions: random ones first, as
    a long host usually shows an occurrence at once, then all of them."""
    k = len(tau)
    order = sorted(range(k), key=tau.__getitem__)

    def matches(sub: tuple[int, ...]) -> bool:
        return all(sub[a] < sub[b] for a, b in zip(order, order[1:]))

    rng = random.Random(0)
    positions = range(len(p))
    for _ in range(2000):
        if matches(tuple(p[i] for i in sorted(rng.sample(positions, k)))):
            return True
    return any(matches(sub) for sub in itertools.combinations(p, k))


def check_request(req: Request, got: object) -> str | None:
    """A message if the answer is wrong, else None."""
    p, s = req.perm, req.pattern
    if req.avoider and has_132(p):
        return f"generator produced a 132-containing input {p}"
    if req.kind == "machine_output":
        ok = got == stack_sort(first_pass(s, p)[0])
    elif req.kind == "stack_pass_traced":
        out, trace = got
        ok = (out, [(e.op, e.value) for e in trace]) == first_pass(s, p)
    elif req.kind == "is_sortable":
        # sortable iff the first pass emits a 231-avoider (Knuth)
        ok = got == (first_pass(s, p, stop_on_231=True) is not None)
    elif req.kind == "contains":
        if req.avoider and has_132(s):
            want = False  # a 132-avoider avoids every pattern containing 132
        else:
            want = brute_contains(p, s)
        ok = got == want
    elif req.kind == "fishburn":
        ok = got == has_fishburn(p)
    elif req.kind == "anchored_132":
        ok = got == has_anchored_132(p)
    else:
        ok = (
            got.is_class,
            got.class_basis,
            got.is_effective,
            got.sortables_avoid_anchored_132,
            got.label,
        ) == expected_row(p)
    return None if ok else f"{req.kind} sigma/tau={s} on {p}: wrong answer {got!r}"


class Queries:
    """A stream of single-permutation requests, ROUNDS per (kind, input
    class) in a repetition."""

    def setup(self, seed: int, rep: int) -> None:
        self.requests = make_requests(random.Random(f"queries:{seed}:{rep}"), ROUNDS)

    def warm_up(self) -> None:
        for req in make_requests(random.Random("warm-up"), 1, (16, 16)):
            serve(lambda layer, tag, fn, *args: fn(*args), req)

    def operations(self) -> Iterator[Operation]:
        for req in self.requests:
            yield Operation(req.kind, lambda call, r=req: serve(call, r))

    def check(self, answers: list[object]) -> list[str]:
        errors = []
        for req, got in zip(self.requests, answers):
            msg = check_request(req, got)
            if msg:
                errors.append(msg)
        return errors

    def counters(self, answers: list[object]) -> dict[str, int]:
        sortable = [got for req, got in zip(self.requests, answers) if req.kind == "is_sortable"]
        return {"is_sortable.calls": len(sortable), "is_sortable.accepted": sum(map(bool, sortable))}


def make(workload: str):
    if workload == "enumerate":
        return Enumerate()
    if workload == "verify":
        return Verify()
    if workload == "queries":
        return Queries()
    raise ValueError(f"unknown workload {workload!r}")
