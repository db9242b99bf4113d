"""Exhaustive enumeration of sortable inputs, sorted outputs and fertilities.

Every enumerator is one walk of the prefix tree of inputs.  The greedy pass
is deterministic, so the machine state after consuming a prefix is the same
for every completion: the walker applies the step of `machine.greedy_step`
once per tree node, to its own copy of the parent's stack and blocked-value
masks, and each leaf drains the stack.  The parent's top mask answers the
first push test of every child.
Every batch of values a node emits (the leaf drain included) goes through a
prune hook, which can cut the branch, since the output only grows:

- sortable inputs: cut once the output contains 231;
- fertility of gamma: cut once the output is no longer a prefix of gamma;
- all first-pass outputs: never cut.

Leaves come out lazily in lexicographic input order.  Counts and profiles
are sums over one whole walk of `sortable_pairs`, run serially in the
calling process.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .machine import check_forbidden, greedy_step
from .perms import Perm, as_perm, watch_231

Pair = tuple[Perm, Perm]

# (values a node emits, state at the node) -> state below the node, or None
# to cut the branch there
PruneHook = Callable[[list[int], object], object]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _walk(forbidden: Perm, n: int, hook: PruneHook, state: object) -> Iterator[Pair]:
    """Yield (input, first-pass output) for every input of length n that the
    hook keeps, in lexicographic input order."""

    step = greedy_step(forbidden, n)

    def rec(
        free: tuple[int, ...],
        stack: list[int],
        blocked: list[int],
        out: Perm,
        prefix: Perm,
        state: object,
    ) -> Iterator[Pair]:
        if not free:
            drained = stack[::-1]
            if hook(drained, state) is not None:
                yield prefix, out + tuple(drained)
            return
        for i, v in enumerate(free):
            s, b = stack.copy(), blocked.copy()
            popped: list[int] = []
            step(v, s, b, popped.append)
            child = hook(popped, state) if popped else state
            if child is not None:
                rest = free[:i] + free[i + 1 :]
                yield from rec(rest, s, b, out + tuple(popped), prefix + (v,), child)

    return rec(tuple(range(1, n + 1)), [], [0], (), (), state)


def _no_231(popped: list[int], state: object) -> object:
    mono, ceiling = state
    mono = mono.copy()
    ceiling = watch_231(popped, mono, ceiling)
    return None if ceiling < 0 else (mono, ceiling)


def _never(popped: list[int], state: object) -> object:
    return state


def sortable_pairs(n: int, forbidden: Perm) -> Iterator[Pair]:
    """(input, first-pass output) for every sortable input of length n,
    lexicographic input order: the sortable twin of machine_outputs."""
    return _walk(check_forbidden(forbidden, n), n, _no_231, ([], 0))


def sortable_permutations(n: int, forbidden: Perm) -> Iterator[Perm]:
    """All sortable permutations of length n, lexicographic order."""
    return (p for p, _ in sortable_pairs(n, forbidden))


def machine_outputs(n: int, forbidden: Perm) -> Iterator[Pair]:
    """(input, first-pass output) for every permutation of length n,
    lexicographic input order."""
    return _walk(check_forbidden(forbidden, n), n, _never, ())


def count_sortable(n: int, forbidden: Perm) -> int:
    """|{p of length n : machine sorts p}|."""
    return sum(1 for _ in sortable_pairs(n, forbidden))


@dataclass
class SortedProfile:
    """Map from each first-pass output of a sortable input to the number of
    sortable inputs producing it; entries are keyed in lexicographic order."""

    n: int
    forbidden: Perm
    entries: dict[Perm, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.entries.values())


def sorted_profile(n: int, forbidden: Perm) -> SortedProfile:
    forbidden = check_forbidden(forbidden, n)
    counts = Counter(out for _, out in sortable_pairs(n, forbidden))
    return SortedProfile(n, forbidden, {k: counts[k] for k in sorted(counts)})


def count_sorted(n: int, forbidden: Perm) -> int:
    """Number of distinct first-pass outputs over all sortable inputs."""
    return len(sorted_profile(n, forbidden).entries)


def fertility(forbidden: Perm, gamma: Perm) -> int:
    """Number of permutations (of the same length, sortable or not) whose
    first-pass output is exactly gamma."""
    forbidden = check_forbidden(forbidden)
    target = list(as_perm(gamma))

    def prefix_of_gamma(popped: list[int], done: object) -> object:
        end = done + len(popped)
        return end if target[done:end] == popped else None

    return sum(1 for _ in _walk(forbidden, len(target), prefix_of_gamma, 0))


def count_sortable_123_formula(n: int) -> int:
    """Closed-form count of inputs the 123-machine sorts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 + sum((n - j) * catalan(j) for j in range(1, n))


def gamma_decomposition_123(gamma: Perm) -> tuple[int, int, int] | None:
    """Split a {123, 231}-avoider into three descending runs.

    Returns (i, j, k) such that gamma is the values n..j+k+1 descending, then
    j..1 descending, then j+k..j+1 descending, with j >= 1 and i maximal
    among the splits realizing the same word; None when no split exists.
    """
    n = len(gamma)
    if n < 1:
        raise ValueError("gamma must be nonempty")
    run = 0
    while run < n and gamma[run] == n - run:
        run += 1
    for i in range(min(run, n - 1), -1, -1):
        j = gamma[i]
        if i + j > n:
            continue
        if any(gamma[i + a] != j - a for a in range(j)):
            continue
        k = n - i - j
        if all(gamma[i + j + a] == j + k - a for a in range(k)):
            return (i, j, k)
    return None
