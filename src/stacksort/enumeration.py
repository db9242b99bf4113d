"""Exhaustive enumeration of sortable inputs, sorted outputs and fertilities.

Every enumerator is one walk of the prefix tree of inputs, `prefix_walk`:
one loop over an explicit list of frames, with no recursion, so the walk's
depth is not bounded by the interpreter's recursion limit.  The greedy pass
is deterministic, so the machine state after consuming a prefix is the same
for every completion.  For each child v of a tree node the walker reads the
depth d at which v lands from the node's blocked-value masks, counting down
from the top while blocked[d] >> v & 1, and asks a prune hook whether to
take the child, before any copy or push.  Only a kept child gets its slice
of the node's stack and masks and the push of v (`machine.greedy_step`);
its output grows by the popped entries stack[d:], top first.  A node with
two free values finishes its subtree itself, so the nodes of depth n - 1
never get a frame: it pushes each kept child and lands and judges the
leaf below it.  A leaf is landed and judged but never pushed, so a full
walk pushes once per node of depth 1..n - 1.

The stack is last-in first-out, so a node's committed sequence, its output
followed by its stack read top down, is a subsequence of the output of every
leaf below it, and the hook judges the child on the child's committed
sequence:

- sortable inputs: it must avoid 231.  The node's own does, so only
  occurrences through v are tested, each in O(1) from masks the hook state
  keeps per stack level beside the blocked masks;
- fertility of gamma: it must be a prefix of gamma followed by a
  subsequence of the rest of gamma;
- all first-pass outputs: never cut.

A kept leaf needs no further check.  Leaves come out lazily in
lexicographic input order.  Counts and profiles are sums over one whole walk
of `sortable_pairs`, run serially in the calling process.  The walk is not
tied to the machine's own questions: `conjectures.fishburn_avoiding` lists
a prefix-closed family by the same walk with its own hook.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .machine import check_forbidden, greedy_step
from .perms import Perm, as_perm

Pair = tuple[Perm, Perm]

# (v, depth d where v lands, the node's stack, the node's state) -> the
# child's state, or None to cut the child before its push
PruneHook = Callable[[int, int, list[int], object], object]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def prefix_walk(forbidden: Perm, n: int, hook: PruneHook, state: object) -> Iterator[Pair]:
    """Yield (input, first-pass output) for every input of length n that the
    hook keeps, in lexicographic input order.

    One loop, no recursion, over the nodes with at least two free values.
    `frames` holds one saved frame per node above the current one: (free
    values, stack, blocked masks, out, prefix, hook state, index of its
    next child); `left` counts the current node's free values and `top`
    its stack's length.  A kept child saves its parent and becomes the
    current node; a node out of children resumes its parent.  A node with
    two free values finishes its subtree itself: for each kept child v it
    pushes v and lands and judges the other value, the leaf, which is never
    pushed.  A leaf's output is out, the entries v popped top first, v,
    then the stack read top down with the leaf where it lands."""
    push = greedy_step(forbidden, n)
    if n < 2:  # the root is the leaf, or its one child is
        if not n:
            yield (), ()
        elif hook(1, 0, [], state) is not None:
            yield (1,), (1,)
        return
    frames: list[tuple] = []
    free, stack, blocked = tuple(range(1, n + 1)), [], [0]
    out: Perm = ()
    prefix: Perm = ()
    left, top, i = n, 0, 0
    while True:
        if left == 2:
            for v, w in (free, free[::-1]):
                d = top
                while blocked[d] >> v & 1:
                    d -= 1
                child = hook(v, d, stack, state)
                if child is None:
                    continue
                below, masks = stack[:d], blocked[: d + 1]
                push(v, below, masks)
                e = d + 1
                while masks[e] >> w & 1:
                    e -= 1
                if hook(w, e, below, child) is not None:
                    tail = stack[::-1]
                    tail.insert(top - d, v)
                    tail.insert(top + 1 - e, w)
                    yield prefix + (v, w), out + tuple(tail)
            i = 2  # done: resume the parent
        while i < left:
            v = free[i]
            i += 1
            d = top
            while blocked[d] >> v & 1:
                d -= 1
            child = hook(v, d, stack, state)
            if child is not None:
                frames.append((free, stack, blocked, out, prefix, state, i))
                if d < top:  # stack[d:] leaves, top first
                    out += tuple(stack[d:])[::-1]
                stack, blocked = stack[:d], blocked[: d + 1]
                push(v, stack, blocked)
                free = free[: i - 1] + free[i:]
                prefix += (v,)
                state = child
                left, top, i = left - 1, d + 1, 0
                break
        else:
            if not frames:
                return
            free, stack, blocked, out, prefix, state, i = frames.pop()
            left, top = left + 1, len(stack)


def _no_231(v: int, d: int, stack: list[int], state: object) -> object:
    """Keep v, landing at depth d, when out + popped + v + stack[:d] read
    top down avoids 231, given that out + the stack read top down does.

    state is (ceiling, emitted, levels): the 231 watcher's ceiling after
    out (`perms.watch_231`), the mask of the values in out, and for each
    stack level j the mask of stack[:j], its minimum (n + 1 when j = 0) and
    the union of the open intervals (min(stack[:i]), stack[i]) over i < j.
    """
    ceiling, emitted, levels = state
    below, low, inner = levels[d]
    if d < len(stack):
        # The popped entries add the pairs a < b, a first: a in out below
        # the largest popped value, or a popped value that sits above a
        # larger popped one.  The stack read bottom up avoids 132, so the
        # latter are the entries above stack[d] that are smaller than it.
        popped = levels[-1][0] ^ below
        a = (emitted & (1 << popped.bit_length() - 1) - 1).bit_length() - 1
        if a > ceiling:
            ceiling = a
        a = (popped & (1 << stack[d]) - 1).bit_length() - 1
        if a > ceiling:
            ceiling = a
        emitted |= popped
    # v is the 1 after such a pair; or the 2 before an entry of stack[:d]
    # above it in value and a deeper entry below it; or the 3 after an
    # emitted value above min(stack[:d]) and below v
    if v < ceiling or inner >> v & 1 or (emitted & (1 << v) - 1) >> low + 1:
        return None
    levels = levels[: d + 1]
    if low < v:
        levels.append((below | 1 << v, low, inner | (1 << v) - (2 << low)))
    else:
        levels.append((below | 1 << v, v, inner))
    return ceiling, emitted, levels


def _never(v: int, d: int, stack: list[int], state: object) -> object:
    return state


def sortable_pairs(n: int, forbidden: Perm) -> Iterator[Pair]:
    """(input, first-pass output) for every sortable input of length n,
    lexicographic input order: the sortable twin of machine_outputs."""
    return prefix_walk(check_forbidden(forbidden, n), n, _no_231, (0, 0, [(0, n + 1, 0)]))


def sortable_permutations(n: int, forbidden: Perm) -> Iterator[Perm]:
    """All sortable permutations of length n, lexicographic order."""
    return (p for p, _ in sortable_pairs(n, forbidden))


def machine_outputs(n: int, forbidden: Perm) -> Iterator[Pair]:
    """(input, first-pass output) for every permutation of length n,
    lexicographic input order."""
    return prefix_walk(check_forbidden(forbidden, n), n, _never, ())


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
    target = as_perm(gamma)
    pos = [0] * (len(target) + 1)
    for i, x in enumerate(target):
        pos[x] = i

    def follows_gamma(v: int, d: int, stack: list[int], done: object) -> object:
        # Invariant: out is gamma[:done] and the stack, read top down, sits
        # at increasing positions of gamma[done:].  So the popped entries
        # are gamma's next ones exactly when the deepest of them, stack[d],
        # ends that run; v must follow them and precede stack[d - 1].
        end = done + len(stack) - d
        if d < len(stack) and pos[stack[d]] >= end:
            return None
        if pos[v] < end or d and pos[v] > pos[stack[d - 1]]:
            return None
        return end

    return sum(1 for _ in prefix_walk(forbidden, len(target), follows_gamma, 0))


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
