"""Exhaustive enumeration of sortable inputs, sorted outputs and fertilities.

Every enumerator is one walk of the prefix tree of inputs, `prefix_walk`:
one loop over an explicit list of frames, with no recursion, so the walk's
depth is not bounded by the interpreter's recursion limit.  The greedy pass
is deterministic, so the machine state after consuming a prefix is the same
for every completion.  For each child v of a tree node the walker reads the
depth d at which v lands from the node's blocked-value masks, counting down
from the top while blocked[d] >> v & 1, and asks a prune hook whether to
take the child, before any copy or push.  Only a kept child gets its slice
of the node's stack and masks and the mask of v's level
(`machine.greedy_step`); its output grows by the popped entries stack[d:],
top first.  A node with two free values finishes its subtree itself, so the
nodes of depth n - 1 never get a frame: for each kept child v it asks the
step for v's mask on the node's own lists, lands the leaf below v from that
one mask and the node's masks, and asks the hook's leaf test, which builds
no state.  A leaf is landed and judged but never pushed, so a full walk
asks the step once per node of depth 1..n - 1.

The stack is last-in first-out, so a node's committed sequence, its output
followed by its stack read top down, is a subsequence of the output of every
leaf below it, and the hook judges the child on the child's committed
sequence:

- sortable inputs: it must avoid 231, and every value below the a of a
  pair a < b of its output, a first, must be out, as the rest follow b.
  The node's own does both, so only the pairs the pops add and occurrences
  through v are tested, each in O(1) from masks the hook state keeps;
- fertility of gamma: it must be a prefix of gamma followed by a
  subsequence of the rest of gamma;
- all first-pass outputs: never cut.

A kept leaf needs no further check.  Leaves come out lazily in
lexicographic input order.  Profiles are sums over one whole walk of
`sortable_pairs`; `count_sortable` and `fertility` run the same walk with
no input or output tuples, and count the leaves it keeps.  The greedy rule
reads only relative order, so a node whose prefix holds exactly 1..j holds
that shorter input's own machine state: `every_length_pairs` lists the
inputs of every length up to n, with their outputs, from one walk.  Every
walk runs serially in the calling process.  The walk is not tied to the
machine's own questions: `conjectures.fishburn_avoiding` lists a
prefix-closed family by the same walk with its own hook.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from .machine import check_forbidden, greedy_step
from .perms import Perm, as_perm

Pair = tuple[Perm, Perm]


class PruneHook(NamedTuple):
    """What a walk asks about each child, given the node's stack and state.

    child(v, d, stack, state) judges the child v, which lands at depth d:
    the child's state, or None to cut it before its push.  leaf(w, e, v, d,
    stack, state) judges the leaf w below a kept child v, given v's state:
    w lands at depth e of v's stack, stack[:d] + [v], which is not built.
    It returns a bool and builds nothing.
    """

    child: Callable[[int, int, list[int], object], object]
    leaf: Callable[[int, int, int, int, list[int], object], bool]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def prefix_walk(
    forbidden: Perm,
    n: int,
    hook: PruneHook,
    state: object,
    pairs: bool = True,
    every_length: bool = False,
) -> Iterator[Pair | int]:
    """Yield (input, first-pass output) for every input of length n that the
    hook keeps, in lexicographic input order.  With pairs false, build no
    input or output tuple and yield once: the number of leaves kept.  With
    every_length (pairs only), also yield (q, first-pass output) for every
    kept node whose prefix q holds exactly the values 1..len(q), 0 < len(q)
    < n: such a node holds q's own machine state, as the greedy rule reads
    only relative order, so q's output is the node's out followed by its
    stack read top down.  Each length comes out in lexicographic order, the
    lengths interleaved.  Only the first child v of a node can be one, when
    the node's other free values are exactly len(q) + 1..n; at a node with
    two free values, v is one when the other value is n.

    One loop, no recursion, over the nodes with at least two free values.
    `frames` holds one saved frame per node above the current one: (free
    values, stack, blocked masks, out, prefix, hook state, index of its
    next child); `left` counts the current node's free values and `top`
    its stack's length.  A kept child saves its parent and becomes the
    current node; a node out of children resumes its parent.  A node with
    two free values finishes its subtree itself.  For each kept child v it
    asks the step for the mask of v's level on its own lists, and lands the
    other value, the leaf w, from that one mask, then from its own masks
    below d; the leaf test judges w, which is never pushed.  A leaf's output
    is out, the entries v popped top first, v, then the stack read top down
    with the leaf where it lands."""
    child_of, leaf = hook
    step = greedy_step(forbidden, n)
    if n < 2:  # the root is the leaf, or its one child is
        kept = int(not n or child_of(1, 0, [], state) is not None)
        if not pairs:
            yield kept
        elif kept:
            p = tuple(range(1, n + 1))
            yield p, p
        return
    frames: list[tuple] = []
    free, stack, blocked = tuple(range(1, n + 1)), [], [0]
    out: Perm = ()
    prefix: Perm = ()
    left, top, i, kept = n, 0, 0, 0
    while True:
        if left == 2:
            for v, w in (free, free[::-1]):
                d = top
                while blocked[d] >> v & 1:
                    d -= 1
                child = child_of(v, d, stack, state)
                if child is None:
                    continue
                e = d + 1
                if step(v, d, stack, blocked) >> w & 1:
                    e = d
                    while blocked[e] >> w & 1:
                        e -= 1
                if pairs:
                    if every_length and w == n:  # prefix + (v,) holds 1..n - 1
                        popped, below = stack[d:][::-1], stack[:d][::-1]
                        yield prefix + (v,), out + tuple(popped) + (v,) + tuple(below)
                    if not leaf(w, e, v, d, stack, child):
                        continue
                    tail = stack[::-1]
                    tail.insert(top - d, v)
                    tail.insert(top + 1 - e, w)
                    yield prefix + (v, w), out + tuple(tail)
                elif leaf(w, e, v, d, stack, child):
                    kept += 1
            i = 2  # done: resume the parent
        while i < left:
            v = free[i]
            i += 1
            d = top
            while blocked[d] >> v & 1:
                d -= 1
            child = child_of(v, d, stack, state)
            if child is not None:
                frames.append((free, stack, blocked, out, prefix, state, i))
                if pairs:
                    if d < top:  # stack[d:] leaves, top first
                        out += tuple(stack[d:])[::-1]
                    prefix += (v,)
                    if every_length and i == 1 and free[1] == n + 2 - left:
                        yield prefix, out + (v,) + tuple(stack[:d][::-1])
                mask = step(v, d, stack, blocked)
                stack, blocked = stack[:d], blocked[: d + 1]
                stack.append(v)
                blocked.append(mask)
                free = free[: i - 1] + free[i:]
                state = child
                left, top, i = left - 1, d + 1, 0
                break
        else:
            if not frames:
                if not pairs:
                    yield kept
                return
            free, stack, blocked, out, prefix, state, i = frames.pop()
            left, top = left + 1, len(stack)


def _no_231(v: int, d: int, stack: list[int], state: object) -> object:
    """Keep v, landing at depth d, when out + popped + v + stack[:d] read
    top down avoids 231 and every value below the a of a pair a < b of out
    + popped, a first, is out: the rest come out after b.  The node's own
    does both, so no value still to come lies below such an a.

    state is (emitted, levels): the mask of the values in out, and for each
    stack level j the mask of stack[:j], its minimum (n + 1 when j = 0) and
    the union of the open intervals (min(stack[:i]), stack[i]) over i < j.
    """
    emitted, levels = state
    below, low, inner = levels[d]
    top = len(stack)
    if d < top:
        # The popped entries add the pairs a < b, a first: a in out below
        # the largest popped value, or a popped value that sits above a
        # larger popped one.  The stack read bottom up avoids 132, so the
        # latter are the entries above stack[d] that are smaller than it.
        # Each a lies below the least value not yet out: the lowest clear
        # bit of emitted above bit 0.
        popped = levels[top][0] ^ below
        a = emitted & (1 << popped.bit_length() - 1) - 1
        a |= popped & (1 << stack[d]) - 1
        emitted |= popped
        if a > (emitted + 2 & ~emitted):
            return None
    # v is the 2 before an entry of stack[:d] above it in value and a
    # deeper entry below it; or the 3 after an emitted value above
    # min(stack[:d]) and below v
    if inner >> v & 1 or (emitted & (1 << v) - 1) >> low + 1:
        return None
    levels = levels[: d + 1]
    if low < v:
        levels.append((below | 1 << v, low, inner | (1 << v) - (2 << low)))
    else:
        levels.append((below | 1 << v, v, inner))
    return emitted, levels


def _no_231_leaf(w: int, e: int, v: int, d: int, stack: list[int], state: object) -> bool:
    """The test of `_no_231` for the leaf w landing at depth e of
    stack[:d] + [v], whose state is v's; no state is built."""
    emitted, levels = state
    below, low, inner = levels[e]
    if e <= d:  # the entries e.. of stack[:d] + [v] leave
        popped = levels[d + 1][0] ^ below
        a = emitted & (1 << popped.bit_length() - 1) - 1
        a |= popped & (1 << (stack[e] if e < d else v)) - 1
        emitted |= popped
        if a > (emitted + 2 & ~emitted):
            return False
    return not (inner >> w & 1 or (emitted & (1 << w) - 1) >> low + 1)


def _never(v: int, d: int, stack: list[int], state: object) -> object:
    return state


def _never_leaf(w: int, e: int, v: int, d: int, stack: list[int], state: object) -> bool:
    return True


_SORTABLE = PruneHook(_no_231, _no_231_leaf)
_ALL_OUTPUTS = PruneHook(_never, _never_leaf)


def _sortable_walk(
    n: int, forbidden: Perm, pairs: bool, every_length: bool = False
) -> Iterator[Pair | int]:
    forbidden = check_forbidden(forbidden, n)
    return prefix_walk(forbidden, n, _SORTABLE, (0, [(0, n + 1, 0)]), pairs, every_length)


def sortable_pairs(n: int, forbidden: Perm) -> Iterator[Pair]:
    """(input, first-pass output) for every sortable input of length n,
    lexicographic input order: the sortable twin of machine_outputs."""
    return _sortable_walk(n, forbidden, True)


def sortable_permutations(n: int, forbidden: Perm) -> Iterator[Perm]:
    """All sortable permutations of length n, lexicographic order."""
    return (p for p, _ in sortable_pairs(n, forbidden))


def machine_outputs(n: int, forbidden: Perm) -> Iterator[Pair]:
    """(input, first-pass output) for every permutation of length n,
    lexicographic input order."""
    return prefix_walk(check_forbidden(forbidden, n), n, _ALL_OUTPUTS, ())


def every_length_pairs(n: int, forbidden: Perm, sortable: bool = False) -> Iterator[Pair]:
    """The pairs of machine_outputs(j, forbidden), or of sortable_pairs(j,
    forbidden) when sortable, for every j = 1..n (j = 0 for n = 0), from one
    walk of length n: lexicographic within each length, the lengths
    interleaved."""
    if sortable:
        return _sortable_walk(n, forbidden, True, True)
    return prefix_walk(check_forbidden(forbidden, n), n, _ALL_OUTPUTS, (), True, True)


def count_sortable(n: int, forbidden: Perm) -> int:
    """|{p of length n : machine sorts p}|."""
    return next(_sortable_walk(n, forbidden, False))


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

    def gamma_leaf(w: int, e: int, v: int, d: int, stack: list[int], done: object) -> bool:
        # The same test on stack[:d] + [v]: w is the last value, so once the
        # popped run ends in place, w must take gamma's next position.
        end = done + d + 1 - e
        return pos[w] == end and (e > d or pos[stack[e] if e < d else v] < end)

    hook = PruneHook(follows_gamma, gamma_leaf)
    return next(prefix_walk(forbidden, len(target), hook, 0, False))


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
    ValueError unless gamma is a nonempty permutation.
    """
    gamma = as_perm(gamma)
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
