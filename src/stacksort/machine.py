"""Greedy one-pass simulation of a pattern-restricted stack.

The stack is never allowed to contain an occurrence of its forbidden pattern,
reading the content from top to bottom.  A pass scans the input left to
right: each element is pushed as long as the stack stays legal, otherwise the
top is popped to the output; at the end the stack is drained.  The full
machine is such a pass followed by a pass through a plain increasing stack
(forbidden pattern 21), and an input is sortable when the machine emits the
identity, i.e. when the first-pass output avoids 231.

The greedy rule is written once, in the landing depth and push that
`greedy_step` returns; `stack_pass`, `stack_pass_traced` and `is_sortable`
are one loop over it that can also record the push/pop events and feed the
output to the 231 watcher of `perms`, stopping at the first occurrence.  The
prefix-tree walker of `enumeration` reads the same landing depth for every
child of a tree node and pushes only for the children it keeps.

Since the content is legal before every push, a push can only be illegal if
the new element is the *first* (topmost) entry of an occurrence.  So each
stack level d keeps a mask of the values whose push onto the bottom d
entries would start one, for a forbidden pattern of any length: a push test
reads one bit, a pop drops the top level, and a push of c adds the values
that c would become the second entry for (`_blocked_by`).  The public
functions check the forbidden pattern and the input permutation once per
call and raise ValueError on anything else.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Callable, Sequence

from .perms import Perm, as_perm, watch_231

PATTERN_21: Perm = (2, 1)


@dataclass(frozen=True)
class TraceEvent:
    op: str  # "push" | "pop"
    value: int


MachineTrace = tuple[TraceEvent, ...]


@functools.lru_cache(maxsize=256)
def _levels(forbidden: Perm) -> tuple[tuple, ...]:
    """For c, e3, ..., ek in turn: (its rank s, the ranks of its window's
    ends, then those of v's window and each later entry's once s is placed).
    The ends are the nearest placed ranks below and above; 0, k + 1 first."""
    k, s1 = len(forbidden), forbidden[0]
    lows, highs = [0] * (k + 2), [k + 1] * (k + 2)
    rows = []
    for j, s in enumerate(forbidden[1:], 2):
        lo, hi = lows[s], highs[s]
        lows[s + 1 : hi] = [s] * (hi - s - 1)
        highs[lo + 1 : s] = [s] * (s - lo - 1)
        after = tuple(dict.fromkeys((lows[r], highs[r]) for r in forbidden[j:]))
        rows.append((s, lo, hi, lows[s1], highs[s1], after))
    return tuple(rows)


def _blocked_by(forbidden: Perm, n: int) -> Callable[[int, Sequence[int]], int]:
    """For a pattern of length k >= 2 and values 1..n: the function
    (c, stack) -> the mask of the values v whose push onto stack + [c] would
    complete an occurrence (v, c, e3, ..., ek), read top to bottom; the bits
    of c and of the values in stack do not matter.

    x[r] is the value of the entry of rank r (x[0] = 0, x[k + 1] = n + 1),
    strictly inside its window (`_levels`).  e3, ..., e(k-1) are the levels
    of a depth-first search down the stack, kept in a list of frames: a
    level tries the entries below the one before, top down, and descends
    from one that `fits`.  An entry next in rank to its window's upper
    (lower) end bounds no later entry from below (above), so each value it
    tries rules out the smaller (larger) ones deeper down.  The innermost
    level scans up for e(k-1); ek is the extremal value below it in ek's
    window, the smallest if ek bounds v from below, else the largest (any
    other gives a subinterval).  For k = 3 ek comes from the whole stack,
    for k = 2 v's interval from c.  A push costs O(depth^max(1, k - 3)).
    """
    k = len(forbidden)
    s1, s2 = forbidden[0], forbidden[1]
    v_lo, v_hi = s1 - 1, s1 + 1  # x[v_lo] < x[v_hi] in every occurrence
    x = [0] * (k + 1) + [n + 1]
    levels = _levels(forbidden)
    m = k - 3  # the number of middle entries
    sz, z_lo, z_hi = levels[-1][:3]  # ek: the smallest if sz < s1, else the largest
    s_in, in_lo, in_hi = levels[m][:3]

    def ends(seen: int) -> int:  # ek from the values below e(k-1): v's interval, or 0
        w = seen & (1 << x[z_hi]) - (2 << x[z_lo])
        if not w:
            return 0
        x[sz] = (w & -w).bit_length() - 1 if sz < s1 else w.bit_length() - 1
        return (1 << x[v_hi]) - (2 << x[v_lo])

    def inner(entries: Sequence[int], lo: int, hi: int) -> int:  # e(k-1) in (lo, hi)
        mask = seen = 0
        for a in entries:
            if seen and lo < a < hi:
                x[s_in] = a
                mask |= ends(seen)
            seen |= 1 << a
        return mask

    def fits(t: int, seen: int, mask: int) -> bool:  # seen: the values below level t
        _, _, _, vlo_r, vhi_r, after = levels[t]
        v_open = (1 << x[vhi_r]) - (2 << x[vlo_r]) & ~mask
        return v_open != 0 and all(seen & (1 << x[hi]) - (2 << x[lo]) for lo, hi in after)

    def grow(c: int, stack: Sequence[int]) -> int:
        x[s2] = c
        if m < 2:  # no level reads the prefix masks
            if m < 0:
                return (1 << x[v_hi]) - (2 << x[v_lo])
            return inner(stack, x[in_lo], x[in_hi]) if m else ends(sum(map((1).__lshift__, stack)))
        below = [0, *accumulate(map((1).__lshift__, stack), or_)]  # values of stack[:i]
        mask = below[-1] | 1 << c
        if not fits(0, below[-1], mask):
            return mask
        frames: list[tuple[int, int, int]] = []  # (index, window) of each level above
        t, i, lo, hi = 1, len(stack), x[levels[1][1]], x[levels[1][2]]
        while True:
            if t == m:  # stack[:i] lies below the entry of level m - 1
                mask |= inner(stack[:i], lo, hi)
            else:
                s, lo_r, hi_r, _, _, after = levels[t]
                i -= 1
                while i > m - t:  # room below for the levels after t
                    if lo < stack[i] < hi:
                        x[s] = a = stack[i]
                        lo, hi = a if hi_r == s + 1 else lo, a if lo_r == s - 1 else hi
                        if fits(t, below[i], mask):
                            break
                    i -= 1
                if i > m - t:  # descend from stack[i]
                    frames.append((i, lo, hi))
                    t += 1
                    lo, hi = x[after[0][0]], x[after[0][1]]
                    continue
            if not frames:
                return mask
            i, lo, hi = frames.pop()
            t -= 1

    return grow


def check_forbidden(forbidden: Perm, n: int = 0) -> Perm:
    """Validate a forbidden pattern, and a length n to enumerate, at the
    public boundary; returns the pattern as a tuple."""
    if n < 0:
        raise ValueError("n must be >= 0")
    forbidden = as_perm(forbidden)
    if len(forbidden) < 2:
        raise ValueError("forbidden pattern must have length >= 2")
    return forbidden


Emit = Callable[[int], object]
Land = Callable[[int, list[int], list[int]], int]
Push = Callable[[int, list[int], list[int]], None]


def greedy_step(forbidden: Perm, n: int) -> tuple[Land, Push]:
    """The greedy rule for inputs with values 1..n: pop the top while pushing
    v would be illegal, then push v.  land(v, stack, blocked) is the depth d
    at which v lands; the top entries stack[d:] leave, top first, and
    push(v, stack, blocked) pushes v once stack and blocked are cut to
    stack[:d] and blocked[:d + 1].

    blocked holds one mask per stack level: it starts as [0], a pop drops
    its top and a push appends one.  blocked[d] is the mask of the values
    whose push onto stack[:d] is illegal (bits of stack[:d] do not matter),
    and a push of c appends blocked[-1] with the values that c would start
    to block, so each push test is one bit.
    """
    grow = _blocked_by(forbidden, n)

    def land(v: int, stack: list[int], blocked: list[int]) -> int:
        d = len(stack)
        while blocked[d] >> v & 1:
            d -= 1
        return d

    def push(v: int, stack: list[int], blocked: list[int]) -> None:
        blocked.append(blocked[-1] | grow(v, stack))
        stack.append(v)

    return land, push


def _pass(
    forbidden: Perm,
    perm: Perm,
    events: list[TraceEvent] | None = None,
    watch: bool = False,
) -> Perm | None:
    """One greedy pass, appending its push/pop events to `events` if given.
    Otherwise, with `watch`, each output value is fed to the 231 watcher and
    None is returned at the first occurrence, since the rest of the pass only
    appends."""
    land, push = greedy_step(forbidden, len(perm))
    stack: list[int] = []
    blocked = [0]
    out: list[int] = []
    emit: Emit = out.append
    if events is not None:

        def emit(t: int) -> None:
            out.append(t)
            events.append(TraceEvent("pop", t))

    elif watch:
        mono: list[int] = []
        ceiling = 0

        def emit(t: int) -> bool:
            nonlocal ceiling
            out.append(t)
            ceiling = watch_231((t,), mono, ceiling)
            return ceiling >= 0

    for v in perm:
        d = land(v, stack, blocked)
        while len(stack) > d:
            blocked.pop()
            if emit(stack.pop()) is False:
                return None
        push(v, stack, blocked)
        if events is not None:
            events.append(TraceEvent("push", v))
    while stack:  # end of input: drain
        if emit(stack.pop()) is False:
            return None
    return tuple(out)


def stack_pass(forbidden: Perm, perm: Perm) -> Perm:
    """Output of one greedy pass of perm through a forbidden-pattern stack."""
    return _pass(check_forbidden(forbidden), as_perm(perm))


def stack_pass_traced(forbidden: Perm, perm: Perm) -> tuple[Perm, MachineTrace]:
    """Like stack_pass, also returning the full push/pop event sequence."""
    events: list[TraceEvent] = []
    out = _pass(check_forbidden(forbidden), as_perm(perm), events)
    return out, tuple(events)


def machine_output(forbidden: Perm, perm: Perm) -> Perm:
    """Result of the two-stack machine: the restricted pass then a 21-pass."""
    return _pass(PATTERN_21, stack_pass(forbidden, perm))


def is_sortable(forbidden: Perm, perm: Perm) -> bool:
    """True iff the machine sorts perm, i.e. the first pass emits a
    231-avoiding permutation (equivalently machine_output is the identity)."""
    return _pass(check_forbidden(forbidden), as_perm(perm), watch=True) is not None


def trace_json(trace: MachineTrace) -> list[dict]:
    return [{"op": ev.op, "value": ev.value} for ev in trace]
