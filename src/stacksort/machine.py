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
that c would become the second entry for (`_blocked_by`).  Above bit n the
same mask carries the values of the bottom d entries, so the values below
any stack entry are one shift of its level's mask, and a push looks its
candidate entries up by value, not by a scan of the stack.  The public
functions check the forbidden pattern and the input permutation once per
call and raise ValueError on anything else.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from .perms import Perm, as_perm, watch_231

PATTERN_21: Perm = (2, 1)


class TraceEvent(NamedTuple):
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


def _blocked_by(
    forbidden: Perm, n: int, at: list[int]
) -> Callable[[int, list[int], list[int]], int]:
    """For a pattern of length k >= 2 and values 1..n: the function
    (c, stack, blocked) -> the mask of the values v whose push onto
    stack + [c] would complete an occurrence (v, c, e3, ..., ek), read top to
    bottom; the bits of c and of the values in stack do not matter.

    blocked is the stack's mask list and at its index table (`greedy_step`):
    blocked[i] >> (n + 1) is the mask of the values of stack[:i], and at[a]
    the index of a value a on the stack.  x[r] is the value of the entry of
    rank r (x[0] = 0, x[k + 1] = n + 1), strictly inside its window
    (`_levels`).

    `last` takes the candidates for e(k-1) as a mask of values, c itself for
    k = 3 and the values in its window below c for k = 4, and reads the
    values below each candidate a at blocked[at[a]]; ek is the extremal of
    those in ek's window, the smallest if ek bounds v from below, else the
    largest (any other gives a subinterval).  An entry next in rank to its
    window's upper (lower) end bounds no later entry from below (above), so
    each value it tries rules out the smaller (larger) ones deeper down: the
    candidates are then taken from that end, and only those above each one
    tried stay.  When ek does not bound v, the first hit in that order (from
    the end that widens v's window, if e(k-1) bounds it) blocks every v
    that a later one would.  For k >= 5, e3, ..., e(k-2) are the levels of
    a depth-first search down the stack, kept in a list of frames, with the
    same cut per level; it descends from an entry that `fits`, and `last`
    is its innermost level.  A push costs a few big-int operations for
    k = 3, a few more per candidate for k = 4, and O(depth^(k - 4)) calls of
    `last` beyond.
    """
    k = len(forbidden)
    s1, s2 = forbidden[0], forbidden[1]
    v_lo, v_hi = s1 - 1, s1 + 1  # x[v_lo] < x[v_hi] in every occurrence
    x = [0] * (k + 1) + [n + 1]
    shift = n + 1
    levels = _levels(forbidden)
    m = k - 3  # the number of middle entries
    sz, z_lo, z_hi = levels[-1][:3]  # ek: the smallest if sz < s1, else the largest
    s_in, in_lo, in_hi = levels[max(m, 0)][:3]  # e(k-1)
    down = in_hi == s_in + 1 or s_in == s1 + 1  # the largest candidate first
    cut = in_hi == s_in + 1 or in_lo == s_in - 1
    first = sz not in (v_lo, v_hi)  # ek does not bound v: stop at a hit

    def last(cand: int, blocked: list[int]) -> int:  # e(k-1) among the values cand
        mask = 0
        while cand:
            x[s_in] = a = cand.bit_length() - 1 if down else (cand & -cand).bit_length() - 1
            seen = blocked[at[a]] >> shift  # the values below a
            w = seen & (1 << x[z_hi]) - (2 << x[z_lo])
            if w:
                x[sz] = (w & -w).bit_length() - 1 if sz < s1 else w.bit_length() - 1
                mask |= (1 << x[v_hi]) - (2 << x[v_lo])
                if first:
                    return mask
            cand ^= 1 << a
            if cut:
                cand &= ~seen
        return mask

    def fits(t: int, seen: int, mask: int) -> bool:  # seen: the values below level t
        _, _, _, vlo_r, vhi_r, after = levels[t]
        v_open = (1 << x[vhi_r]) - (2 << x[vlo_r]) & ~mask
        return v_open != 0 and all(seen & (1 << x[hi]) - (2 << x[lo]) for lo, hi in after)

    def grow(c: int, stack: list[int], blocked: list[int]) -> int:
        x[s2] = c
        if m < 2:  # no middle level
            if m < 0:
                return (1 << x[v_hi]) - (2 << x[v_lo])
            if m == 0:
                return last(1 << c, blocked)
            return last(blocked[-1] >> shift & (1 << x[in_hi]) - (2 << x[in_lo]), blocked)
        seen = blocked[-1] >> shift
        mask = seen | 1 << c
        if not fits(0, seen, mask):
            return mask
        frames: list[tuple[int, int, int]] = []  # (index, window) of each level above
        t, i, lo, hi = 1, len(stack), x[levels[1][1]], x[levels[1][2]]
        while True:
            if t == m:  # stack[:i] lies below the entry of level m - 1
                mask |= last(blocked[i] >> shift & (1 << hi) - (2 << lo), blocked)
            else:
                s, lo_r, hi_r, _, _, after = levels[t]
                i -= 1
                while i > m - t:  # room below for the levels after t
                    if lo < stack[i] < hi:
                        x[s] = a = stack[i]
                        lo, hi = a if hi_r == s + 1 else lo, a if lo_r == s - 1 else hi
                        if fits(t, blocked[i] >> shift, mask):
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
    its top and a push appends one.  Bit v <= n of blocked[d] is set when
    the push of v onto stack[:d] is illegal (bits of stack[:d] do not
    matter), and bit n + 1 + a when a is in stack[:d].  A push of c appends
    blocked[-1] with the values that c would start to block and with c's
    own high bit, so each push test is one bit.  The push also records c's
    stack index in a table of this step's own.  The entry stays right while
    c is on the stack: a pass pushes each value once, and the prefix-tree
    walk pushes no value again below the node that pushed it, so the stacks
    this push builds, the walk's slices included, read correct indices.
    """
    at = [0] * (n + 1)  # the stack index of each value on the stack
    grow = _blocked_by(forbidden, n, at)
    shift = n + 1

    def land(v: int, stack: list[int], blocked: list[int]) -> int:
        d = len(stack)
        while blocked[d] >> v & 1:
            d -= 1
        return d

    def push(v: int, stack: list[int], blocked: list[int]) -> None:
        at[v] = len(stack)
        blocked.append(blocked[-1] | grow(v, stack, blocked) | 1 << v + shift)
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
