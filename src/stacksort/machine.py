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
the new element is the *first* (topmost) entry of an occurrence.  For
patterns of length 2 to 4 each stack level d keeps a mask of the values whose
push onto the bottom d entries would start one: a push test reads one bit, a
pop drops the top level, and a push of c adds to the level below the values
that c would become the second entry for, found in one bottom-up scan of the
entries below c (`_blocked_by`).  Longer patterns test each push with
`perms.match` on the candidate followed by the content, top to bottom, with
the first entry pinned to the candidate (`push_blocked`).  The public
functions check the forbidden pattern and the input permutation once per
call and raise ValueError on anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .perms import Perm, as_perm, match, watch_231

PATTERN_21: Perm = (2, 1)
_PINNED_START = frozenset({0})  # occurrences start at the candidate


@dataclass(frozen=True)
class TraceEvent:
    op: str  # "push" | "pop"
    value: int


MachineTrace = tuple[TraceEvent, ...]


def push_blocked(v: int, stack: Sequence[int], forbidden: Perm) -> bool:
    """Would pushing v (on top of stack, listed bottom to top) complete an
    occurrence of the forbidden pattern in the content read top to bottom?
    The push test for patterns of length 5 or more; greedy_step's land runs
    the same search on one content list for every depth it tries."""
    if len(stack) < len(forbidden) - 1:
        return False
    return next(match([v, *reversed(stack)], forbidden, _PINNED_START), None) is not None


def _blocked_by(forbidden: Perm, n: int) -> Callable[[int, Sequence[int]], int]:
    """For a pattern of length 2, 3 or 4 and values 1..n: the function
    (c, stack) -> the mask of the values v whose push onto stack + [c] would
    complete an occurrence (v, c, ...) of the pattern, read top to bottom.

    x[r] is the value of the occurrence entry of rank r in the pattern, with
    sentinels x[0] = 0 and x[k + 1] = n + 1, so the values v may take lie
    strictly between x[s1 - 1] and x[s1 + 1].  Below c, each entry a on the
    right side of c adds one such interval; for k = 4 its last entry z is the
    extremal value in z's window among the entries below a: the smallest when
    z bounds v from below, the largest otherwise, since every other z gives a
    subinterval.  For k = 3 only the extremal a matters, by the same argument.
    """
    k = len(forbidden)
    s1, s2 = forbidden[0], forbidden[1]
    lo_rank, hi_rank = s1 - 1, s1 + 1
    x = [0] * (k + 2)
    x[k + 1] = n + 1

    def interval() -> int:
        lo, hi = x[lo_rank], x[hi_rank]
        return (1 << hi) - (2 << lo) if hi > lo + 1 else 0

    if k == 2:

        def grow(c: int, stack: Sequence[int]) -> int:
            x[s2] = c
            return interval()

        return grow

    s3 = forbidden[2]
    a_up = s3 > s2  # a is above c in value
    if k == 3:
        pick = min if s3 < s1 else max

        def grow(c: int, stack: Sequence[int]) -> int:
            valid = [a for a in stack if a > c] if a_up else [a for a in stack if a < c]
            if not valid:
                return 0
            x[s2], x[s3] = c, pick(valid)
            return interval()

        return grow

    s4 = forbidden[3]
    z_lo_rank = max(r for r in (0, s2, s3) if r < s4)  # z's window
    z_hi_rank = min(r for r in (s2, s3, k + 1) if r > s4)
    z_low = s4 < s1  # z bounds v from below: take the smallest

    def grow(c: int, stack: Sequence[int]) -> int:
        x[s2] = c
        mask = seen = 0  # seen: the values of the entries below a
        for a in stack:
            if seen and (a > c) == a_up:
                x[s3] = a
                lo, hi = x[z_lo_rank], x[z_hi_rank]
                if z_low:
                    m = seen >> lo + 1
                    z = lo + (m & -m).bit_length()
                else:
                    z = (seen & (1 << hi) - 1).bit_length() - 1
                if lo < z < hi:
                    x[s4] = z
                    mask |= interval()
            seen |= 1 << a
        return mask

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
    its top and a push appends one.  For a pattern of length <= 4,
    blocked[d] is the mask of the values whose push onto stack[:d] is
    illegal, and a push of c appends blocked[-1] with the values that c
    would start to block, so each push test is one bit.  Longer patterns
    run push_blocked's pinned search on one content list per landing, and
    their masks stay 0.
    """
    k = len(forbidden)
    if k > 4:

        def land(v: int, stack: list[int], blocked: list[int]) -> int:
            # push_blocked on stack[:d] for d = len(stack), len(stack) - 1,
            # ...: one content list that loses its top entry per pop, and no
            # search once fewer than k - 1 entries are left
            d = len(stack)
            content = [v, *reversed(stack)]
            while d >= k - 1 and next(match(content, forbidden, _PINNED_START), None):
                d -= 1
                del content[1]
            return d

        def push(v: int, stack: list[int], blocked: list[int]) -> None:
            blocked.append(0)
            stack.append(v)

        return land, push

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
