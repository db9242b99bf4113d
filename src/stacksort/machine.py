"""Greedy one-pass simulation of a pattern-restricted stack.

The stack is never allowed to contain an occurrence of its forbidden pattern,
reading the content from top to bottom.  A pass scans the input left to
right: each element is pushed as long as the stack stays legal, otherwise the
top is popped to the output; at the end the stack is drained.  The full
machine is such a pass followed by a pass through a plain increasing stack
(forbidden pattern 21), and an input is sortable when the machine emits the
identity, i.e. when the first-pass output avoids 231.

The greedy rule is written once, in `greedy_push`; `stack_pass`,
`stack_pass_traced` and `is_sortable` are one loop over it that can also
record the push/pop events and feed the output to the 231 watcher of
`perms`, stopping at the first occurrence.  The prefix-tree walker of
`enumeration` runs the same step once per tree node.

Since the content is legal before every push, a push can only be illegal if
the new element is the *first* (topmost) entry of an occurrence, so the push
test searches occurrences anchored at the candidate: `_anchored3` for
patterns of length 3, and for longer ones `perms.match` on the candidate
followed by the content, top to bottom, with the first entry pinned to the
candidate.  The public functions check the forbidden pattern and the input
permutation once per call and raise ValueError on anything else.
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


def _anchored3(v: int, stack: Sequence[int], s1: int, s2: int, s3: int) -> bool:
    # Is there a pair a-then-b below v (top to bottom) with (v, a, b) order-
    # isomorphic to (s1, s2, s3)?  Only the extremal valid 'a' matters: the
    # smallest one when b must exceed a, the largest otherwise.
    up2 = s2 > s1
    up3 = s3 > s1
    up32 = s3 > s2
    best = 0
    for idx in range(len(stack) - 1, -1, -1):
        c = stack[idx]
        if best and ((c > v) == up3) and ((c > best) == up32):
            return True
        if (c > v) == up2:
            if not best or (c < best) == up32:
                best = c
    return False


def push_blocked(v: int, stack: Sequence[int], forbidden: Perm) -> bool:
    """Would pushing v (on top of stack, listed bottom to top) complete an
    occurrence of the forbidden pattern in the content read top to bottom?"""
    k = len(forbidden)
    if len(stack) < k - 1:
        return False
    if k == 2:
        # a legal 21-stack has its minimum on top, a legal 12-stack its maximum
        if forbidden[0] > forbidden[1]:
            return v > stack[-1]
        return v < stack[-1]
    if k == 3:
        return _anchored3(v, stack, *forbidden)
    return next(match([v, *reversed(stack)], forbidden, _PINNED_START), None) is not None


def check_forbidden(forbidden: Perm, n: int = 0) -> Perm:
    """Validate a forbidden pattern, and a length n to enumerate, at the
    public boundary; returns the pattern as a tuple."""
    if n < 0:
        raise ValueError("n must be >= 0")
    forbidden = as_perm(forbidden)
    if len(forbidden) < 2:
        raise ValueError("forbidden pattern must have length >= 2")
    return forbidden


def greedy_push(v: int, stack: list[int], emit: Callable[[int], object], forbidden: Perm) -> bool:
    """The greedy rule for the next input v: pop the top, handing it to emit,
    while pushing v would be illegal, then push v.  Returns False, without
    pushing, as soon as emit returns False."""
    while stack and push_blocked(v, stack, forbidden):
        if emit(stack.pop()) is False:
            return False
    stack.append(v)
    return True


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
    stack: list[int] = []
    out: list[int] = []
    emit: Callable[[int], object] = out.append
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
        if not greedy_push(v, stack, emit, forbidden):
            return None
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
