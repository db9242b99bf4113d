"""Greedy one-pass simulation of a pattern-restricted stack.

The stack is never allowed to contain an occurrence of its forbidden pattern,
reading the content from top to bottom.  A pass scans the input left to
right: each element is pushed as long as the stack stays legal, otherwise the
top is popped to the output; at the end the stack is drained.  The full
machine is such a pass followed by a pass through a plain increasing stack
(forbidden pattern 21), and an input is sortable when the machine emits the
identity, i.e. when the first-pass output avoids 231.

The greedy rule is written once, in the step that `perms.greedy_step`
returns (imported here as `greedy_step`), which gives the mask of the level
a value adds where it lands, and in the one-bit push test of those masks.
`stack_pass`, `stack_pass_traced` and `is_sortable` are one loop that pops
while the top level blocks the next value, then appends the step's mask
and the value.  The loop can also mark the output length at each push, or
feed the output to the 231 watcher of `perms`, stopping at the first
occurrence.  A trace is built once, at the end, from the push marks: the
pops before each push are the output since the previous one, and every
event comes from tables of `TraceEvent`s shared by all traces.  The
prefix-tree walker of `enumeration` reads the landing depth of every child
of a tree node from the same masks, asks the step only for the children it
keeps, and lands each leaf from one such mask without a push;
`perms.contains` pushes a host read right to left.

Since the content is legal before every push, a push can only be illegal if
the new element is the *first* (topmost) entry of an occurrence.  So each
stack level d keeps a mask of the values whose push onto the bottom d
entries would start one, for a forbidden pattern of any length: a push test
reads one bit, a pop drops the top level, and a push of c adds the values
that c would become the second entry for.  The 21 and 12 stacks keep one
small mask per level, the values that the entry of that level blocks.  For
longer patterns the step also keeps a table indexed by value of the values
below each stack entry, written at its push from the entry it lands on.
For length 3 the step reads the third entry off that table in a few
big-int operations; for longer patterns it looks its candidate entries up
by value, not by a scan of the stack, in one call for length 4 and by the
search of `perms._blocked_by` beyond.

The public functions check the forbidden pattern and the input permutation
once per call and raise ValueError on anything else.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from .perms import Perm, as_perm, greedy_step, watch_231

PATTERN_21: Perm = (2, 1)


class TraceEvent(NamedTuple):
    op: str  # "push" | "pop"
    value: int


MachineTrace = tuple[TraceEvent, ...]


def check_forbidden(forbidden: Perm, n: int = 0) -> Perm:
    """Validate a forbidden pattern, and a length n to enumerate, at the
    public boundary; returns the pattern as a tuple."""
    if n < 0:
        raise ValueError("n must be >= 0")
    forbidden = as_perm(forbidden)
    if len(forbidden) < 2:
        raise ValueError("forbidden pattern must have length >= 2")
    return forbidden


def _pass(
    forbidden: Perm,
    perm: Perm,
    marks: list[int] | None = None,
    watch: bool = False,
) -> Perm | None:
    """One greedy pass: pop while the top level blocks v, then push v and
    the mask of its level.  If given, `marks` receives the output length at
    each push.  Otherwise, with `watch`, each output value is fed to the 231
    watcher and None is returned at the first occurrence, since the rest of
    the pass only appends."""
    step = greedy_step(forbidden, len(perm))
    stack: list[int] = []
    blocked = [0]
    out: list[int] = []
    emit: Callable[[int], object] = out.append
    if watch:
        mono: list[int] = []
        ceiling = 0

        def emit(t: int) -> bool:
            nonlocal ceiling
            out.append(t)
            ceiling = watch_231((t,), mono, ceiling)
            return ceiling is not None

    d = 0  # the stack's depth
    for v in perm:
        while blocked[d] >> v & 1:
            blocked.pop()
            d -= 1
            if emit(stack.pop()) is False:
                return None
        blocked.append(step(v, d, stack, blocked))
        stack.append(v)
        d += 1
        if marks is not None:
            marks.append(len(out))
    while stack:  # end of input: drain
        if emit(stack.pop()) is False:
            return None
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _event_tables(size: int) -> tuple[tuple[TraceEvent, ...], tuple[TraceEvent, ...]]:
    """The push and the pop event of every value below size, indexed by
    value: tuples shared by every trace, built once per power-of-two size,
    so all of them together hold fewer than 8n events for the longest input
    length n traced."""
    pushes = tuple(TraceEvent("push", v) for v in range(size))
    return pushes, tuple(TraceEvent("pop", v) for v in range(size))


def stack_pass(forbidden: Perm, perm: Perm) -> Perm:
    """Output of one greedy pass of perm through a forbidden-pattern stack."""
    return _pass(check_forbidden(forbidden), as_perm(perm))


def stack_pass_traced(forbidden: Perm, perm: Perm) -> tuple[Perm, MachineTrace]:
    """Like stack_pass, also returning the full push/pop event sequence.
    The pops before each push are the output since the previous push."""
    forbidden, perm = check_forbidden(forbidden), as_perm(perm)
    marks: list[int] = []
    out = _pass(forbidden, perm, marks)
    pushes, pops = _event_tables(1 << len(perm).bit_length())
    popped = list(map(pops.__getitem__, out))
    events: list[TraceEvent] = []
    j = 0
    for v, m in zip(perm, marks):
        if m > j:
            events += popped[j:m]
            j = m
        events.append(pushes[v])
    events += popped[j:]
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
