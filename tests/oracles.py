"""Definitional oracles for the stack machine, independent of the library's
pass core: no anchored push test, no 231 watcher and no prefix-tree walk."""

from stacksort.perms import identity, occurrences


def _contains(word, pattern):
    # generic backtracking search, never the 231/132 stack scans
    return next(occurrences(word, pattern), None) is not None


def naive_stack_pass_traced(forbidden, perm):
    """Greedy pass that tests each push by checking the whole would-be
    content (top to bottom) for an occurrence of the forbidden pattern, not
    just anchored ones; returns the output and the (op, value) events."""
    stack, out, events = [], [], []
    for v in perm:
        while stack and _contains((v,) + tuple(reversed(stack)), forbidden):
            out.append(stack.pop())
            events.append(("pop", out[-1]))
        stack.append(v)
        events.append(("push", v))
    while stack:
        out.append(stack.pop())
        events.append(("pop", out[-1]))
    return tuple(out), events


def naive_stack_pass(forbidden, perm):
    return naive_stack_pass_traced(forbidden, perm)[0]


def sorts_to_identity(forbidden, perm):
    """Definitional sortability: the restricted pass then a 21-pass emits
    the identity."""
    return naive_stack_pass((2, 1), naive_stack_pass(forbidden, perm)) == identity(len(perm))
