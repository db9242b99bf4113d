"""Definitional oracles, independent of the library's search and pass core:
no `perms.match`, no blocked-value masks, no 231 watcher and no prefix-tree
walk."""

import itertools

from stacksort.bivincular import BivincularPattern
from stacksort.perms import identity


def _sign(a, b):
    return (a > b) - (a < b)


def backtrack_occurrences(host, pattern, pinned=False):
    """Every occurrence of pattern in host (both may repeat values) as
    1-based index tuples, in lexicographic order; with pinned, only those
    whose first entry is host[0].  Backtracking over index tuples: each
    candidate is compared with every entry chosen so far.  The recursion is
    as deep as the pattern is long."""
    k, n = len(pattern), len(host)
    chosen = []  # 0-based host indices
    if pinned:
        if not (k and n):
            return iter(())
        chosen.append(0)

    def extend(start):
        m = len(chosen)
        if m == k:
            yield tuple(i + 1 for i in chosen)
            return
        for i in range(start, n - (k - m) + 1):
            if all(
                _sign(host[i], host[j]) == _sign(pattern[m], pattern[a])
                for a, j in enumerate(chosen)
            ):
                chosen.append(i)
                yield from extend(i + 1)
                chosen.pop()

    return extend(len(chosen))


def backtrack_contains(host, pattern, pinned=False):
    return next(backtrack_occurrences(host, pattern, pinned), None) is not None


def ascent_sequences(n):
    """All ascent sequences of length n in lexicographic order: first letter
    0, each next letter at most one more than the number of ascents so far.
    Filtered by `backtrack_contains`, they are the brute side of the pruned
    generator of ascent sequences avoiding 201."""
    if n < 1:
        raise ValueError("n must be >= 1")
    seq, ascents = [0] * n, [0] * n  # ascents[i]: the ascents in seq[: i + 1]
    while True:
        yield tuple(seq)
        i = n - 1
        while i and seq[i] > ascents[i - 1]:
            i -= 1
        if not i:
            return
        seq[i] += 1
        ascents[i] = ascents[i - 1] + (seq[i] > seq[i - 1])
        seq[i + 1 :] = [0] * (n - 1 - i)
        ascents[i + 1 :] = [ascents[i]] * (n - 1 - i)


def brute_occurrences(host, pattern, pos_adj=frozenset(), val_adj=frozenset()):
    """Every occurrence as 1-based index tuples, lexicographic: each k-subset
    of positions is tested on its own.  pos_adj and val_adj are the
    bivincular adjacencies: x in pos_adj puts the occurrence's x-th and
    (x+1)-th entries (1-based) at consecutive positions, where 0 and k tie
    its ends to the host's; y in val_adj makes its y-th and (y+1)-th smallest
    values consecutive integers, where 0 and k tie them to 1 and len(host)."""
    k, n = len(pattern), len(host)
    for idx in itertools.combinations(range(n), k):
        if any(
            _sign(host[idx[a]], host[idx[b]]) != _sign(pattern[a], pattern[b])
            for a in range(k)
            for b in range(a)
        ):
            continue
        pos = (-1,) + idx + (n,)  # entry x sits at pos[x + 1]
        if k and any(pos[x + 1] - pos[x] != 1 for x in pos_adj):
            continue
        vals = (0,) + tuple(sorted(host[i] for i in idx)) + (n + 1,)
        if k and any(vals[y + 1] - vals[y] != 1 for y in val_adj):
            continue
        yield tuple(i + 1 for i in idx)


def brute_contains(host, pattern):
    return next(brute_occurrences(host, pattern), None) is not None


def brute_patterns(host):
    """Every pattern that host contains: the standardization of each of its
    subsequences."""
    return {
        standardize(sub)
        for k in range(len(host) + 1)
        for sub in itertools.combinations(host, k)
    }


def brute_avoiders(n, basis):
    """The permutations of length n containing no pattern of basis,
    lexicographic."""
    return (
        p
        for p in itertools.permutations(range(1, n + 1))
        if not any(brute_contains(p, b) for b in basis)
    )


def brute_fishburn_avoiders(n, tau):
    """The permutations of length n, lexicographic, that avoid tau and the
    Fishburn pattern: 231 whose first two entries are adjacent in position
    and whose two smallest values are consecutive."""
    return [
        p
        for p in itertools.permutations(range(1, n + 1))
        if next(brute_occurrences(p, (2, 3, 1), {1}, {1}), None) is None
        and not brute_contains(p, tau)
    ]


def reverse_bivincular(bp):
    """The left-right mirror of a bivincular pattern: the pattern reversed,
    position adjacencies flipped to k - x, value adjacencies untouched, so
    that a host contains it exactly when the reversed host contains bp."""
    k = len(bp.pattern)
    return BivincularPattern(
        bp.pattern[::-1], frozenset(k - x for x in bp.pos_adj), bp.val_adj
    )


def count_anchored_132_avoiders_brute(n):
    """The number of permutations of length n with no anchored 132: no j with
    p[0] < p[j+1] < p[j], tested here directly, not by the library's scan."""
    return sum(
        1
        for p in itertools.permutations(range(1, n + 1))
        if not any(p[0] < p[j + 1] < p[j] for j in range(1, n - 1))
    )


def standardize(word):
    """The permutation of the ranks of a sequence of distinct values."""
    order = sorted(word)
    return tuple(order.index(v) + 1 for v in word)


def avoider_132(splits):
    """The 132-avoider of length len(splits) that the split choices build:
    the maximum sits after a 132-avoider of the largest remaining values and
    before one of the smallest, the first of them splits[i] % size long."""

    def build(values, i):
        if not values:
            return (), i
        k = splits[i] % len(values)
        high, i = build(values[len(values) - 1 - k : -1], i + 1)
        low, i = build(values[: len(values) - 1 - k], i)
        return high + (values[-1],) + low, i

    return build(tuple(range(1, len(splits) + 1)), 0)[0]


def naive_stack_pass_traced(forbidden, perm):
    """Greedy pass that tests each push of v by a backtracking search of the
    would-be content (top to bottom) for an occurrence of the forbidden
    pattern that starts at v: the content below v is legal, so any new
    occurrence uses v, which is the first entry read top down.  Returns the
    output and the (op, value) events."""
    stack, out, events = [], [], []
    for v in perm:
        while stack and backtrack_contains((v,) + tuple(reversed(stack)), forbidden, pinned=True):
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
