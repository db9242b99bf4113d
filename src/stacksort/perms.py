"""Permutations in one-line notation and classical pattern containment.

A permutation of length n is represented as a tuple of the integers 1..n,
e.g. (2, 4, 1, 3).  The empty tuple is the (valid) empty permutation; it is
contained in everything.

Text form: entries separated by whitespace or commas ("2 4 1 3"), or a
compact digit string ("2413") accepted on input only when n <= 9.  Output
always uses the separated form.

`match` is the library's one pattern search; containment, occurrence
listing, bivincular patterns and word patterns all run on it (the stack's
push test reads the blocked-value masks of `machine` instead).  It handles
words (repeated values) and position ties, accepts a candidate entry by one
window test against the chosen entries just below, equal to and just above
it in the pattern, and keeps its backtracking state in lists rather than on
the call stack, so no input length reaches the recursion limit.  `contains`
answers 231, 132 and patterns of length at most 2 with O(n) scans instead.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import AbstractSet, Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def as_perm(values: Iterable[int]) -> Perm:
    """Validate and normalize to a tuple; raises ValueError if not a
    permutation, including when an entry is not exactly an int (2.0 and True
    compare equal to integers but are rejected)."""
    p = tuple(values)
    if not set(map(type, p)) <= {int} or set(p) != set(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def parse_perm(text: str) -> Perm:
    """Parse the text form of a permutation.

    Accepts "2 4 1 3", "2,4,1,3" or the compact "2413" (digits 1-9 only,
    so compact input is limited to n <= 9).  An empty string parses as the
    empty permutation.
    """
    text = text.strip()
    if not text:
        return ()
    if any(c in text for c in " ,\t"):
        tokens = text.replace(",", " ").split()
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise ValueError(f"invalid permutation text: {text!r}") from None
    elif text.isdigit():
        if len(text) == 1:
            values = [int(text)]
        elif "0" in text:
            raise ValueError(
                f"invalid permutation text: {text!r} (compact form allows digits 1-9; "
                "use separated entries for n >= 10)"
            )
        else:
            values = [int(c) for c in text]
    else:
        raise ValueError(f"invalid permutation text: {text!r}")
    return as_perm(values)


def format_perm(p: Sequence[int]) -> str:
    return " ".join(str(v) for v in p)


def reverse(p: Perm) -> Perm:
    return p[::-1]


def swap_first_two(p: Perm) -> Perm:
    """The permutation with its first two entries interchanged."""
    if len(p) < 2:
        raise ValueError("need length >= 2 to swap the first two entries")
    return (p[1], p[0]) + p[2:]


def watch_231(values: Iterable[int], mono: list[int], ceiling: int) -> int:
    """Feed values to Knuth's one-pass 231 detector and return its new
    ceiling, or -1 once the values seen so far contain 231.

    `ceiling` is the largest value already known to have a bigger element
    after it, so any later value below it completes an occurrence; `mono`
    (updated in place) holds the values still waiting for a bigger one.
    Start a fresh scan with an empty list and ceiling 0.
    """
    for v in values:
        if v < ceiling:
            return -1
        while mono and mono[-1] < v:
            ceiling = mono.pop()
        mono.append(v)
    return ceiling


def _contains_231(host: Sequence[int]) -> bool:
    return watch_231(host, [], 0) < 0


def _contains_132(host: Sequence[int]) -> bool:
    return _contains_231(host[::-1])


@functools.lru_cache(maxsize=256)
def _windows(pattern: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    # For each entry: the earlier entries holding the next smaller and the next
    # larger value (-1 and -2 when there is none, the sentinel slots of match's
    # `vals`) and a shift of 0; or an earlier equal entry twice, with shift 1.
    seen: list[tuple[int, int]] = []  # (value, index) of earlier entries, sorted
    out = []
    for m, x in enumerate(pattern):
        j = bisect.bisect_left(seen, (x,))
        if j < len(seen) and seen[j][0] == x:
            out.append((seen[j][1], seen[j][1], 1))
        else:
            out.append((seen[j - 1][1] if j else -1, seen[j][1] if j < len(seen) else -2, 0))
        bisect.insort(seen, (x, m))
    return tuple(out)


def match(
    host: Sequence[int], pattern: Sequence[int], tied: AbstractSet[int] = frozenset()
) -> Iterator[tuple[int, ...]]:
    """Yield every occurrence of pattern in host as a tuple of 0-based
    indices, in lexicographic order.

    Host and pattern are integer sequences and may repeat values (words):
    an occurrence is a subsequence whose entries compare pairwise, equalities
    included, as the pattern's do.  `tied` holds position adjacencies with
    the meaning of `BivincularPattern.pos_adj`: 0 pins the first entry to the
    host's first position, k pins the last entry to its last, and 0 < x < k
    makes entry x directly follow entry x - 1.
    """
    k, n = len(pattern), len(host)
    if k > n:
        return
    if k == 0:
        yield ()
        return
    windows = _windows(tuple(pattern))
    chosen = [0] * k
    vals = [0] * k + [math.inf, -math.inf]  # host values of chosen, then sentinels
    last = n - 1 if k in tied else 0  # lowest index the last entry may take
    m = i = 0
    while True:
        # Integer entries: low < x < high, or x equal to an earlier entry's
        # value as low, high = value -/+ 1.
        a, b, s = windows[m]
        low, high = vals[a] - s, vals[b] + s
        # a tie leaves one position: the first, or the one after entry m - 1
        stop = (chosen[m - 1] + 2 if m else 1) if m in tied else n - k + m + 1
        if i < last and m == k - 1:
            i = last
        for i in range(i, stop):
            if low < host[i] < high:
                break
        else:
            m -= 1
            if m < 0:
                return
            i = chosen[m] + 1
            continue
        chosen[m] = i
        vals[m] = host[i]
        i += 1
        if m < k - 1:
            m += 1
        else:
            yield tuple(chosen)


def contains(host: Perm, pattern: Perm) -> bool:
    """True iff some subsequence of host is order-isomorphic to pattern.

    The pattern must be a permutation (ValueError otherwise); the host is
    any sequence of distinct integers.  The empty pattern is contained in
    everything.
    """
    pattern = as_perm(pattern)
    k = len(pattern)
    if k == 0:
        return True
    if k > len(host):
        return False
    if k == 1:
        return True
    if k == 2:
        # an ascent/descent exists iff an adjacent one does
        if pattern[0] < pattern[1]:
            return any(host[i] < host[i + 1] for i in range(len(host) - 1))
        return any(host[i] > host[i + 1] for i in range(len(host) - 1))
    if pattern == (2, 3, 1):
        return _contains_231(host)
    if pattern == (1, 3, 2):
        return _contains_132(host)
    return next(match(host, pattern), None) is not None


def occurrences(host: Perm, pattern: Perm) -> Iterator[tuple[int, ...]]:
    """Yield every occurrence of pattern in host as a tuple of 1-based indices.

    Occurrences come out in lexicographic index order, each exactly once.
    The pattern must be a permutation (ValueError otherwise).
    """
    pattern = as_perm(pattern)
    return (tuple(i + 1 for i in occ) for occ in match(host, pattern))


def all_perms(n: int) -> Iterator[Perm]:
    """All n! permutations of 1..n in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return iter(itertools.permutations(range(1, n + 1)))

