"""Permutations in one-line notation and classical pattern containment.

A permutation of length n is represented as a tuple of the integers 1..n,
e.g. (2, 4, 1, 3).  The empty tuple is the (valid) empty permutation; it is
the identity element for both sums and is contained in everything.

Text form: entries separated by whitespace or commas ("2 4 1 3"), or a
compact digit string ("2413") accepted on input only when n <= 9.  Output
always uses the separated form.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def is_perm(values: Sequence[int]) -> bool:
    """True iff values is a bijection onto {1..n}."""
    n = len(values)
    return sorted(values) == list(range(1, n + 1))


def as_perm(values: Iterable[int]) -> Perm:
    """Validate and normalize to a tuple; raises ValueError if not a permutation."""
    p = tuple(values)
    if not is_perm(p):
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


def standardize(word: Sequence[int]) -> Perm:
    """Reduce a sequence of distinct integers to the permutation of its ranks.

    >>> standardize((5, 9, 2))
    (2, 3, 1)
    """
    order = sorted(word)
    rank = {v: i + 1 for i, v in enumerate(order)}
    return tuple(rank[v] for v in word)


def reverse(p: Perm) -> Perm:
    return p[::-1]


def direct_sum(a: Perm, b: Perm) -> Perm:
    """Concatenate a with b shifted up by len(a)."""
    n = len(a)
    return a + tuple(v + n for v in b)


def skew_sum(a: Perm, b: Perm) -> Perm:
    """a shifted up by len(b), followed by b."""
    m = len(b)
    return tuple(v + m for v in a) + b


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


def _occurrence_search(host: Sequence[int], pattern: Sequence[int]) -> Iterator[tuple[int, ...]]:
    # Backtracking over index tuples; candidate extensions must preserve the
    # pairwise order relations of the pattern prefix.
    k = len(pattern)
    n = len(host)
    chosen: list[int] = []  # 0-based host indices

    def extend(start: int) -> Iterator[tuple[int, ...]]:
        m = len(chosen)
        if m == k:
            yield tuple(i + 1 for i in chosen)
            return
        for i in range(start, n - (k - m) + 1):
            v = host[i]
            if all((v > host[j]) == (pattern[m] > pattern[a]) for a, j in enumerate(chosen)):
                chosen.append(i)
                yield from extend(i + 1)
                chosen.pop()

    yield from extend(0)


def contains(host: Perm, pattern: Perm) -> bool:
    """True iff some subsequence of host is order-isomorphic to pattern.

    The empty pattern is contained in everything.
    """
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
    return next(_occurrence_search(host, pattern), None) is not None


def occurrences(host: Perm, pattern: Perm) -> Iterator[tuple[int, ...]]:
    """Yield every occurrence of pattern in host as a tuple of 1-based indices.

    Occurrences come out in lexicographic index order, each exactly once.
    """
    if len(pattern) > len(host):
        return iter(())
    return _occurrence_search(host, pattern)


def all_perms(n: int) -> Iterator[Perm]:
    """All n! permutations of 1..n in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return iter(itertools.permutations(range(1, n + 1)))


def avoiders(n: int, basis: Iterable[Perm]) -> Iterator[Perm]:
    """All permutations of length n avoiding every pattern in basis, lexicographic."""
    basis = tuple(basis)
    for p in all_perms(n):
        if not any(contains(p, b) for b in basis):
            yield p
