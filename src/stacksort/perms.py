"""Permutations in one-line notation and classical pattern containment.

A permutation of length n is represented as a tuple of the integers 1..n,
e.g. (2, 4, 1, 3).  The empty tuple is the (valid) empty permutation; it is
contained in everything.

Text form: entries separated by whitespace or commas ("2 4 1 3"), or a
compact digit string ("2413") accepted on input only when n <= 9.  Output
always uses the separated form.

`contains` decides patterns of length 3 by O(n) scans (Knuth's 231 watcher
and a 123 scan, read reversed or negated for the other four) and every
other pattern by one pass of the stack's push over the host read right to
left: `greedy_step`, the greedy rule of `machine` and `enumeration`, whose
step returns the blocked-value mask of each pushed level, in one call for a
pattern of length 2 or 4 and by the search of `_blocked_by` beyond.  The
pass pushes each host entry once, so it costs O(n) steps for a pattern of
length 2, about n² for length 4 and at most n^(k-2) beyond, whatever the
host.

`match` lists occurrences of a permutation pattern and decides bivincular
patterns.  It handles position ties and value ties, accepts a candidate
entry by one window test against the chosen entries just below and just
above it in value, looks the one candidate of a value-tied entry up by
value, and keeps its backtracking state in lists rather than on the call
stack, so no input length reaches the recursion limit.  It visits every
occurrence of each prefix of the pattern, so its steps can grow as n^k.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def _distinct_ints(values: Sequence[int]) -> set[int] | None:
    """The set of the entries when each is exactly an int (2.0 and True
    compare equal to integers but are not) and no two are equal, else None:
    one count of the entries' types and one set."""
    n = len(values)
    if operator.countOf(map(type, values), int) == n:
        seen = set(values)
        if len(seen) == n:
            return seen
    return None


def as_perm(values: Iterable[int]) -> Perm:
    """Validate and normalize to a tuple; raises ValueError if not a
    permutation, including when an entry is not exactly an int (2.0 and True
    compare equal to integers but are rejected)."""
    p = tuple(values)
    seen = _distinct_ints(p)
    # n distinct values that include 1..n are 1..n
    if seen is None or not seen.issuperset(range(1, len(p) + 1)):
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
    """The separated text form; p is not checked."""
    return " ".join(str(v) for v in p)


def reverse(p: Perm) -> Perm:
    """p read backwards; p is not checked."""
    return p[::-1]


def swap_first_two(p: Perm) -> Perm:
    """p with its first two entries interchanged; p is not checked."""
    if len(p) < 2:
        raise ValueError("need length >= 2 to swap the first two entries")
    return (p[1], p[0]) + p[2:]


def watch_231(values: Iterable[int], mono: list[int], ceiling: float) -> float | None:
    """Feed values to Knuth's one-pass 231 detector and return its new
    ceiling, or None once the values seen so far contain 231.

    `ceiling` is the largest value already known to have a bigger element
    after it, so any later value below it completes an occurrence; `mono`
    (updated in place) holds the values still waiting for a bigger one.
    Start a fresh scan with an empty list and a ceiling below every value:
    0 for values 1..n, -inf for any integers.
    """
    for v in values:
        if v < ceiling:
            return None
        while mono and mono[-1] < v:
            ceiling = mono.pop()
        mono.append(v)
    return ceiling


def _contains_231(values: Iterable[int]) -> bool:
    return watch_231(values, [], -math.inf) is None


def _contains_123(values: Iterable[int]) -> bool:
    low = mid = math.inf  # the smallest value, the smallest that ends an ascent
    for v in values:
        if v > mid:
            return True
        if v > low:
            mid = v
        else:
            low = v
    return False


# For each pattern of length 3: the scan that decides it, whether the scan
# reads the host reversed, and whether negated (the complement)
_SCANS = {
    (1, 2, 3): (_contains_123, False, False),
    (3, 2, 1): (_contains_123, True, False),
    (2, 3, 1): (_contains_231, False, False),
    (1, 3, 2): (_contains_231, True, False),
    (2, 1, 3): (_contains_231, False, True),
    (3, 1, 2): (_contains_231, True, True),
}


@functools.lru_cache(maxsize=256)
def _windows(pattern: Perm, val_tied: frozenset[int]) -> tuple[tuple[int, int, int], ...]:
    # For each entry (a, b, tie): the earlier entries holding the next smaller
    # and the next larger value (-1 and -2 when there is none, the sentinel
    # slots of match's `vals`); an earlier rank neighbour is one of them, so
    # bit 1 (2) of tie makes the entry one above vals[a] (below vals[b]).  A
    # tie to 1 or n moves that end to the slot -4 or -3, holding 0 or n + 1.
    k = len(pattern)
    seen = [(0, -1), (k + 1, -2)]  # (rank, index) of earlier entries, sorted
    out = []
    for m, r in enumerate(pattern):
        j = bisect.bisect_left(seen, (r,))
        (lo, a), (hi, b) = seen[j - 1], seen[j]
        tie = 0
        if lo == r - 1 and r - 1 in val_tied:
            a, tie = a if r > 1 else -4, 1
        if hi == r + 1 and r in val_tied:
            b, tie = b if r < k else -3, tie | 2
        out.append((a, b, tie))
        bisect.insort(seen, (r, m))
    return tuple(out)


def match(
    host: Sequence[int],
    pattern: Perm,
    tied: AbstractSet[int] = frozenset(),
    val_tied: AbstractSet[int] = frozenset(),
) -> Iterator[tuple[int, ...]]:
    """Yield every occurrence of pattern in host as a tuple of 0-based
    indices, in lexicographic order.

    The pattern is a permutation and the host a sequence of integers; the
    caller checks both (`occurrences` and `BivincularPattern` run `as_perm`
    on the pattern).  An occurrence is a subsequence whose entries compare
    pairwise as the pattern's do.  `tied` holds position adjacencies with
    the meaning of `BivincularPattern.pos_adj`: 0 pins the first entry to the
    host's first position, k pins the last entry to its last, and 0 < x < k
    makes entry x directly follow entry x - 1.  `val_tied` holds value
    adjacencies with the meaning of `BivincularPattern.val_adj`, for a
    permutation pattern and a host with values 1..n: an entry whose rank
    neighbour across a tie is already chosen, or whose value is tied to 1 or
    n, has one candidate value, looked up by its position in the host.
    """
    k, n = len(pattern), len(host)
    if k > n:
        return
    if k == 0:
        yield ()
        return
    pattern = tuple(pattern)
    windows = _windows(pattern, frozenset(val_tied))
    where = dict(zip(host, range(n))) if val_tied else {}
    chosen = [0] * k
    # host values of chosen, then the slots of ties to 1 and n and the sentinels
    vals = [0] * k + [0, n + 1, math.inf, -math.inf]
    last = n - 1 if k in tied else 0  # lowest index the last entry may take
    m = i = 0
    while True:
        a, b, tie = windows[m]
        low, high = vals[a], vals[b]
        # a tie leaves one position: the first, or the one after entry m - 1
        stop = (chosen[m - 1] + 2 if m else 1) if m in tied else n - k + m + 1
        if i < last and m == k - 1:
            i = last
        if tie:  # one candidate value: low + 1, high - 1, or both when they agree
            x = low + 1 if tie & 1 else high - 1
            j = where.get(x, -1) if tie < 3 or x == high - 1 else -1
            i, stop = (j, j + 1) if i <= j < stop else (stop, stop)
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
    forbidden: Perm, n: int, under: list[int]
) -> Callable[[int, int, list[int], int], int]:
    """For a pattern of length k >= 5 and values 1..n: the function
    (c, d, stack, seen) -> the mask of the values v whose push onto
    stack[:d] + [c] would complete an occurrence (v, c, e3, ..., ek), read
    top to bottom, where seen is the mask of the values of stack[:d]; the
    bits of c and of those values do not matter.  It reads only stack[:d].

    under is the step's per-value table (`greedy_step`): under[a] is the
    mask of the values below a value a on the stack.  x[r] is the value of
    the entry of rank r (x[0] = 0, x[k + 1] = n + 1), strictly inside its
    window (`_levels`).

    `last` takes the candidates for e(k-1) as a mask of values and reads the
    values below each candidate a at under[a]; ek is the extremal of those
    in ek's window, the smallest if ek bounds v from below, else the largest
    (any other gives a subinterval).  An entry next in rank to its window's
    upper (lower) end bounds no later entry from below (above), so each
    value it tries rules out the smaller (larger) ones deeper down: the
    candidates are then taken from that end, and only those above each one
    tried stay.  When ek does not bound v, the first hit in that order (from
    the end that widens v's window, if e(k-1) bounds it) blocks every v
    that a later one would.  The same candidate loop, with e3 as e(k-1), is
    the step of a pattern of length 4 in `greedy_step`, which keeps only the
    candidates above each one tried for every pattern.  Here e3, ...,
    e(k-2) are the levels of a depth-first search down the stack, kept in a
    list of frames, with the same cut per level; it descends from an entry
    that `fits`, and `last` is its innermost level.  A push costs
    O(depth^(k - 4)) calls of `last`.  `greedy_step` steps patterns of
    length 3 and 4 without it.
    """
    k = len(forbidden)
    s1, s2 = forbidden[0], forbidden[1]
    v_lo, v_hi = s1 - 1, s1 + 1  # x[v_lo] < x[v_hi] in every occurrence
    x = [0] * (k + 1) + [n + 1]
    levels = _levels(forbidden)
    m = k - 3  # the number of middle entries
    sz, z_lo, z_hi = levels[-1][:3]  # ek: the smallest if sz < s1, else the largest
    s_in, in_lo, in_hi = levels[m][:3]  # e(k-1)
    down = in_hi == s_in + 1 or s_in == s1 + 1  # the largest candidate first
    cut = in_hi == s_in + 1 or in_lo == s_in - 1
    first = sz not in (v_lo, v_hi)  # ek does not bound v: stop at a hit
    low, high = _window_tables(n + 2)
    rest = low if down else high  # the candidates after a

    def last(cand: int) -> int:  # e(k-1) among the values cand
        mask = 0
        while cand:
            x[s_in] = a = cand.bit_length() - 1 if down else (cand & -cand).bit_length() - 1
            seen = under[a]
            w = seen & low[x[z_hi]] & high[x[z_lo]]
            if w:
                x[sz] = (w & -w).bit_length() - 1 if sz < s1 else w.bit_length() - 1
                mask |= low[x[v_hi]] & high[x[v_lo]]
                if first:
                    return mask
            cand &= rest[a]
            if cut:
                cand &= ~seen
        return mask

    def fits(t: int, seen: int, mask: int) -> bool:  # seen: the values below level t
        _, _, _, vlo_r, vhi_r, after = levels[t]
        if not low[x[vhi_r]] & high[x[vlo_r]] & ~mask:
            return False
        for lo, hi in after:
            if not seen & low[x[hi]] & high[x[lo]]:
                return False
        return True

    def grow(c: int, d: int, stack: list[int], seen: int) -> int:
        x[s2] = c
        mask = seen | 1 << c
        if not fits(0, seen, mask):
            return mask
        frames: list[tuple[int, int, int]] = []  # (index, window) of each level above
        t, i, lo, hi = 1, d, x[levels[1][1]], x[levels[1][2]]
        while True:
            if t == m:  # stack[:i] lies below the entry of level m - 1
                mask |= last(under[stack[i]] & low[hi] & high[lo])
            else:
                s, lo_r, hi_r, _, _, after = levels[t]
                i -= 1
                while i > m - t:  # room below for the levels after t
                    if lo < stack[i] < hi:
                        x[s] = a = stack[i]
                        lo, hi = a if hi_r == s + 1 else lo, a if lo_r == s - 1 else hi
                        if fits(t, under[a], mask):
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


_WINDOW_TABLES: tuple[list[int], list[int]] = ([], [])


def _window_tables(size: int) -> tuple[list[int], list[int]]:
    """(low, high), shared by every step and at least size long: low[a] =
    (1 << a) - 1 is the mask of the values below a, high[a] that of the
    values above a up to the tables' length.  A larger size builds tables at
    least twice as long and swaps them in whole, so a step keeps reading the
    tables it took."""
    global _WINDOW_TABLES
    low, high = _WINDOW_TABLES
    if len(low) < size:
        size = max(size, 2 * len(low))
        full = (1 << size) - 1
        low = [(1 << a) - 1 for a in range(size)]
        high = [full ^ (2 << a) - 1 for a in range(size)]
        _WINDOW_TABLES = low, high
    return low, high


Step = Callable[[int, int, list[int], list[int]], int]


def greedy_step(forbidden: Perm, n: int) -> Step:
    """The greedy rule for inputs with values 1..n: pop the top while pushing
    v would be illegal, then push v.  step(v, d, stack, blocked) returns the
    mask of the level that v adds when it lands at depth d, on stack[:d];
    the caller pushes it, blocked.append(mask) and stack.append(v), once
    both are cut to d.  The step reads only stack[:d] and blocked[:d + 1],
    so a walk can land a value on a node's own lists and copy nothing.  A
    pass pops while blocked[-1] >> v & 1, so d = len(stack); a walk that
    keeps stack and blocked whole counts d down from len(stack) while
    blocked[d] >> v & 1.  The top entries stack[d:] leave, top first.

    blocked holds one mask per stack level: it starts as [0], a pop drops
    its top and a push appends one.  Bit v <= n of blocked[d] is set when
    the push of v onto stack[:d] is illegal (bits of stack[:d] do not
    matter), so each push test is one bit.  For a pattern of length 2 the
    top entry c alone decides, and the mask of c is the values it blocks,
    -2 << c (every value above c) for 21 and (1 << c) - 1 for 12.  For
    k >= 3 the mask of v is blocked[d] with the values that v would start
    to block as the second entry of an occurrence.

    For k >= 3 the step keeps a table of its own, indexed by value: under[v]
    is the mask of the values below v on the stack, written when v lands
    on the entry c, as under[c] | 1 << c (0 at the bottom).  A pass pushes
    each value once, and the prefix-tree walk steps no value again below
    the node that pushed it, so under[a] is right for every value a in
    stack[:d] when the step reads it.  Its windows, the masks of the values
    below, above or between given values, come from `_window_tables`.

    For k = 3 the third entry of an occurrence is one of the values below
    v: the extremal one in its window beside v, the smallest if it bounds
    the new value from below, else the largest, so the step is a few
    big-int operations.  For k = 4 the step runs `_blocked_by`'s candidate
    loop itself over the values below v in e3's window, a few big-int
    operations per candidate.  It tries only the entries that can be e3:
    e4's window lies on one side of e3, so e3 needs a deeper entry on that
    side.  A second table, deep[v], holds the values below v that have one:
    deep[c], with c added when under[c] holds a value on that side of c.
    Unlike `_blocked_by`, the loop drops the values below every candidate
    it tries, for every pattern.  Where e3 is next in rank to neither end
    of its window (1423, 2134, 3421 and 4132) that holds for another
    reason.  For 2134 and 3421, e4's window is all of e4's side of e3, so
    every candidate hits.  For 1423 and 4132, say a candidate a misses and a
    deeper candidate a' then hits with some e4.  Then (a, a', e4) has the
    order of (s2, s3, s4), and the window of the values blocked is bounded
    by e3 and the ends alone, so the level where a was pushed already
    blocks every value that a' would block; blocked[d] carries that level.
    For k >= 5 the values come from `_blocked_by`.
    """
    k = len(forbidden)
    if k == 2:
        if forbidden[0] > forbidden[1]:

            def step(v: int, d: int, stack: list[int], blocked: list[int]) -> int:
                return -2 << v

        else:

            def step(v: int, d: int, stack: list[int], blocked: list[int]) -> int:
                return (1 << v) - 1

        return step
    under = [0] * (n + 1)  # the values below each value on the stack
    low, high = _window_tables(n + 2)
    if k == 3:
        s1, s2, s3 = forbidden
        v_lo, v_hi = s1 - 1, s1 + 1  # the ranks at the ends of v's window
        e3_side = high if s3 > s2 else low  # e3's side of the pushed value
        smallest = s3 < s1  # e3 bounds v from below
        x = [0] * 4 + [n + 1]  # the value of each rank, as in `_blocked_by`

        def step(v: int, d: int, stack: list[int], blocked: list[int]) -> int:
            top = blocked[d]
            if not d:
                under[v] = 0
                return top
            c = stack[d - 1]
            w = under[v] = under[c] | 1 << c
            w &= e3_side[v]
            if w:
                x[s2] = v
                x[s3] = (w & -w).bit_length() - 1 if smallest else w.bit_length() - 1
                top |= low[x[v_hi]] & high[x[v_lo]]
            return top

        return step
    if k == 4:
        s1, s2, s3, s4 = forbidden
        v_lo, v_hi = s1 - 1, s1 + 1
        e3_side = high if s3 > s2 else low  # e3's side of the pushed value
        e4_side = high if s4 > s3 else low  # e4's side of e3
        smallest = s4 < s1  # e4 bounds v from below
        _, (_, _, in_hi, *_), (_, z_lo, z_hi, *_) = _levels(forbidden)
        down = in_hi == s3 + 1 or s3 == s1 + 1  # the largest candidate first
        rest = low if down else high  # the candidates after a
        first = s4 not in (v_lo, v_hi)  # e4 does not bound v: stop at a hit
        x = [0] * 5 + [n + 1]
        deep = [0] * (n + 1)  # the values below each value that can be e3

        def step(v: int, d: int, stack: list[int], blocked: list[int]) -> int:
            top = blocked[d]
            if not d:
                under[v] = deep[v] = 0
                return top
            c = stack[d - 1]
            seen = under[c]
            under[v] = seen | 1 << c
            cand = deep[v] = deep[c] | 1 << c if seen & e4_side[c] else deep[c]
            cand &= e3_side[v]
            if cand:
                x[s2] = v
                while cand:
                    x[s3] = a = cand.bit_length() - 1 if down else (cand & -cand).bit_length() - 1
                    seen = under[a]
                    w = seen & low[x[z_hi]] & high[x[z_lo]]
                    if w:
                        x[s4] = (w & -w).bit_length() - 1 if smallest else w.bit_length() - 1
                        top |= low[x[v_hi]] & high[x[v_lo]]
                        if first:
                            break
                    cand &= rest[a] & ~seen
            return top

        return step
    grow = _blocked_by(forbidden, n, under)

    def step(v: int, d: int, stack: list[int], blocked: list[int]) -> int:
        if not d:
            under[v] = 0
            return blocked[0]
        c = stack[d - 1]
        seen = under[v] = under[c] | 1 << c
        return blocked[d] | grow(v, d, stack, seen)

    return step


def _checked_pattern(host: Sequence[int], pattern: Perm) -> Perm:
    """pattern as a permutation; ValueError unless it is one and host holds distinct ints."""
    pattern = as_perm(pattern)
    if _distinct_ints(host) is None:
        raise ValueError("host values must be distinct integers")
    return pattern


def contains(host: Sequence[int], pattern: Perm) -> bool:
    """True iff some subsequence of host is order-isomorphic to pattern.

    The pattern must be a permutation and the host a sequence of distinct
    integers, each exactly an int as in `as_perm` (ValueError otherwise, on
    every path).  The empty pattern is contained in everything.  Patterns
    of length 3 take one O(n) scan, and every other length one pass of
    `greedy_step`'s push over the host read right to left, with the host's
    values ranked onto 1..n unless they are 1..n already: host[j] starts an
    occurrence in host[j:] exactly when its bit is set in the mask of the
    stack that holds host[j + 1:], so the first such bit answers True.  Each
    entry is pushed once, so a pass costs O(n) steps for k = 2, about n² for
    k = 4 and at most n^(k-2) beyond, whatever the host.
    """
    pattern = _checked_pattern(host, pattern)
    k, n = len(pattern), len(host)
    if k > n:
        return False
    if k < 2:
        return True
    if k == 3:
        scan, rev, neg = _SCANS[pattern]
        values = reversed(host) if rev else host
        return scan(map(operator.neg, values) if neg else values)
    hit = _push_pass(host, pattern)
    if hit is None:  # not the values 1..n
        rank = dict(zip(sorted(host), range(1, n + 1)))
        hit = _push_pass([rank[v] for v in host], pattern)
    return hit


def _push_pass(host: Sequence[int], pattern: Perm) -> bool | None:
    """Push host[n - 1], ..., host[0] in turn with `greedy_step`'s step for
    the forbidden pattern: True at the first value whose push the top mask
    blocks, False when none is, None at the first value outside 1..n."""
    n = len(host)
    step = greedy_step(pattern, n)
    stack: list[int] = []
    blocked = [0]
    for d, v in enumerate(reversed(host)):
        if not 0 < v <= n:
            return None
        if blocked[d] >> v & 1:
            return True
        blocked.append(step(v, d, stack, blocked))
        stack.append(v)
    return False


def occurrences(host: Perm, pattern: Perm) -> Iterator[tuple[int, ...]]:
    """Yield every occurrence of pattern in host as a tuple of 1-based indices.

    Occurrences come out in lexicographic index order, each exactly once.
    The pattern must be a permutation and the host a sequence of distinct
    integers, each exactly an int, as for `contains` (ValueError otherwise).
    """
    return (tuple(i + 1 for i in occ) for occ in match(host, _checked_pattern(host, pattern)))


def all_perms(n: int) -> Iterator[Perm]:
    """All n! permutations of 1..n in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return iter(itertools.permutations(range(1, n + 1)))

