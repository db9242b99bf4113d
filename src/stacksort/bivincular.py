"""Bivincular pattern containment and the anchored-132 pattern.

A bivincular pattern is a classical pattern plus adjacency constraints: an
element x of pos_adj forces the x-th and (x+1)-th occurrence positions to be
consecutive in the host, and an element y of val_adj forces the y-th and
(y+1)-th smallest occurrence values to be consecutive integers.  The boundary
indices 0 and k anchor to the host's ends: 0 in pos_adj pins the occurrence
to start at position 1, k in pos_adj pins it to end at position n, and
symmetrically for val_adj on values 1 and n.  The pattern and every host
must be permutations (ValueError otherwise).  The search is `perms.match`,
which takes pos_adj as its position ties and val_adj as its value ties: an
entry whose rank neighbour across a value tie is already placed, or whose
value is tied to 1 or n, has one candidate, looked up by position rather
than scanned for, and the first occurrence found answers.

The module constant ANCHORED_132 is the pattern (132, {0, 2}, {}): an
occurrence of 132 that starts at the first entry and whose last two entries
are adjacent.  It is decided by one linear scan, `contains_anchored_132`;
its left-right mirror is the same scan on the reversed host.  The library's
scans of permutations it built call the scan unchecked,
`_contains_anchored_132`.  FISHBURN_PATTERN takes a linear scan too,
`_contains_fishburn`: an ascent (u, w) followed anywhere by u - 1.
`contains_bivincular` answers both named patterns with their scans.  A
permutation avoids ANCHORED_132 exactly when every block of its
first-element decomposition is increasing, which yields a product formula
for the number of avoiders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .perms import Perm, as_perm, match


@dataclass(frozen=True)
class BivincularPattern:
    pattern: Perm
    pos_adj: frozenset[int]
    val_adj: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pattern", as_perm(self.pattern))
        k = len(self.pattern)
        object.__setattr__(self, "pos_adj", frozenset(self.pos_adj))
        object.__setattr__(self, "val_adj", frozenset(self.val_adj))
        for name, adj in (("pos_adj", self.pos_adj), ("val_adj", self.val_adj)):
            if not all(0 <= x <= k for x in adj):
                raise ValueError(f"{name} must be a subset of 0..{k}: {sorted(adj)}")


ANCHORED_132 = BivincularPattern((1, 3, 2), frozenset({0, 2}), frozenset())

# Fishburn permutations avoid this: an occurrence of 231 whose "2" and "3"
# are adjacent in position and whose "1" and "2" are consecutive in value.
FISHBURN_PATTERN = BivincularPattern((2, 3, 1), frozenset({1}), frozenset({1}))


def contains_bivincular(host: Perm, bp: BivincularPattern) -> bool:
    """True iff host has a classical occurrence of bp.pattern satisfying all
    position- and value-adjacency constraints.  FISHBURN_PATTERN and
    ANCHORED_132 take their linear scans, every other pattern `perms.match`."""
    host = as_perm(host)
    scan = _NAMED_SCANS.get(bp)
    if scan is not None:
        return scan(host)
    return next(match(host, bp.pattern, bp.pos_adj, bp.val_adj), None) is not None


def _contains_fishburn(p: Perm) -> bool:
    # An ascent (u, w) sets bit u - 1 of cut, and a later u - 1 ends an
    # occurrence (u, w, u - 1): the rule of `conjectures._fishburn_child`.
    cut, u = 0, math.inf
    for w in p:
        if cut >> w & 1:
            return True
        if w > u:
            cut |= 1 << u - 1
        u = w
    return False


def contains_anchored_132(p: Perm) -> bool:
    """True iff some adjacent descent sits entirely above the first entry.

    Equivalent to contains_bivincular(p, ANCHORED_132): an occurrence of 132
    using the first entry and an adjacent pair.
    """
    return _contains_anchored_132(as_perm(p))


def _contains_anchored_132(p: Perm) -> bool:
    return any(p[j] > p[j + 1] > p[0] for j in range(1, len(p) - 1))


_NAMED_SCANS = {FISHBURN_PATTERN: _contains_fishburn, ANCHORED_132: _contains_anchored_132}


@dataclass(frozen=True)
class FirstElementDecomposition:
    """Split of p as first, B_0, b_1, B_1, ..., b_t, B_t.

    The b_i are the values smaller than the first entry (t of them, in host
    order, at 1-based small_positions); each block holds the larger values
    between consecutive b's.
    """

    t: int
    blocks: tuple[tuple[int, ...], ...]
    small_positions: tuple[int, ...]
    small_values: tuple[int, ...]


def first_element_decomposition(p: Perm) -> FirstElementDecomposition:
    p = as_perm(p)
    if not p:
        raise ValueError("cannot decompose the empty permutation")
    t = p[0] - 1
    blocks: list[tuple[int, ...]] = []
    small_positions: list[int] = []
    small_values: list[int] = []
    current: list[int] = []
    for pos, v in enumerate(p[1:], start=2):
        if v <= t:
            blocks.append(tuple(current))
            current = []
            small_positions.append(pos)
            small_values.append(v)
        else:
            current.append(v)
    blocks.append(tuple(current))
    return FirstElementDecomposition(t, tuple(blocks), tuple(small_positions), tuple(small_values))


def avoids_anchored_132_via_blocks(p: Perm) -> bool:
    """True iff every block of the first-element decomposition is increasing."""
    dec = first_element_decomposition(p)
    return all(
        all(block[i] < block[i + 1] for i in range(len(block) - 1))
        for block in dec.blocks
    )


def count_anchored_132_avoiders(n: int) -> int:
    """Closed-form count of length-n avoiders of ANCHORED_132.

    Grouping by the first entry t+1: the t values below it may appear in any
    order (t! ways) and each of the n-t-1 values above it independently picks
    one of the t+1 increasing blocks to sit in.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(math.factorial(t) * (t + 1) ** (n - t - 1) for t in range(n))
