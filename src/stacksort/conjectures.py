"""Joint statistics on three families conjectured to be equinumerous.

The three families at each length n: inputs the 312-machine sorts, Fishburn
permutations avoiding 3412, and ascent sequences avoiding the word pattern
201.  Their cardinalities agree as far as exhaustive search reaches; the
explorer also tabulates one statistic pair per family and compares the joint
distributions, reporting (not asserting) whether they coincide.  The first
two families are prefix-closed and each is listed by one pruned walk of the
prefix tree, `enumeration.prefix_walk`.  The third is grown pruned too: one
interval mask per prefix cuts every letter that would end a 201.

Every statistic is one record counter, `_records`, run on the sequence read
forwards or backwards, negated or not.  Statistic conventions for ascent
sequences are not forced by anything, so their right-to-left minima are
counted strictly (every later letter is larger) or weakly (none is
smaller); reports always state the active convention.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import neg
from typing import Iterable, Iterator, Sequence

from .bivincular import FISHBURN_PATTERN, contains_bivincular
from .enumeration import PruneHook, prefix_walk, sortable_permutations
from .machine import check_forbidden
from .perms import Perm, all_perms

Word = tuple[int, ...]


def _records(values: Iterable[int], strict: bool = True) -> int:
    """Left-to-right maxima of a sequence: entries above every earlier entry
    or, with strict false, below none of them."""
    count, best = 0, -math.inf
    for v in values:
        if v > best or v == best and not strict:
            count, best = count + 1, v
    return count


def ascent_sequences_avoiding(n: int, pattern: Sequence[int]) -> Iterator[Word]:
    """Ascent sequences of length n with no subsequence matching the word
    pattern 201, in lexicographic order; ValueError for any other pattern.

    Grown pruned, one loop: appending y ends a 201 exactly when y lies
    strictly inside (x, z) for some z that comes before x, so one mask per
    prefix, the union of those intervals, cuts every such y.  Appending w adds
    the interval (w, max so far).  0 is never cut, so every kept prefix
    extends to a kept sequence."""
    if tuple(pattern) != (2, 0, 1):
        raise ValueError("only the word pattern 201 is supported")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _avoiding_201(n)


def _avoiding_201(n: int) -> Iterator[Word]:
    # after seq[: i + 1]: its ascents, its largest letter and the cut mask
    seq, ascents, top, cut = [0] * n, [0] * n, [0] * n, [0] * n
    while True:
        yield tuple(seq)
        i = n - 1
        while i:  # the next letter y above seq[i] that is at most ascents + 1 and not cut
            grow = ((4 << ascents[i - 1]) - 1) & -(2 << seq[i]) & ~cut[i - 1]
            if grow:
                break
            i -= 1
        else:
            return
        y = (grow & -grow).bit_length() - 1
        m = max(top[i - 1], y)
        seq[i], ascents[i], top[i] = y, ascents[i - 1] + (y > seq[i - 1]), m
        cut[i] = cut[i - 1] | (1 << m) - (2 << y) if m > y else cut[i - 1]
        # the rest is all 0s, each adding the interval (0, m)
        rest = n - 1 - i
        seq[i + 1 :], ascents[i + 1 :] = [0] * rest, [ascents[i]] * rest
        top[i + 1 :], cut[i + 1 :] = [m] * rest, [cut[i] | (1 << m) - 2] * rest


def fishburn_permutations(n: int) -> Iterator[Perm]:
    """Permutations of length n avoiding the Fishburn bivincular pattern, by
    a scan of all n! permutations.  The scan applies fishburn_avoiding's cut
    rule, so the count's check is the published Fishburn numbers (`CONJ
    fishburn-def`), and the tests' reference is the generic `perms.match`."""
    for p in all_perms(n):
        if not contains_bivincular(p, FISHBURN_PATTERN):
            yield p


def _fishburn_child(v: int, d: int, prefix: list[int], cut: int) -> int | None:
    """Child test of fishburn_avoiding's prune hook: keep v after prefix
    (the stack, which never pops) unless it ends an occurrence of the
    classical pattern (v would pop) or of the Fishburn pattern (bit v of cut
    is set)."""
    if d < len(prefix) or cut >> v & 1:
        return None
    if prefix and v > prefix[-1]:
        # v climbs from u = prefix[-1]: u - 1 anywhere later ends a Fishburn
        # occurrence (u, v, u - 1)
        return cut | 1 << prefix[-1] - 1
    return cut


def _fishburn_leaf(w: int, e: int, v: int, d: int, prefix: list[int], cut: int) -> bool:
    # the same test for the last value w after prefix[:d] + [v], whose cut is v's
    return e > d and not cut >> w & 1


_FISHBURN = PruneHook(_fishburn_child, _fishburn_leaf)


def fishburn_avoiding(n: int, classical: Perm) -> Iterator[Perm]:
    """Fishburn permutations of length n also avoiding a classical pattern
    of length >= 2 (ValueError otherwise), in lexicographic order.

    Both conditions are closed under prefixes, so this is one pruned walk of
    the prefix tree (`enumeration.prefix_walk`) on the machine of the
    reversed pattern: v followed by the prefix read backwards starts an
    occurrence of it exactly when prefix + v ends an occurrence of the
    classical pattern, and that is exactly when v would pop."""
    forbidden = check_forbidden(classical, n)[::-1]
    return (p for p, _ in prefix_walk(forbidden, n, _FISHBURN, 0))


KINDS = ("sort312", "fishburn3412", "ascent201")


@dataclass(frozen=True)
class JointDistribution:
    kind: str
    n: int
    counts: dict[tuple[int, int], int]
    convention: str = "strict"

    def total(self) -> int:
        return sum(self.counts.values())


def joint_distribution(kind: str, n: int, minima_convention: str = "strict") -> JointDistribution:
    """Tabulate the statistic pair of one family at length n >= 1.

    sort312: (lr_max, rl_max) over inputs the 312-machine sorts.
    fishburn3412: (lr_max, lr_min) over Fishburn permutations avoiding 3412.
    ascent201: (right-to-left minima, zeros) over ascent sequences
    avoiding 201; the minima convention applies here only.
    """
    if minima_convention not in ("strict", "weak"):
        raise ValueError(f"unknown convention {minima_convention!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "sort312":
        perms = sortable_permutations(n, (3, 1, 2))
        pairs = ((_records(p), _records(reversed(p))) for p in perms)
    elif kind == "fishburn3412":
        perms = fishburn_avoiding(n, (3, 4, 1, 2))
        pairs = ((_records(p), _records(map(neg, p))) for p in perms)
    elif kind == "ascent201":
        strict = minima_convention == "strict"
        seqs = ascent_sequences_avoiding(n, (2, 0, 1))
        pairs = ((_records(map(neg, reversed(seq)), strict), seq.count(0)) for seq in seqs)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return JointDistribution(kind, n, dict(sorted(Counter(pairs).items())), minima_convention)


def first_mismatch(
    a: JointDistribution, b: JointDistribution
) -> tuple[tuple[int, int], int, int] | None:
    """Smallest pair on which two distributions disagree, or None."""
    for key in sorted(set(a.counts) | set(b.counts)):
        ca = a.counts.get(key, 0)
        cb = b.counts.get(key, 0)
        if ca != cb:
            return key, ca, cb
    return None


def compare_families(
    n: int, minima_convention: str = "strict"
) -> tuple[list[JointDistribution], tuple[tuple[int, int], int, int] | None]:
    """The joint distributions of the three KINDS at length n >= 1, and the
    first mismatch of sort312's against fishburn3412's, then against
    ascent201's (None when all three agree)."""
    dists = [joint_distribution(kind, n, minima_convention) for kind in KINDS]
    return dists, first_mismatch(dists[0], dists[1]) or first_mismatch(dists[0], dists[2])


def equidistribution_report(max_n: int, minima_convention: str = "strict") -> list[str]:
    """Per-n blocks of "pair -> count" lines for the three families, each
    block followed by an equidistribution verdict.  Raises ValueError for
    max_n < 0."""
    if max_n < 0:
        raise ValueError("n must be >= 0")
    lines = [f"ascent-sequence right-to-left minima convention: {minima_convention}"]
    for n in range(1, max_n + 1):
        dists, mism = compare_families(n, minima_convention)
        lines.append(f"n = {n}")
        for dist in dists:
            lines.append(f"  {dist.kind} (total {dist.total()})")
            for pair, count in dist.counts.items():
                lines.append(f"    {pair[0]},{pair[1]} -> {count}")
        if mism is None:
            lines.append("  EQUIDISTRIBUTED: yes")
        else:
            key, ca, cb = mism
            lines.append(
                f"  EQUIDISTRIBUTED: no (first mismatch: pair {key[0]},{key[1]} "
                f"counts {ca} vs {cb})"
            )
    return lines
