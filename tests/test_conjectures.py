import operator
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stacksort.conjectures import (
    KINDS,
    _records,
    ascent_sequences_avoiding,
    compare_families,
    equidistribution_report,
    first_mismatch,
    fishburn_avoiding,
    fishburn_permutations,
    joint_distribution,
)
from oracles import ascent_sequences, backtrack_contains, brute_fishburn_avoiders
from stacksort.enumeration import count_sortable
from stacksort.perms import all_perms, identity
from stacksort.verify import verify_conjectures

FISHBURN_NUMBERS = [1, 2, 5, 15, 53, 217]


def rl_minima(seq, strict=True):
    # right-to-left minima as joint_distribution counts them
    return _records(map(operator.neg, reversed(seq)), strict)


def test_stat_examples():
    # lr_max, rl_max and lr_min as joint_distribution counts them, and rl_min
    assert _records((2, 4, 1, 3)) == 2
    assert _records(identity(6)) == 6
    assert rl_minima((3, 2, 1)) == 1
    assert _records(reversed((3, 2, 1))) == 3
    assert _records(map(operator.neg, (2, 4, 1, 3))) == 2
    assert _records(()) == 0


@given(
    st.integers(1, 6).flatmap(lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)),
    st.lists(st.integers(0, 4), min_size=1, max_size=9).map(tuple),
)
def test_stats_match_definitions(p, word):
    n = len(p)
    assert _records(p) == sum(1 for i in range(n) if all(p[j] < p[i] for j in range(i)))
    assert _records(map(operator.neg, p)) == sum(
        1 for i in range(n) if all(p[j] > p[i] for j in range(i))
    )
    assert _records(reversed(p)) == sum(
        1 for i in range(n) if all(p[j] < p[i] for j in range(i + 1, n))
    )
    assert rl_minima(p) == sum(1 for i in range(n) if all(p[j] > p[i] for j in range(i + 1, n)))
    # words repeat letters: a strict record beats every earlier letter, a weak
    # one is beaten by none; a weak right-to-left minimum has no later letter
    # strictly smaller
    m = len(word)
    assert _records(word) == sum(
        1 for i in range(m) if all(word[j] < word[i] for j in range(i))
    )
    assert _records(word, strict=False) == sum(
        1 for i in range(m) if all(word[j] <= word[i] for j in range(i))
    )
    assert rl_minima(word) == sum(
        1 for i in range(m) if all(word[j] > word[i] for j in range(i + 1, m))
    )
    assert rl_minima(word, strict=False) == sum(
        1 for i in range(m) if all(word[j] >= word[i] for j in range(i + 1, m))
    )


def test_ascent_sequences_basics():
    # the oracle that lists every ascent sequence
    assert list(ascent_sequences(1)) == [(0,)]
    assert set(ascent_sequences(3)) == {
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    }
    for n, want in enumerate(FISHBURN_NUMBERS, start=1):
        seqs = list(ascent_sequences(n))
        assert len(seqs) == want
        assert seqs == sorted(set(seqs))  # lexicographic, no repeats


def test_ascent_sequences_do_not_recurse_per_entry():
    # the pruned 201 generator is one loop however long the sequence
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        first = ascent_sequences_avoiding(1200, (2, 0, 1))
        assert next(first) == (0,) * 1200
        assert next(first) == (0,) * 1199 + (1,)
    finally:
        sys.setrecursionlimit(limit)


@given(st.integers(1, 7))
@settings(deadline=None)
def test_ascent_sequences_are_valid(n):
    for seq in ascent_sequences(n):
        assert seq[0] == 0
        for i in range(1, n):
            ascents = sum(seq[j] < seq[j + 1] for j in range(i - 1))
            assert 0 <= seq[i] <= ascents + 1


def test_word_contains():
    # the oracle's containment on words, equal letters included
    assert backtrack_contains((0, 1, 2), (0, 1))
    assert backtrack_contains((0, 1, 0), (0, 0))
    assert not backtrack_contains((0, 1, 2), (0, 0))
    assert backtrack_contains((2, 0, 1), (2, 0, 1))
    assert backtrack_contains((0, 1, 3, 1, 2), (2, 0, 1))  # 3,1,2
    assert not backtrack_contains((0, 1, 2, 3), (2, 0, 1))
    assert backtrack_contains((5, 5), (1, 1))
    assert not backtrack_contains((5, 6), (1, 1))


def test_ascent_sequences_avoiding_201():
    assert list(ascent_sequences_avoiding(1, (2, 0, 1))) == [(0,)]
    assert sum(1 for _ in ascent_sequences_avoiding(3, (2, 0, 1))) == 5
    assert sum(1 for _ in ascent_sequences_avoiding(6, (2, 0, 1))) == 201


@pytest.mark.parametrize("n", range(1, 10))
def test_pruned_201_generator_matches_the_filter(n):
    want = [seq for seq in ascent_sequences(n) if not backtrack_contains(seq, (2, 0, 1))]
    assert list(ascent_sequences_avoiding(n, [2, 0, 1])) == want


@pytest.mark.parametrize("pattern", [(1, 0), (2, 1, 0), (1, 0, 2), (0, 1, 2), ()])
def test_ascent_sequences_avoiding_serves_only_201(pattern):
    with pytest.raises(ValueError, match="201"):
        ascent_sequences_avoiding(4, pattern)
    with pytest.raises(ValueError):
        ascent_sequences_avoiding(0, (2, 0, 1))


def test_zeros():
    # ascent201's pairs, right-to-left minima and zeros, from the definitions:
    # a strict minimum has no later letter at or below it, a weak one none below
    for n in range(1, 7):
        for convention, below in (("strict", operator.le), ("weak", operator.lt)):
            want = Counter(
                (
                    sum(
                        1
                        for i in range(n)
                        if not any(below(seq[j], seq[i]) for j in range(i + 1, n))
                    ),
                    sum(1 for x in seq if x == 0),
                )
                for seq in ascent_sequences_avoiding(n, (2, 0, 1))
            )
            assert joint_distribution("ascent201", n, convention).counts == want


def test_seq_rl_minima_conventions():
    assert rl_minima((0, 0, 0), strict=True) == 1
    assert rl_minima((0, 0, 0), strict=False) == 3
    assert rl_minima((0, 1, 0), strict=True) == 1
    assert rl_minima((0, 1, 0), strict=False) == 2
    assert rl_minima((0, 1, 2), strict=True) == 3


def test_fishburn_counts_match_reference_numbers():
    for n, want in enumerate(FISHBURN_NUMBERS[:5], start=1):
        assert sum(1 for _ in fishburn_permutations(n)) == want


def test_fishburn_avoiding_examples():
    assert sum(1 for _ in fishburn_avoiding(3, (3, 4, 1, 2))) == 5
    assert sum(1 for _ in fishburn_avoiding(6, (3, 4, 1, 2))) == 201
    assert list(fishburn_avoiding(1, (3, 4, 1, 2))) == [(1,)]


@pytest.mark.parametrize(
    "tau, max_n",
    [(tau, 8 if tau == (3, 4, 1, 2) else 6) for k in (2, 3, 4) for tau in all_perms(k)]
    + [((5, 4, 3, 1, 2), 6), ((2, 3, 5, 4, 1), 6)],
    ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else str(x),
)
def test_fishburn_avoiding_walk_matches_brute_filter(tau, max_n):
    for n in range(max_n + 1):
        assert list(fishburn_avoiding(n, tau)) == brute_fishburn_avoiders(n, tau)


def test_fishburn_avoiding_rejects_a_pattern_shorter_than_2():
    for tau in ((1,), ()):
        with pytest.raises(ValueError):
            fishburn_avoiding(3, tau)


def test_fishburn_3412_membership_at_length_4():
    members = set(fishburn_avoiding(4, (3, 4, 1, 2)))
    assert len(members) == 15
    assert (3, 4, 1, 2) not in members
    assert all(p in set(all_perms(4)) for p in members)


@pytest.mark.parametrize("n", range(1, 7))
def test_cardinality_chain(n):
    a = count_sortable(n, (3, 1, 2))
    b = sum(1 for _ in ascent_sequences_avoiding(n, (2, 0, 1)))
    c = sum(1 for _ in fishburn_avoiding(n, (3, 4, 1, 2)))
    assert a == b == c


def test_joint_distribution_totals():
    for kind in KINDS:
        assert joint_distribution(kind, 3).total() == 5
        assert joint_distribution(kind, 5).total() == 52


def test_joint_distribution_keys_sorted_and_convention_recorded():
    dist = joint_distribution("ascent201", 4, "weak")
    assert dist.convention == "weak"
    assert list(dist.counts) == sorted(dist.counts)
    with pytest.raises(ValueError):
        joint_distribution("ascent201", 3, "middling")
    with pytest.raises(ValueError):
        joint_distribution("sort231", 3)
    with pytest.raises(ValueError):
        joint_distribution("median", 3)
    for kind in KINDS:
        with pytest.raises(ValueError, match="n must be >= 1"):
            joint_distribution(kind, 0)


def test_strict_convention_matches_through_n_4():
    for n in range(1, 5):
        dists, mism = compare_families(n, "strict")
        assert [dist.kind for dist in dists] == list(KINDS)
        assert mism is None
        assert first_mismatch(dists[0], dists[1]) is None
        assert first_mismatch(dists[0], dists[2]) is None


def test_first_mismatch_reports_smallest_differing_pair():
    a = joint_distribution("sort312", 3)
    b = joint_distribution("sort312", 3)
    assert first_mismatch(a, b) is None
    shifted = joint_distribution("ascent201", 3, "weak")
    mism = first_mismatch(a, shifted)
    assert mism is not None
    assert mism[1] != mism[2]


def test_equidistribution_report_shape():
    lines = equidistribution_report(3)
    assert lines[0] == "ascent-sequence right-to-left minima convention: strict"
    assert "n = 1" in lines
    assert any(line.strip().startswith("EQUIDISTRIBUTED:") for line in lines)
    assert any("->" in line for line in lines)


@pytest.mark.parametrize("max_n", [0, 1])
def test_unknown_convention_is_rejected_at_every_length(max_n):
    # at max_n = 0 no family is tabulated, so the entry point checks it
    with pytest.raises(ValueError, match="unknown convention 'bogus'"):
        equidistribution_report(max_n, "bogus")
    with pytest.raises(ValueError, match="unknown convention 'bogus'"):
        verify_conjectures(max_n, "bogus")
