import sys

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    backtrack_occurrences,
    brute_avoiders,
    brute_contains,
    brute_occurrences,
    standardize,
)
from stacksort.perms import (
    all_perms,
    as_perm,
    contains,
    format_perm,
    identity,
    match,
    occurrences,
    parse_perm,
    reverse,
    swap_first_two,
)
from stacksort.enumeration import catalan
from stacksort.machine import stack_pass
from stacksort.verify import avoider_set


def perm_strategy(max_n=6, min_n=0):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
    )


def test_as_perm_validation():
    assert as_perm([2, 1]) == (2, 1)
    assert as_perm(()) == ()
    with pytest.raises(ValueError):
        as_perm((1, 1))
    with pytest.raises(ValueError):
        as_perm((0, 1))
    with pytest.raises(ValueError):
        as_perm((2, 3))
    with pytest.raises(ValueError):
        as_perm((1, "2"))
    with pytest.raises(ValueError):
        as_perm((2, 2))
    # floats and bools compare equal to integers but are not entries
    with pytest.raises(ValueError):
        as_perm((2.0, 1.0))
    with pytest.raises(ValueError):
        as_perm((True,))
    with pytest.raises(ValueError):
        stack_pass((2, 3, 1), (2.0, 4.0, 1.0, 3.0))


def test_contains_examples():
    assert contains((2, 4, 1, 3), (2, 3, 1))
    assert not contains((1, 2, 3, 4), (2, 1))
    assert not contains((1, 3, 2), (2, 3, 1))
    assert contains((2, 4, 1, 3), ())
    assert contains((), ())
    assert not contains((), (1,))


def test_contains_matches_brute_force():
    for n in range(0, 6):
        for host in all_perms(n):
            for k in range(0, 5):
                for pattern in all_perms(k):
                    assert contains(host, pattern) == brute_contains(host, pattern)


def _sequence(max_n, word):
    # a permutation of 1..n, or a word over the letters 0..3
    if word:
        return st.lists(st.integers(0, 3), max_size=max_n).map(tuple)
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
    )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_match_lists_every_occurrence_in_order(data):
    word = data.draw(st.booleans())
    host = data.draw(_sequence(14, word))
    pattern = data.draw(_sequence(5, word).filter(len))
    tied = data.draw(st.sets(st.integers(0, len(pattern))))
    got = [tuple(i + 1 for i in occ) for occ in match(host, pattern, tied)]
    assert got == list(brute_occurrences(host, pattern, tied))
    if not tied:
        assert got == list(backtrack_occurrences(host, pattern))


def test_long_pattern_does_not_recurse():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        assert contains(identity(1200), identity(1100))
        assert list(occurrences(identity(1100), identity(1100))) == [identity(1100)]
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "call",
    [
        lambda: contains((3, 1, 2), (1, 1)),
        lambda: contains((3, 1, 2), (2, 3)),
        lambda: occurrences((3, 1, 2), (0, 1)),
    ],
    ids=["contains-repeat", "contains-gap", "occurrences-range"],
)
def test_pattern_must_be_a_permutation(call):
    with pytest.raises(ValueError):
        call()


def test_occurrences_examples():
    assert list(occurrences((2, 4, 1, 3), (2, 1))) == [(1, 3), (2, 3), (2, 4)]
    assert list(occurrences((1, 2, 3), (1, 2, 3))) == [(1, 2, 3)]
    assert list(occurrences((3, 2, 1), (1, 2))) == []


def test_occurrences_are_sound_lex_ordered_and_complete():
    for n in range(0, 6):
        for host in all_perms(n):
            for k in range(1, 4):
                for pattern in all_perms(k):
                    occs = list(occurrences(host, pattern))
                    assert occs == sorted(occs)
                    assert len(set(occs)) == len(occs)
                    for occ in occs:
                        assert all(occ[i] < occ[i + 1] for i in range(k - 1))
                        assert standardize([host[i - 1] for i in occ]) == pattern
                    assert bool(occs) == contains(host, pattern)


def test_reverse_examples():
    assert reverse((2, 4, 1, 3)) == (3, 1, 4, 2)
    assert reverse((1,)) == (1,)
    assert reverse((2, 3, 1)) == (1, 3, 2)


@given(perm_strategy())
def test_reverse_is_an_involution(p):
    assert reverse(reverse(p)) == p


def test_swap_first_two():
    assert swap_first_two((2, 3, 1)) == (3, 2, 1)
    assert swap_first_two((1, 2, 3)) == (2, 1, 3)
    assert swap_first_two((3, 1, 2, 4)) == (1, 3, 2, 4)
    with pytest.raises(ValueError):
        swap_first_two((1,))


def test_all_perms():
    assert list(all_perms(0)) == [()]
    three = list(all_perms(3))
    assert len(three) == 6
    assert three[:2] == [(1, 2, 3), (1, 3, 2)]
    assert three == sorted(three)
    assert len(list(all_perms(4))) == 24


def test_avoiders_examples():
    assert len(list(brute_avoiders(3, [(2, 3, 1)]))) == 5
    assert set(brute_avoiders(3, [(1, 2, 3), (2, 3, 1)])) == {
        (1, 3, 2),
        (2, 1, 3),
        (3, 1, 2),
        (3, 2, 1),
    }
    assert len(list(brute_avoiders(4, []))) == 24


# The library's avoider scan is verify's: its containment table up to
# n = 8, `contains` beyond.
@pytest.mark.parametrize("n", range(1, 9))
def test_single_length3_pattern_avoiders_are_catalan(n):
    assert len(avoider_set(n, ((2, 3, 1),))) == catalan(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [9, 10])
def test_single_length3_pattern_avoiders_are_catalan_extended(n):
    assert len(avoider_set(n, ((2, 3, 1),))) == catalan(n)


@given(st.data())
def test_containment_is_transitive_on_witnessed_chains(data):
    p = data.draw(perm_strategy(6, min_n=1))
    idx_q = sorted(data.draw(st.sets(st.integers(0, len(p) - 1), min_size=1)))
    q = standardize([p[i] for i in idx_q])
    idx_r = sorted(data.draw(st.sets(st.integers(0, len(q) - 1), min_size=1)))
    r = standardize([q[i] for i in idx_r])
    assert contains(p, q)
    assert contains(q, r)
    assert contains(p, r)


def test_parse_perm_forms():
    assert parse_perm("2 4 1 3") == (2, 4, 1, 3)
    assert parse_perm("2,4,1,3") == (2, 4, 1, 3)
    assert parse_perm("2413") == (2, 4, 1, 3)
    assert parse_perm("1") == (1,)
    assert parse_perm("") == ()
    assert parse_perm("10 2 1 3 4 5 6 7 8 9") == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)


def test_parse_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_perm("24a3")
    with pytest.raises(ValueError):
        parse_perm("120")  # compact form has no digit 0
    with pytest.raises(ValueError):
        parse_perm("1 2 2")


def test_parse_compact_is_digitwise():
    assert parse_perm("12") == (1, 2)
    assert parse_perm("321") == (3, 2, 1)


@given(perm_strategy(9))
def test_format_parse_round_trip(p):
    assert parse_perm(format_perm(p)) == p


def test_standardize():
    assert standardize((5, 9, 2)) == (2, 3, 1)
    assert standardize(()) == ()
    assert standardize((7,)) == (1,)
    assert standardize(identity(4)) == identity(4)
