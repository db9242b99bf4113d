import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    avoider_132,
    backtrack_contains,
    backtrack_occurrences,
    brute_avoiders,
    brute_occurrences,
    brute_patterns,
    standardize,
)
from stacksort import perms
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
    # the 231 and 132 scans on values below 1
    assert not contains((-2, 0, -1), (2, 3, 1))
    assert not contains((0, 1, -1), (1, 3, 2))
    assert contains((0, 1, -1), (2, 3, 1))


def test_contains_matches_brute_force():
    # every host up to length 6 against every pattern up to length 5
    patterns = [t for k in range(6) for t in all_perms(k)]
    for n in range(0, 7):
        for host in all_perms(n):
            contained = brute_patterns(host)
            for pattern in patterns:
                assert contains(host, pattern) == (pattern in contained)


PATTERNS = st.integers(2, 5).flatmap(lambda k: st.permutations(tuple(range(1, k + 1))).map(tuple))


@given(
    host=st.one_of(
        st.integers(0, 60).flatmap(lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)),
        st.lists(st.integers(0, 59), max_size=60).map(avoider_132),
    ),
    pattern=PATTERNS,
)
@settings(max_examples=200, deadline=None)
def test_contains_matches_oracle_on_long_hosts(host, pattern):
    if backtrack_contains(pattern, (1, 3, 2)) and not backtrack_contains(host, (1, 3, 2)):
        # containment is transitive; the backtracking search would take
        # seconds on some of these
        assert not contains(host, pattern)
    else:
        assert contains(host, pattern) == backtrack_contains(host, pattern)


def _dense_host(n):
    # n distinct values spanning fewer than 2n, shifted anywhere
    return st.tuples(
        st.lists(st.integers(0, 2 * n - 2), min_size=n, max_size=n, unique=True),
        st.integers(-100, 100),
    ).map(lambda ls: tuple(v + ls[1] for v in ls[0]))


@given(
    host=st.one_of(
        st.integers(1, 40).flatmap(_dense_host),
        st.lists(st.integers(-10**9, 10**9), max_size=40, unique=True).map(tuple),
    ),
    pattern=PATTERNS,
)
@settings(max_examples=200, deadline=None)
def test_contains_reads_any_distinct_int_host(host, pattern):
    # the scans read the values as they are, the push pass reads their ranks
    assert contains(host, pattern) == backtrack_contains(host, pattern)


@pytest.mark.parametrize("pattern", [(1, 2), (2, 3, 1), (2, 1, 3), (1, 2, 3, 4)], ids=str)
@pytest.mark.parametrize(
    "host",
    [
        (1, 2, 2, 3),
        (1, 1, 2, 3, 4),
        (5, 9, -3, 9),
        (10**9, 1, 10**9, 7),
        (2.5, 1, 3, 4),
        (1.0, 2.0, 3.0, 4.0),
        (2.5, 1, 3),
        (1.0, 2.0),
    ],
    ids=str,
)
def test_contains_rejects_a_repeated_host_value(host, pattern):
    # every path checks, also where the host holds the pattern apart from the
    # repeated value: (1, 1, 2, 3, 4) holds 12 and 1234, (5, 9, -3, 9) 231;
    # and a host entry that is not exactly an int is rejected the same way
    with pytest.raises(ValueError):
        contains(host, pattern)


def test_contains_builds_one_mask_per_host_entry(monkeypatch):
    # Shapes on which a backtracking search takes seconds to hours: every
    # start of a long avoider or a monotone host leads into a large subtree
    # that holds no occurrence, and the host that starts 244, 1 begins with
    # two entries that no occurrence of 23541 can start from.  The pass
    # pushes each host entry once and builds one mask per push.
    grows = 0
    blocked_by = perms._blocked_by

    def counting(*args):
        grow = blocked_by(*args)

        def counted(*a):
            nonlocal grows
            grows += 1
            return grow(*a)

        return counted

    monkeypatch.setattr(perms, "_blocked_by", counting)
    rng = random.Random(245)
    rest = list(range(2, 244)) + [245]
    rng.shuffle(rest)
    p = (244, 1, *rest)
    avoider = avoider_132([rng.randrange(256) for _ in range(256)])
    for host, tau, want in (
        (avoider, (5, 4, 1, 3, 2), False),  # 54132 contains 132
        (p, (2, 3, 5, 4, 1), backtrack_contains(p[2:], (2, 3, 5, 4, 1))),
        (identity(300)[::-1], (5, 4, 2, 1, 3), False),
    ):
        grows = 0
        assert contains(host, tau) == want
        assert 0 < grows <= len(host)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_match_lists_every_occurrence_in_order(data):
    host = data.draw(perm_strategy(14))
    pattern = data.draw(perm_strategy(5, min_n=1))
    tied = data.draw(st.sets(st.integers(0, len(pattern))))
    # value ties lean on _windows' claim that an earlier rank neighbour is an
    # end of the entry's window
    val_tied = data.draw(st.sets(st.integers(0, len(pattern))))
    got = [tuple(i + 1 for i in occ) for occ in match(host, pattern, tied, val_tied)]
    assert got == list(brute_occurrences(host, pattern, tied, val_tied))
    if not (tied or val_tied):
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
        lambda: occurrences((1, 1, 2), (1, 2)),
        lambda: occurrences((1, 2.0, 3), (1, 2)),
    ],
    ids=[
        "contains-repeat",
        "contains-gap",
        "occurrences-range",
        "occurrences-word-host",
        "occurrences-float-host",
    ],
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
