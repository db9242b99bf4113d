import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    avoider_132,
    brute_occurrences,
    count_anchored_132_avoiders_brute,
    reverse_bivincular,
)
from stacksort.bivincular import (
    ANCHORED_132,
    FISHBURN_PATTERN,
    BivincularPattern,
    avoids_anchored_132_via_blocks,
    contains_anchored_132,
    contains_bivincular,
    count_anchored_132_avoiders,
    first_element_decomposition,
)
from stacksort.perms import all_perms, contains, identity, match, reverse


def bp_strategy(max_k=3):
    def build(pattern):
        k = len(pattern)
        subsets = st.sets(st.integers(0, k), max_size=k + 1).map(frozenset)
        return st.tuples(subsets, subsets).map(
            lambda xy: BivincularPattern(tuple(pattern), xy[0], xy[1])
        )

    return (
        st.integers(1, max_k)
        .flatmap(lambda k: st.permutations(tuple(range(1, k + 1))))
        .flatmap(build)
    )


def perm_strategy(max_n=6):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
    )


def test_adjacency_sets_must_be_in_range():
    with pytest.raises(ValueError):
        BivincularPattern((1, 2), frozenset({3}), frozenset())
    with pytest.raises(ValueError):
        BivincularPattern((1, 2), frozenset(), frozenset({-1}))


@pytest.mark.parametrize("pattern", [(1, 1), (0, 1), (1, 3), (2, 3, 3)])
def test_pattern_must_be_a_permutation(pattern):
    with pytest.raises(ValueError):
        BivincularPattern(pattern, frozenset(), frozenset())


def test_unconstrained_bivincular_equals_classical():
    for n in range(0, 7):
        for host in all_perms(n):
            for k in range(1, 5):
                for pattern in all_perms(k):
                    bp = BivincularPattern(pattern, frozenset(), frozenset())
                    assert contains_bivincular(host, bp) == contains(host, pattern)


def test_position_anchor_conventions():
    # 0 in X pins the occurrence start to position 1; k in X pins its end to
    # position n; symmetrically for Y on values 1 and n.
    start_pinned = BivincularPattern((2, 1), frozenset({0}), frozenset())
    assert contains_bivincular((3, 1, 2), start_pinned)  # 3 then 1
    assert not contains_bivincular((1, 3, 2), start_pinned)  # descents start later
    end_pinned = BivincularPattern((2, 1), frozenset({2}), frozenset())
    assert contains_bivincular((1, 3, 2), end_pinned)
    assert not contains_bivincular((2, 3, 1, 4), end_pinned)
    low_value = BivincularPattern((2, 1), frozenset(), frozenset({0}))
    assert contains_bivincular((3, 2, 1), low_value)  # some descent bottoms at 1
    assert not contains_bivincular((1, 3, 2), low_value)  # only descent is 3>2
    high_value = BivincularPattern((2, 1), frozenset(), frozenset({2}))
    assert contains_bivincular((1, 3, 2), high_value)
    assert not contains_bivincular((2, 1, 3), high_value)  # only descent is 2>1


def test_value_adjacency_inside():
    # an inversion of consecutive values; only the identity avoids it
    bp = BivincularPattern((2, 1), frozenset(), frozenset({1}))
    assert contains_bivincular((2, 1, 3), bp)
    assert contains_bivincular((1, 4, 3, 2), bp)
    assert contains_bivincular((3, 1, 4, 2), bp)  # the inversion 3 > 2
    for n in range(1, 6):
        for p in all_perms(n):
            assert contains_bivincular(p, bp) == (p != identity(n))


def test_an_entry_tied_twice_meets_both_ties():
    # the 3 of 132 with val_adj {1, 2} is one above the 1 and one below the 2
    middle = BivincularPattern((1, 3, 2), frozenset(), frozenset({1, 2}))
    assert contains_bivincular((1, 3, 2), middle)
    assert contains_bivincular((4, 1, 3, 2), middle)
    assert not contains_bivincular((1, 4, 2, 3), middle)  # 142 and 143 meet one tie each
    # the 1 of 21 with val_adj {0, 1} is the value 1 and one below the 2
    bottom = BivincularPattern((2, 1), frozenset(), frozenset({0, 1}))
    assert contains_bivincular((2, 3, 1), bottom)
    assert not contains_bivincular((3, 1, 2), bottom)


def _subsets(k):
    return [frozenset(c) for r in range(k + 2) for c in itertools.combinations(range(k + 1), r)]


HOSTS_UP_TO_5 = [h for n in range(6) for h in all_perms(n)]


@pytest.mark.parametrize(
    "pattern", list(all_perms(2)) + list(all_perms(3)), ids=lambda p: "".join(map(str, p))
)
def test_value_ties_give_the_brute_force_occurrences_in_order(pattern):
    # every pos_adj and val_adj, entries tied twice and ties to 1 and n included
    for pos_adj in _subsets(len(pattern)):
        for val_adj in _subsets(len(pattern)):
            bp = BivincularPattern(pattern, pos_adj, val_adj)
            for host in HOSTS_UP_TO_5:
                want = list(brute_occurrences(host, pattern, pos_adj, val_adj))
                got = [tuple(i + 1 for i in occ) for occ in match(host, pattern, pos_adj, val_adj)]
                assert got == want
                assert contains_bivincular(host, bp) == bool(want)


def test_anchored_132_examples():
    assert contains_bivincular((1, 4, 3, 2), ANCHORED_132)
    assert not contains_bivincular((2, 3, 1), ANCHORED_132)
    assert contains_bivincular((3, 5, 4, 1, 2), ANCHORED_132)
    assert not contains_anchored_132((3, 4, 1, 5, 2))
    assert not contains_anchored_132(identity(6))


def test_anchored_132_fast_path_equals_generic_engine():
    # The mirrored pattern, a 231 whose first two entries are adjacent and
    # whose last entry ends the host, is the scan on the reversed host.
    mirrored = BivincularPattern((2, 3, 1), frozenset({1, 3}), frozenset())
    for n in range(0, 8):
        for p in all_perms(n):
            assert contains_anchored_132(p) == contains_bivincular(p, ANCHORED_132)
            assert contains_anchored_132(reverse(p)) == contains_bivincular(p, mirrored)


def _fishburn_by_match(p):
    # the generic engine, called directly: contains_bivincular routes
    # FISHBURN_PATTERN to its scan
    return next(match(p, (2, 3, 1), {1}, {1}), None) is not None


def test_fishburn_scan_equals_generic_engine():
    for n in range(0, 9):
        for p in all_perms(n):
            assert contains_bivincular(p, FISHBURN_PATTERN) == _fishburn_by_match(p)


@given(
    st.one_of(
        perm_strategy(256),
        st.lists(st.integers(0, 255), max_size=256).map(avoider_132),
    )
)
@settings(max_examples=200, deadline=None)
def test_fishburn_scan_equals_generic_engine_on_long_hosts(host):
    assert contains_bivincular(host, FISHBURN_PATTERN) == _fishburn_by_match(host)


def test_reverse_bivincular_formula_and_involution():
    assert reverse_bivincular(ANCHORED_132) == BivincularPattern(
        (2, 3, 1), frozenset({1, 3}), frozenset()
    )
    plain = BivincularPattern((3, 1, 2), frozenset(), frozenset())
    assert reverse_bivincular(plain).pattern == (2, 1, 3)
    for bp in (ANCHORED_132, FISHBURN_PATTERN, plain):
        assert reverse_bivincular(reverse_bivincular(bp)) == bp


@settings(max_examples=200, deadline=None)
@given(bp_strategy(), perm_strategy())
def test_reverse_bivincular_contract(bp, p):
    assert contains_bivincular(reverse(p), bp) == contains_bivincular(
        p, reverse_bivincular(bp)
    )


def test_reverse_bivincular_contract_exhaustive_for_main_patterns():
    for bp in (ANCHORED_132, FISHBURN_PATTERN):
        rbp = reverse_bivincular(bp)
        for n in range(0, 7):
            for p in all_perms(n):
                assert contains_bivincular(reverse(p), bp) == contains_bivincular(p, rbp)


@settings(max_examples=300, deadline=None)
@given(bp_strategy(4), perm_strategy(9))
def test_bivincular_occurrences_match_brute_force(bp, p):
    brute = next(brute_occurrences(p, bp.pattern, bp.pos_adj, bp.val_adj), None)
    assert contains_bivincular(p, bp) == (brute is not None)


def test_bivincular_occurrences_are_valid():
    for host, occs in (
        ((1, 4, 3, 2), [(1, 2, 3), (1, 3, 4)]),
        ((2, 1, 4, 3), [(1, 3, 4)]),
        ((3, 4, 1, 2), []),
        ((2, 4, 1, 3), []),
    ):
        bp = ANCHORED_132
        assert list(brute_occurrences(host, bp.pattern, bp.pos_adj, bp.val_adj)) == occs
        assert contains_bivincular(host, bp) == bool(occs)


def test_first_element_decomposition_examples():
    dec = first_element_decomposition((3, 5, 4, 1, 2))
    assert dec.t == 2
    assert dec.blocks == ((5, 4), (), ())
    assert dec.small_positions == (4, 5)
    assert dec.small_values == (1, 2)
    dec = first_element_decomposition(identity(5))
    assert dec.t == 0
    assert dec.blocks == ((2, 3, 4, 5),)
    dec = first_element_decomposition((2, 1))
    assert dec.t == 1
    assert dec.blocks == ((), ())
    with pytest.raises(ValueError):
        first_element_decomposition(())


@given(perm_strategy(7).filter(lambda p: len(p) >= 1))
def test_first_element_decomposition_reassembles(p):
    dec = first_element_decomposition(p)
    rebuilt = [dec.t + 1, *dec.blocks[0]]
    for b, block in zip(dec.small_values, dec.blocks[1:]):
        rebuilt += [b, *block]
    assert tuple(rebuilt) == p
    assert [p[i - 1] for i in dec.small_positions] == list(dec.small_values)
    assert sorted(dec.small_values) == list(range(1, dec.t + 1))
    assert all(v > dec.t + 1 for block in dec.blocks for v in block)
    assert len(dec.blocks) == dec.t + 1


def test_block_criterion_examples():
    assert not avoids_anchored_132_via_blocks((3, 5, 4, 1, 2))
    assert avoids_anchored_132_via_blocks((3, 4, 1, 5, 2))
    assert avoids_anchored_132_via_blocks(identity(7))


def test_block_criterion_equals_containment_up_to_8():
    for n in range(1, 9):
        for p in all_perms(n):
            assert avoids_anchored_132_via_blocks(p) == (not contains_anchored_132(p))


def test_avoiders_starting_with_1_are_the_identity():
    for n in range(1, 9):
        for p in all_perms(n):
            if p[0] == 1 and not contains_anchored_132(p):
                assert p == identity(n)


def test_classical_132_avoidance_refines_anchored_avoidance():
    for n in range(1, 9):
        for p in all_perms(n):
            if not contains(p, (1, 3, 2)):
                assert not contains_anchored_132(p)


def test_avoider_count_formula_values():
    assert [count_anchored_132_avoiders(n) for n in range(1, 7)] == [1, 2, 5, 17, 75, 407]
    assert count_anchored_132_avoiders(4) == 17
    with pytest.raises(ValueError):
        count_anchored_132_avoiders(0)


@pytest.mark.parametrize("n", range(1, 8))
def test_avoider_count_matches_brute_force(n):
    assert count_anchored_132_avoiders(n) == count_anchored_132_avoiders_brute(n)
