import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stacksort import enumeration
from stacksort.enumeration import (
    catalan,
    count_sortable,
    count_sortable_123_formula,
    count_sorted,
    every_length_pairs,
    fertility,
    gamma_decomposition_123,
    machine_outputs,
    sortable_pairs,
    sortable_permutations,
    sorted_profile,
)
from oracles import backtrack_contains, naive_stack_pass, sorts_to_identity
from stacksort.machine import stack_pass
from stacksort.perms import all_perms, contains, identity

SAMPLE_PATTERNS = [
    (2, 1),
    (1, 2),
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (2, 3, 1),
    (3, 1, 2),
    (3, 2, 1),
    (2, 1, 4, 3),
    (3, 4, 2, 1),
]


def brute_sortables(n, forbidden):
    return [p for p in all_perms(n) if sorts_to_identity(forbidden, p)]


def test_catalan():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_sortable_permutations_examples():
    assert set(sortable_permutations(3, (2, 3, 1))) == set(all_perms(3))
    assert set(sortable_permutations(3, (1, 2, 3))) == {
        (1, 2, 3),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    }
    assert list(sortable_permutations(1, (3, 2, 1))) == [(1,)]
    assert list(sortable_permutations(0, (2, 1))) == [()]


@pytest.mark.parametrize("forbidden", SAMPLE_PATTERNS)
def test_enumerator_matches_full_machine_filter(forbidden):
    for n in range(0, 6):
        got = list(sortable_permutations(n, forbidden))
        assert got == brute_sortables(n, forbidden)
        assert got == sorted(got)


def test_count_sortable_small_reference_values():
    assert [count_sortable(n, (2, 3, 1)) for n in range(1, 5)] == [1, 2, 6, 23]
    assert count_sortable(5, (2, 1, 3)) == 62
    assert count_sortable(6, (3, 1, 2)) == 201


def test_sorted_profile_example():
    prof = sorted_profile(3, (1, 2, 3))
    assert prof.entries == {(1, 3, 2): 1, (2, 1, 3): 2, (3, 1, 2): 1, (3, 2, 1): 1}
    assert prof.total() == 5
    assert list(prof.entries) == sorted(prof.entries)


def test_sorted_profile_matches_brute_force():
    for forbidden in SAMPLE_PATTERNS:
        for n in range(0, 6):
            brute = {}
            for p in brute_sortables(n, forbidden):
                out = naive_stack_pass(forbidden, p)
                brute[out] = brute.get(out, 0) + 1
            prof = sorted_profile(n, forbidden)
            assert prof.entries == brute


def test_profile_keys_avoid_231_and_partition_identity():
    for forbidden in SAMPLE_PATTERNS:
        for n in range(1, 6):
            prof = sorted_profile(n, forbidden)
            assert prof.total() == count_sortable(n, forbidden)
            for gamma in prof.entries:
                assert not contains(gamma, (2, 3, 1))


def test_count_sorted_reference_values():
    assert count_sorted(5, (3, 1, 2)) == 17
    assert count_sorted(4, (4, 1, 3, 2)) == 13
    assert count_sorted(6, (2, 1, 3)) == 58


def test_fertility_examples():
    assert fertility((1, 2, 3), (2, 1, 3)) == 2
    assert fertility((1, 2, 3), (3, 2, 1)) == 1
    assert fertility((2, 1), (2, 1, 3)) == 1


def _naive_pairs(n, forbidden):
    """(input, naive first-pass output) for every input, lexicographic, and
    the sortable ones among them."""
    passes = [(p, naive_stack_pass(forbidden, p)) for p in all_perms(n)]
    return passes, [pair for pair in passes if sorts_to_identity(forbidden, pair[0])]


def _check_counts(n, forbidden, passes, sortables):
    # the walks that build no tuples count the leaves that the pair walks list
    assert count_sortable(n, forbidden) == len(sortables)
    preimages = Counter(out for _, out in passes)
    for gamma in all_perms(n):
        assert fertility(forbidden, gamma) == preimages[gamma]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_machine_outputs_match_naive_pass(k):
    # the walker runs the same greedy step as the pass, one node at a time,
    # the sortable walk keeps exactly the sortable leaves, in order, and the
    # counting walks count them
    for forbidden in all_perms(k):
        for n in range(7):
            passes, sortables = _naive_pairs(n, forbidden)
            assert list(machine_outputs(n, forbidden)) == passes
            assert list(sortable_pairs(n, forbidden)) == sortables
            _check_counts(n, forbidden, passes, sortables)
        assert count_sortable(7, forbidden) == len(list(sortable_pairs(7, forbidden)))


@pytest.mark.parametrize(
    "forbidden", [(5, 4, 3, 1, 2), (1, 3, 2, 5, 4), (2, 3, 5, 4, 1)], ids=["54312", "13254", "23541"]
)
def test_walks_of_a_length_5_pattern_match_naive_pass(forbidden):
    # the walk lands each child from the masks of the depth-first search of
    # the push test, and must agree with the pass of the oracle
    for n in range(7):
        passes, sortables = _naive_pairs(n, forbidden)
        assert list(machine_outputs(n, forbidden)) == passes
        assert list(sortable_pairs(n, forbidden)) == sortables
        _check_counts(n, forbidden, passes, sortables)
    assert count_sortable(7, forbidden) == len(list(sortable_pairs(7, forbidden)))


@pytest.mark.parametrize(
    "forbidden",
    [sigma for k in (2, 3, 4) for sigma in all_perms(k)]
    + [(5, 4, 3, 1, 2), (1, 3, 2, 5, 4), (2, 3, 5, 4, 1)],
    ids=lambda sigma: "".join(map(str, sigma)),
)
def test_every_length_pairs_match_the_per_length_walks(forbidden):
    # a node whose prefix holds exactly 1..j holds that input's own machine
    # state, and the sortable walk keeps it exactly when the input is sortable
    for sortable, walk in ((False, machine_outputs), (True, sortable_pairs)):
        want = {j: list(walk(j, forbidden)) for j in range(1, 8)}
        for n in range(1, 8):
            got = {}
            for q, out in every_length_pairs(n, forbidden, sortable):
                got.setdefault(len(q), []).append((q, out))
            assert got == {j: want[j] for j in range(1, n + 1) if want[j]}


def _whole_content_depth(forbidden, v, stack):
    # pop the top while the content with v on top contains the pattern
    d = len(stack)
    while backtrack_contains((v,) + tuple(reversed(stack[:d])), forbidden):
        d -= 1
    return d


@pytest.mark.parametrize("k", [3, 4])
def test_walk_lands_every_child_at_the_whole_content_depth(k):
    # every child of every node of full walks: the landing depths read after
    # pops and across backtracking, from masks and stack indices that were
    # cut to a slice or written by an earlier sibling's subtree, and every
    # leaf's, read from its parent's mask on the grandparent's own lists
    for forbidden in all_perms(k):
        for n in range(1, 7):

            def check(v, d, stack, state):
                assert d == _whole_content_depth(forbidden, v, stack)
                return state

            def check_leaf(w, e, v, d, stack, state):
                assert e == _whole_content_depth(forbidden, w, stack[:d] + [v])
                return True

            hook = enumeration.PruneHook(check, check_leaf)
            leaves = sum(1 for _ in enumeration.prefix_walk(forbidden, n, hook, ()))
            assert leaves == math.factorial(n)


def _count_pushes(monkeypatch):
    """Count the walk's steps, one per pushed level, in the returned
    one-entry list."""
    pushes = [0]
    real = enumeration.greedy_step

    def counting(forbidden, n):
        step = real(forbidden, n)

        def counted(v, d, stack, blocked):
            pushes[0] += 1
            return step(v, d, stack, blocked)

        return counted

    monkeypatch.setattr(enumeration, "greedy_step", counting)
    return pushes


@pytest.mark.parametrize(
    "forbidden, count, bound",
    [((2, 1, 3), 6626, 25_000), ((2, 3, 1), 13934, 45_000)],
    ids=["213", "231"],
)
def test_sortable_walk_cuts_a_branch_before_its_push(monkeypatch, forbidden, count, bound):
    # A child whose committed output (out, then the stack read top down)
    # contains 231 is cut before it is pushed, and a leaf is never pushed:
    # 23 036 and 42 162 pushes.  A walk that cuts only on emitted values,
    # after the push, pushes 102 944 and 103 960 times.
    pushes = _count_pushes(monkeypatch)
    assert count_sortable(8, forbidden) == count
    assert 0 < pushes[0] <= bound


@pytest.mark.parametrize(
    "forbidden", [(2, 3, 1), (2, 1, 4, 3), (5, 4, 3, 1, 2)], ids=["231", "2143", "54312"]
)
def test_full_walk_pushes_once_per_inner_node(monkeypatch, forbidden):
    # one push per node of depth 1..6, 7 + 42 + ... + 5040, and none per
    # leaf; pushing every leaf too makes 13 699
    pushes = _count_pushes(monkeypatch)
    assert sum(1 for _ in machine_outputs(7, forbidden)) == 5040
    assert pushes[0] == sum(math.perm(7, j) for j in range(1, 7)) == 8659


def test_walk_does_not_recurse():
    # one frame per tree level would pass the default recursion limit
    assert sys.getrecursionlimit() < 1200
    p = identity(1200)
    assert next(machine_outputs(1200, (2, 1, 3))) == (p, stack_pass((2, 1, 3), p))
    assert next(sortable_pairs(1200, (2, 3, 1)))[0] == p


def test_fertility_of_231_avoiding_outputs_equals_profile_entry():
    # every preimage of a 231-avoiding output is sortable, so the two
    # fertility notions coincide on profile keys
    for forbidden in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        for n in range(1, 6):
            prof = sorted_profile(n, forbidden)
            for gamma, count in prof.entries.items():
                assert fertility(forbidden, gamma) == count


def test_fertility_validates_input():
    with pytest.raises(ValueError):
        fertility((1, 2, 3), (1, 1))


def test_enumeration_rejects_short_forbidden_pattern():
    with pytest.raises(ValueError):
        count_sortable(3, (1,))
    with pytest.raises(ValueError):
        sorted_profile(3, ())
    with pytest.raises(ValueError):
        list(sortable_permutations(3, (1,)))
    with pytest.raises(ValueError):
        fertility((1,), (2, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_sortable(4, (2, 2, 1)),
        lambda: sorted_profile(3, (1, 5)),
        lambda: fertility((0, 9), (2, 1, 3)),
        lambda: machine_outputs(3, (1, 1)),
        lambda: sortable_permutations(-1, (2, 3, 1)),
        lambda: count_sortable(-1, (2, 3, 1)),
        lambda: sorted_profile(-1, (2, 3, 1)),
        lambda: machine_outputs(-1, (2, 3, 1)),
    ],
    ids=[
        "count_sortable-repeat",
        "sorted_profile-gap",
        "fertility-range",
        "machine_outputs-repeat",
        "sortable_permutations-negative-n",
        "count_sortable-negative-n",
        "sorted_profile-negative-n",
        "machine_outputs-negative-n",
    ],
)
def test_enumeration_rejects_bad_pattern_or_length(call):
    # raised at the call, before any permutation is produced
    with pytest.raises(ValueError):
        call()


def test_count_sortable_123_formula_values():
    assert count_sortable_123_formula(1) == 1
    assert count_sortable_123_formula(3) == 5
    assert count_sortable_123_formula(5) == 35
    with pytest.raises(ValueError):
        count_sortable_123_formula(0)


@pytest.mark.parametrize("n", range(1, 10))
def test_count_sortable_123_formula_matches_enumeration(n):
    assert count_sortable(n, (1, 2, 3)) == count_sortable_123_formula(n)


# Closed forms for the sortables of three machines: the 132-machine's is the
# binomial transform of the Catalan numbers (OEIS A007317; Cerbai, Claesson,
# Ferrari and Steingrimsson, "Sorting with pattern-avoiding stacks: the
# 132-machine"), and the 321-machine sorts 2^(n - 1) inputs.
CLOSED_FORMS = {
    (1, 3, 2): lambda n: sum(math.comb(n - 1, k) * catalan(k) for k in range(n)),
    (3, 2, 1): lambda n: 2 ** (n - 1),
    (1, 2, 3): count_sortable_123_formula,
}


@pytest.mark.parametrize("forbidden", [(1, 3, 2), (3, 2, 1)], ids=["132", "321"])
def test_count_sortable_closed_forms(forbidden):
    formula = CLOSED_FORMS[forbidden]
    assert [count_sortable(n, forbidden) for n in range(1, 10)] == [
        formula(n) for n in range(1, 10)
    ]


@pytest.mark.slow
@pytest.mark.parametrize("forbidden", list(CLOSED_FORMS), ids=["132", "321", "123"])
def test_count_sortable_closed_forms_at_11(forbidden):
    # about 5 s for 132, 1.3 s for 123 and 0.3 s for 321 on a 2-vCPU VM
    assert count_sortable(11, forbidden) == CLOSED_FORMS[forbidden](11)


def test_gamma_decomposition_examples():
    assert gamma_decomposition_123((3, 2, 1)) == (2, 1, 0)
    assert gamma_decomposition_123((1, 3, 2)) == (0, 1, 2)
    assert gamma_decomposition_123((1, 2, 3)) is None
    assert gamma_decomposition_123((2, 1, 3)) == (0, 2, 1)
    assert gamma_decomposition_123((1,)) == (0, 1, 0)
    with pytest.raises(ValueError):
        gamma_decomposition_123(())


def decomposition_word(i, j, k):
    n = i + j + k
    top = tuple(range(n, n - i, -1))
    low = tuple(range(j, 0, -1))
    mid = tuple(range(j + k, j, -1))
    return top + low + mid


@given(st.integers(0, 4), st.integers(1, 4), st.integers(0, 4))
def test_gamma_decomposition_round_trip(i, j, k):
    word = decomposition_word(i, j, k)
    split = gamma_decomposition_123(word)
    assert split is not None
    assert decomposition_word(*split) == word
    # ties between splits realizing the same word go to the largest i
    n = i + j + k
    realizations = [
        (i2, j2, n - i2 - j2)
        for i2 in range(n)
        for j2 in range(1, n - i2 + 1)
        if decomposition_word(i2, j2, n - i2 - j2) == word
    ]
    assert split == max(realizations)


def test_gamma_decomposition_exactly_on_avoider_set():
    for n in range(1, 7):
        for gamma in all_perms(n):
            decomposable = gamma_decomposition_123(gamma) is not None
            in_set = not contains(gamma, (1, 2, 3)) and not contains(gamma, (2, 3, 1))
            assert decomposable == in_set


def test_every_123_profile_key_decomposes():
    for n in range(1, 7):
        for gamma in sorted_profile(n, (1, 2, 3)).entries:
            assert gamma_decomposition_123(gamma) is not None
