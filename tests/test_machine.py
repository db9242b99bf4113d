import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    avoider_132,
    backtrack_contains,
    naive_stack_pass,
    naive_stack_pass_traced,
    sorts_to_identity,
    standardize,
)
from stacksort.machine import (
    TraceEvent,
    greedy_step,
    is_sortable,
    machine_output,
    stack_pass,
    stack_pass_traced,
    trace_json,
)
from stacksort.perms import all_perms, contains, identity, match, reverse, swap_first_two

# A fixed sample of the patterns of length 5.
LENGTH_5_SAMPLE = [
    (1, 2, 3, 4, 5),
    (5, 4, 3, 2, 1),
    (2, 4, 1, 5, 3),
    (3, 1, 5, 2, 4),
    (1, 3, 2, 5, 4),
    (4, 5, 1, 2, 3),
]


def _push_blocked(v, stack, forbidden):
    # Would pushing v (on top of stack, listed bottom to top) complete an
    # occurrence of the forbidden pattern in the content read top to bottom?
    # A pinned perms.match search: the occurrence starts at v.
    if len(stack) < len(forbidden) - 1:
        return False
    return next(match([v, *reversed(stack)], forbidden, frozenset({0})), None) is not None


def test_figure_trace_schedule():
    out, trace = stack_pass_traced((2, 3, 1), (2, 4, 1, 3))
    assert out == (1, 4, 3, 2)
    assert [(ev.op, ev.value) for ev in trace] == [
        ("push", 2),
        ("push", 4),
        ("push", 1),
        ("pop", 1),
        ("pop", 4),
        ("push", 3),
        ("pop", 3),
        ("pop", 2),
    ]


def test_single_element_trace():
    out, trace = stack_pass_traced((2, 1), (1,))
    assert out == (1,)
    assert [(ev.op, ev.value) for ev in trace] == [("push", 1), ("pop", 1)]


def test_stack_pass_examples():
    assert stack_pass((2, 3, 1), (2, 4, 1, 3)) == (1, 4, 3, 2)
    assert stack_pass((1, 2, 3), (3, 2, 1)) == (2, 1, 3)
    # frozen from the simulation oracle; the output must contain the swapped
    # pattern 231 here, which pins it down among 3-letter candidates
    assert stack_pass((3, 2, 1), (1, 2, 3)) == (2, 3, 1)
    # _blocked_by keeps only the candidates above a tried one just for some
    # patterns: made always, it would give (1, 5, 6, 4, 2, 3) here
    assert stack_pass((1, 4, 5, 2, 3), (3, 2, 4, 6, 5, 1)) == (5, 1, 6, 4, 2, 3)


def test_forbidden_pattern_too_short():
    with pytest.raises(ValueError):
        stack_pass((1,), (2, 1, 3))
    with pytest.raises(ValueError):
        is_sortable((), (1,))
    with pytest.raises(ValueError):
        machine_output((1,), (1,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: machine_output((1, 1), (2, 1, 3)),
        lambda: stack_pass((2, 2, 1), (2, 1, 3)),
        lambda: stack_pass_traced((1, 5), (2, 1)),
        lambda: is_sortable((0, 9), (2, 1, 3)),
    ],
    ids=["machine_output-repeat", "stack_pass-repeat", "traced-gap", "is_sortable-range"],
)
def test_forbidden_pattern_must_be_a_permutation(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: stack_pass((2, 3, 1), (0, 5, 9)),
        lambda: stack_pass_traced((2, 3, 1), (1, 1, 2)),
        lambda: machine_output((2, 1), (2, 4)),
        lambda: is_sortable((1, 3, 2), (3, 1, 2, 2)),
    ],
    ids=["stack_pass-range", "traced-repeat", "machine_output-gap", "is_sortable-repeat"],
)
def test_input_must_be_a_permutation(call):
    with pytest.raises(ValueError):
        call()


def test_stack_pass_matches_naive_oracle():
    for k in range(2, 5):
        for forbidden in all_perms(k):
            for n in range(0, 6):
                for p in all_perms(n):
                    assert stack_pass(forbidden, p) == naive_stack_pass(forbidden, p)


def test_reversal_when_reverse_pattern_avoided():
    for k in range(2, 5):
        for forbidden in all_perms(k):
            rev = reverse(forbidden)
            for n in range(0, 7):
                for p in all_perms(n):
                    if not contains(p, rev):
                        assert stack_pass(forbidden, p) == reverse(p)


def test_swapped_pattern_appears_otherwise():
    for k in (3, 4):
        for forbidden in all_perms(k):
            swapped = swap_first_two(forbidden)
            rev = reverse(forbidden)
            for n in range(k, 7):
                for p in all_perms(n):
                    if contains(p, rev):
                        assert contains(stack_pass(forbidden, p), swapped)


def test_machine_output_examples():
    assert machine_output((2, 3, 1), (2, 4, 1, 3)) == (1, 2, 3, 4)
    assert machine_output((1, 2, 3), (1, 3, 2)) == (2, 1, 3)
    assert machine_output((3, 2, 1), (1,)) == (1,)


def test_sortability_definitions_agree():
    for k in (2, 3):
        for forbidden in all_perms(k):
            for n in range(0, 7):
                for p in all_perms(n):
                    assert is_sortable(forbidden, p) == sorts_to_identity(forbidden, p)
    for forbidden in ((2, 1, 4, 3), (3, 4, 1, 2)):
        for n in range(0, 6):
            for p in all_perms(n):
                assert is_sortable(forbidden, p) == sorts_to_identity(forbidden, p)


def test_sortable_examples():
    assert is_sortable((2, 3, 1), (2, 4, 1, 3))
    assert not is_sortable((1, 2, 3), (1, 3, 2))
    # anything avoiding both 132 and the reversed pattern is sortable
    for forbidden in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        rev = reverse(forbidden)
        for n in range(0, 7):
            for p in all_perms(n):
                if not contains(p, (1, 3, 2)) and not contains(p, rev):
                    assert is_sortable(forbidden, p)


def test_pop_trigger_correctness():
    # Replaying a trace: every pop happens exactly because pushing the next
    # input element would complete a forbidden occurrence, and every push
    # happens exactly because it would not.
    for forbidden in [p for k in (2, 3, 4) for p in all_perms(k)] + LENGTH_5_SAMPLE:
        for n in range(0, 7):
            for p in all_perms(n):
                _, trace = stack_pass_traced(forbidden, p)
                stack = []
                pending = list(p)
                for ev in trace:
                    if ev.op == "push":
                        assert pending and pending[0] == ev.value
                        assert not (stack and _push_blocked(ev.value, stack, forbidden))
                        stack.append(pending.pop(0))
                    else:
                        assert stack and stack[-1] == ev.value
                        if pending:
                            assert _push_blocked(pending[0], stack, forbidden)
                        stack.pop()
                assert not pending and not stack


@given(
    st.sampled_from([(2, 1), (1, 2), (2, 3, 1), (1, 2, 3), (3, 1, 2), (2, 1, 4, 3)]),
    st.integers(0, 7).flatmap(lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)),
)
@settings(max_examples=150, deadline=None)
def test_trace_invariants(forbidden, p):
    out, trace = stack_pass_traced(forbidden, p)
    assert len(trace) == 2 * len(p)
    pushes = [ev.value for ev in trace if ev.op == "push"]
    pops = [ev.value for ev in trace if ev.op == "pop"]
    assert pushes == list(p)
    assert tuple(pops) == out
    assert sorted(out) == list(range(1, len(p) + 1))
    assert (out, [(ev.op, ev.value) for ev in trace]) == naive_stack_pass_traced(forbidden, p)


def test_pinned_oracle_search_agrees_with_whole_content_search():
    # every push of a pass over an input of length <= 7: v onto any legal
    # content of length <= 6, values standardized.  The whole-content answer
    # is each host's set of contained patterns of length 2-4, found once by
    # brute force over its subsequences.
    contained = {
        p: {standardize(sub) for k in (2, 3, 4) for sub in itertools.combinations(p, k)}
        for n in range(8)
        for p in all_perms(n)
    }
    for forbidden in [p for k in (2, 3, 4) for p in all_perms(k)]:
        for n in range(7):
            for content in all_perms(n):
                if forbidden in contained[content]:
                    continue
                for v in range(1, n + 2):
                    host = (v,) + tuple(x + (x >= v) for x in content)
                    pinned = backtrack_contains(host, forbidden, pinned=True)
                    assert pinned == (forbidden in contained[host])


@given(
    st.sampled_from(
        [(2, 1), (1, 2), (2, 3, 1), (3, 1, 2), (1, 2, 3), (2, 1, 4, 3), (3, 4, 1, 2)]
    ),
    st.integers(1, 8).flatmap(lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)),
)
@settings(max_examples=200, deadline=None)
def test_push_blocked_matches_whole_content_check(forbidden, values):
    # On content that already avoids the pattern (the only states the
    # simulator produces), the anchored test agrees with re-checking the
    # whole would-be content.
    v, stack = values[0], list(values[1:])
    if backtrack_contains(tuple(reversed(stack)), forbidden):
        return
    assert _push_blocked(v, stack, forbidden) == backtrack_contains(
        (v,) + tuple(reversed(stack)), forbidden
    )


def _check_blocked_masks(forbidden, values, pinned=False):
    # Legal content: each value that keeps the stack legal, in order.  At
    # every level d, bit v of the mask is set exactly when pushing v onto
    # the bottom d entries would make the content contain the pattern.  The
    # content below v is legal, so the search may be pinned to start at v:
    # it answers the same, much faster on deep stacks.
    stack = []
    for c in values:
        if not backtrack_contains((c,) + tuple(reversed(stack)), forbidden, pinned):
            stack.append(c)
    step = greedy_step(forbidden, len(values))
    built, blocked = [], [0]
    for c in stack:
        assert not blocked[-1] >> c & 1  # c lands on top of built
        blocked.append(step(c, len(built), built, blocked))
        built.append(c)
    assert built == stack and len(blocked) == len(stack) + 1
    for d, mask in enumerate(blocked):
        below = tuple(reversed(stack[:d]))
        for v in set(values) - set(stack[:d]):
            assert (mask >> v & 1) == backtrack_contains((v,) + below, forbidden, pinned)


@given(
    st.sampled_from([p for k in (2, 3, 4) for p in all_perms(k)]),
    st.integers(1, 14).flatmap(lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)),
)
@settings(max_examples=300, deadline=None)
def test_blocked_masks_match_whole_content_check(forbidden, values):
    _check_blocked_masks(forbidden, values)
    if len(forbidden) == 4:  # a stack that only grows, where the e3 prune skips most
        _check_blocked_masks(forbidden, identity(len(values))[::-1])


@given(
    st.integers(5, 6).flatmap(lambda k: st.permutations(tuple(range(1, k + 1))).map(tuple)),
    st.integers(1, 14).flatmap(lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)),
)
@settings(max_examples=300, deadline=None)
def test_blocked_masks_of_long_patterns_match_whole_content_check(forbidden, values):
    # the check of the depth-first search over the middle entries
    _check_blocked_masks(forbidden, values)


# The length-4 patterns whose e3 is next in rank to neither end of its
# window: the k = 4 loop drops the values below each candidate it tries for
# these too, by the argument in perms.greedy_step.
FAR_E3 = [(1, 4, 2, 3), (2, 1, 3, 4), (3, 4, 2, 1), (4, 1, 3, 2)]


@pytest.mark.parametrize("forbidden", FAR_E3, ids=lambda p: "".join(map(str, p)))
def test_far_e3_push_masks_on_every_input_up_to_6(forbidden):
    for n in range(1, 7):
        for values in all_perms(n):
            _check_blocked_masks(forbidden, values)


@pytest.mark.slow
@pytest.mark.parametrize("forbidden", FAR_E3, ids=lambda p: "".join(map(str, p)))
def test_far_e3_push_masks_on_every_input_of_7(forbidden):
    for values in all_perms(7):
        _check_blocked_masks(forbidden, values)


@pytest.mark.slow
@pytest.mark.parametrize("forbidden", list(all_perms(3)), ids=lambda p: "".join(map(str, p)))
def test_length_3_push_masks_on_deep_stacks(forbidden):
    # the one-call push of a pattern of length 3 at every level of stacks
    # up to 100 deep: every pattern keeps one of these inputs whole
    rng = random.Random(3)
    avoider = avoider_132([rng.randrange(100) for _ in range(100)])
    for values in (identity(100), identity(100)[::-1], avoider):
        _check_blocked_masks(forbidden, values, pinned=True)


@pytest.mark.slow
@pytest.mark.parametrize("forbidden", list(all_perms(4)), ids=lambda p: "".join(map(str, p)))
def test_length_4_push_masks_on_deep_stacks(forbidden):
    # the one-call push of a pattern of length 4 at every level of stacks
    # up to 42 deep (the pinned search grows as depth^4 here): identity
    # keeps every pattern but 4321 whole, its reverse every one but 1234
    rng = random.Random(4)
    avoider = avoider_132([rng.randrange(42) for _ in range(42)])
    for values in (identity(42), identity(42)[::-1], avoider):
        _check_blocked_masks(forbidden, values, pinned=True)


def test_long_pattern_pass_does_not_recurse_per_entry():
    # a pattern longer than the recursion limit, on a stack that fills up
    k = sys.getrecursionlimit() + 200
    out = stack_pass(identity(k), tuple(range(k, 0, -1)))
    # the last push would complete the pattern itself: 2 leaves first
    assert out == (2, 1) + tuple(range(3, k + 1))


def test_trace_serialization_round_trip():
    _, trace = stack_pass_traced((2, 3, 1), (2, 4, 1, 3))
    as_json = trace_json(trace)
    assert as_json[0] == {"op": "push", "value": 2}
    assert tuple(TraceEvent(d["op"], d["value"]) for d in as_json) == trace


LONG_INPUTS = st.one_of(
    st.integers(0, 60).flatmap(lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)),
    st.lists(st.integers(0, 59), max_size=60).map(avoider_132),
)


def test_avoider_132_builder():
    for n in range(6):
        built = set()
        for code in range(n**n if n else 1):
            splits = [(code // n**i) % n for i in range(n)] if n else []
            built.add(avoider_132(splits))
        assert built == {p for p in all_perms(n) if not contains(p, (1, 3, 2))}


@pytest.mark.parametrize(
    "forbidden",
    [(1, 2), (2, 1)] + list(all_perms(3)) + list(all_perms(4)) + LENGTH_5_SAMPLE,
    ids=lambda p: "".join(map(str, p)),
)
@given(p=LONG_INPUTS)
@settings(max_examples=40, deadline=None)
def test_pass_matches_oracle_on_long_inputs(forbidden, p):
    out, events = naive_stack_pass_traced(forbidden, p)
    assert stack_pass(forbidden, p) == out
    traced_out, trace = stack_pass_traced(forbidden, p)
    assert traced_out == out
    assert [(ev.op, ev.value) for ev in trace] == events
    # the second pass, and sorts_to_identity, reusing the oracle's first pass
    second = naive_stack_pass((2, 1), out)
    assert machine_output(forbidden, p) == second
    assert is_sortable(forbidden, p) == (second == identity(len(p)))


def test_long_trace_matches_oracle():
    # 1200 values: the events come from the shared table of size 2048, and
    # are TraceEvents like those of a short trace
    p = identity(1200)[::-1]
    out, trace = stack_pass_traced((2, 1), p)
    assert (out, [(ev.op, ev.value) for ev in trace]) == naive_stack_pass_traced((2, 1), p)
    assert all(type(ev) is TraceEvent for ev in trace)


def _match_pass(forbidden, p):
    # the pass with a pinned perms.match search as the push test
    stack, out = [], []
    for v in p:
        while stack and _push_blocked(v, stack, forbidden):
            out.append(stack.pop())
        stack.append(v)
    return tuple(out + stack[::-1])


@pytest.mark.parametrize("forbidden", list(all_perms(4)), ids=lambda p: "".join(map(str, p)))
def test_deep_stack_pass_of_length_4_patterns_matches_match_based_pass(forbidden):
    # the candidate orders of the push test's scan (from either end with
    # the dominance cut, or stopping at the first hit) on stacks 80-120
    # deep, and its prune to the entries that can be e3 on the monotone
    # stacks where it skips most, some with 5 random transpositions
    rng = random.Random(80)
    inputs = [tuple(rng.sample(range(1, 81), 80))]
    inputs.append(avoider_132([rng.randrange(80) for _ in range(80)]))
    inputs += [identity(120), identity(120)[::-1]]
    for p in (identity(120), identity(120)[::-1]):
        p = list(p)
        for _ in range(5):
            i, j = rng.sample(range(120), 2)
            p[i], p[j] = p[j], p[i]
        inputs.append(tuple(p))
    for p in inputs:
        assert stack_pass(forbidden, p) == _match_pass(forbidden, p)


@pytest.mark.slow
@pytest.mark.parametrize(
    "forbidden", list(all_perms(4)) + LENGTH_5_SAMPLE, ids=lambda p: "".join(map(str, p))
)
def test_deep_stack_pass_matches_match_based_pass(forbidden):
    # the reference finishes each of these inputs in well under a second
    rng = random.Random(4)
    inputs = [avoider_132([rng.randrange(n) for _ in range(n)]) for n in (100, 125, 150)]
    inputs += [tuple(rng.sample(range(1, n + 1), n)) for n in (100, 125, 150)]
    for p in inputs + [identity(200)]:
        assert stack_pass(forbidden, p) == _match_pass(forbidden, p)


@pytest.mark.slow
def test_every_length_5_pattern_on_monotone_stacks():
    # the search's prunes fire most on stacks that only grow or only shrink
    rng = random.Random(8)
    inputs = [identity(24), identity(24)[::-1]]
    inputs.append(avoider_132([rng.randrange(24) for _ in range(24)]))
    for forbidden in all_perms(5):
        for p in inputs:
            assert stack_pass(forbidden, p) == naive_stack_pass(forbidden, p)


def test_trace_is_fast():
    stack_pass_traced((2, 3, 1), (2, 4, 1, 3))  # warm up
    best = min(
        _timed(lambda: stack_pass_traced((2, 3, 1), (2, 4, 1, 3))) for _ in range(5)
    )
    assert best < 0.001


def test_length_4_passes_on_monotone_stacks_are_fast():
    # A push tries only the entries that can be e3, so on the monotone
    # stacks of identity and its reverse each pass takes a few ms; a loop
    # over every entry below would make it quadratic, about 1 s here.
    for p in (identity(2000), identity(2000)[::-1]):
        for forbidden in all_perms(4):
            assert _timed(lambda: stack_pass(forbidden, p)) < 0.1
    out = []
    assert _timed(lambda: out.append(machine_output((2, 4, 1, 3), identity(2000)))) < 0.1
    assert out == [identity(2000)]


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
