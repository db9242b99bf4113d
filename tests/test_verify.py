import random
from collections import Counter

import pytest

from oracles import brute_avoiders, brute_contains
from stacksort import verify
from stacksort.classify import is_effective, sort_is_class
from stacksort.enumeration import machine_outputs, sortable_pairs, sorted_profile
from stacksort.machine import is_sortable, stack_pass
from stacksort.perms import all_perms, contains, reverse, swap_first_two
from stacksort.verify import (
    CheckResult,
    _contains,
    _machine,
    _masks,
    _witness_status,
    avoider_set,
    verify_conjectures,
    verify_tables,
    verify_theorems,
    west_two_stack_count,
    witness_n,
)


def test_west_two_stack_closed_form():
    assert [west_two_stack_count(n) for n in range(1, 9)] == [
        1,
        2,
        6,
        22,
        91,
        408,
        1938,
        9614,
    ]


def test_theorem_suite_small_run_all_pass():
    results = verify_theorems(3, 6)
    assert results
    assert all(r.status != "FAIL" for r in results)
    ids = {r.check_id for r in results}
    assert {"THM 2.2", "THM 3.3", "THM 3.4", "COR 3.2", "COR 4.5",
            "PROP 4.1", "LEM 2.1-rev", "LEM 2.1-swap", "LEM 3.1",
            "EX 123-machine", "OQ 123-fertility-law", "AMB two-letter"} <= ids


def test_theorem_suite_reports_fertility_law_finding():
    results = verify_theorems(3, 5)
    law = [r for r in results if r.check_id == "OQ 123-fertility-law"]
    assert law
    assert all(r.status == "FINDING" for r in law)
    assert all("holds" in r.detail for r in law)


@pytest.mark.parametrize("max_n, status", [(1, "INFO"), (2, "INFO"), (3, "PASS"), (6, "PASS")])
def test_two_letter_resolution_detail(max_n, status):
    # Catalan and A000139 agree up to n = 2, so there both patterns match both.
    results = verify_theorems(3, max_n)
    amb = [r for r in results if r.check_id == "AMB two-letter"]
    assert len(amb) == 1
    assert amb[0].status == status
    assert "west-two-stack" in amb[0].detail
    assert "catalan" in amb[0].detail


def test_table_suite_small_run():
    results = verify_tables(4, 6)
    assert all(r.status != "FAIL" for r in results)
    infos = [r for r in results if r.status == "INFO"]
    assert len(infos) == 1  # the row with no published values
    assert "2 1" == infos[0].subject


@pytest.mark.parametrize("suite", [verify_theorems, verify_tables, verify.verify_all])
@pytest.mark.parametrize("max_len", [1, 0, -5])
def test_pattern_length_below_2_is_rejected(suite, max_len):
    # such a run would leave out every pattern check and still pass
    with pytest.raises(ValueError, match="max pattern length must be >= 2"):
        suite(max_len, 3)


def test_conjecture_suite_small_run():
    results = verify_conjectures(5)
    assert all(r.status != "FAIL" for r in results)
    assert any(r.check_id == "CONJ fishburn-def" for r in results)
    findings = [r for r in results if r.status == "FINDING"]
    assert findings
    assert all("agree" in r.detail for r in findings if r.check_id == "CONJ equidistribution")


def test_report_line_format():
    result = CheckResult("THM 2.2", "3 2 1", 6, "PASS", "why")
    assert result.line() == "THM 2.2 | 3 2 1 | 6 | PASS (why)"
    bare = CheckResult("LEM 3.1", "-", 4, "FAIL")
    assert bare.line() == "LEM 3.1 | - | 4 | FAIL"


def test_theorem_suite_below_witness_length_has_no_fail():
    # the witnesses for 4123 and 4132 first appear at n = 7, so a run to
    # n = 6 reports them as not yet found instead of failing
    results = verify_theorems(4, 6)
    assert all(r.status != "FAIL" for r in results)
    info = {(r.check_id, r.subject) for r in results if r.status == "INFO"}
    assert {("COR 4.5", "4 1 2 3"), ("COR 4.5", "4 1 3 2")} <= info


def test_witness_status_rule():
    assert [witness_n(k) for k in (2, 3, 4, 5, 6)] == [7, 7, 7, 9, 11]
    assert _witness_status(True, True, 3, 3) == "PASS"
    assert _witness_status(False, False, 3, 3) == "PASS"
    assert _witness_status(False, True, witness_n(4) - 1, 4) == "INFO"
    assert _witness_status(False, True, witness_n(4), 4) == "FAIL"
    # a witness against the prediction fails at every n
    assert _witness_status(True, False, 1, 4) == "FAIL"
    # length 5: a missing witness is INFO up to n = 8 and fails from n = 9
    assert _witness_status(False, True, 7, 5) == "INFO"
    assert _witness_status(False, True, 8, 5) == "INFO"
    assert _witness_status(False, True, 9, 5) == "FAIL"
    assert _witness_status(False, True, 10, 5) == "FAIL"
    assert _witness_status(True, False, 1, 5) == "FAIL"
    assert _witness_status(True, True, 9, 5) == "PASS"


def _sorted_output_witnesses(n, pattern):
    # COR 4.5's search: the sorted outputs that contain the pattern
    return [g for g in sorted_profile(n, pattern).entries if contains(g, pattern)]


@pytest.mark.parametrize(
    "pattern, first_n",
    [((4, 1, 2, 3, 5), 8), ((5, 1, 2, 3, 4), 9), ((5, 1, 4, 3, 2), 9)],
    ids=["41235", "51234", "51432"],
)
def test_length_5_witnesses_appear_only_past_n_7(pattern, first_n):
    # why witness_n(5) is 9: these non-effective patterns have no sorted
    # output containing them below first_n, so a bound of 7 failed them
    assert _sorted_output_witnesses(first_n - 1, pattern) == []
    assert _sorted_output_witnesses(first_n, pattern)
    assert first_n <= witness_n(5)


def test_first_witness_of_41235():
    gamma = (4, 1, 2, 3, 7, 5, 6, 8)
    assert _sorted_output_witnesses(8, (4, 1, 2, 3, 5))[0] == gamma
    p = (8, 6, 5, 1, 4, 7, 3, 2)
    assert is_sortable((4, 1, 2, 3, 5), p)
    assert stack_pass((4, 1, 2, 3, 5), p) == gamma


def _one_length(n, sigma):
    # the table's entry of length n from the walks of that length alone: the
    # sortable walk for the inputs and their outputs, the full walk for the
    # lemma
    lemma = None
    if len(sigma) >= 3 and n <= verify.LEMMA_N:
        found = {}
        for p, out in machine_outputs(n, sigma):
            if _contains(p, reverse(sigma)):
                if not _contains(out, swap_first_two(sigma)):
                    found.setdefault("swap", p)
            elif out != reverse(p):
                found.setdefault("rev", p)
        lemma = tuple(found.items())
    pairs = list(sortable_pairs(n, sigma))
    profile = sorted(Counter(out for _, out in pairs).items())
    return tuple(p for p, _ in pairs), profile, lemma


def _listed(entry):
    # a table entry with its profile as a list of (output, count), so that
    # comparing it checks the order of the outputs too
    inputs, profile, lemma = entry
    return inputs, list(profile.items()), lemma


def test_sortables_table_matches_both_enumerators():
    # one walk per machine for every length, against one walk per length
    for m in (2, 3, 4):
        for sigma in all_perms(m):
            tables = _machine(sigma, 7)
            assert len(tables) == 8
            for n in range(8):
                assert _listed(tables[n]) == _one_length(n, sigma), (sigma, n)
    # past LEMMA_N the lengths come from the sortable walk, with no lemma
    for sigma in ((2, 1), (3, 1, 2)):
        tables = _machine(sigma, 8)
        assert list(map(_listed, tables[:8])) == list(map(_listed, _machine(sigma, 7)))
        assert _listed(tables[8]) == _one_length(8, sigma)
        assert tables[8][2] is None


def test_profiles_are_read_only():
    profile = _machine((2, 3, 1), 4)[3][1]
    with pytest.raises(TypeError):
        profile[(1, 2, 3)] = 0


def test_each_machine_is_walked_once_per_run(monkeypatch):
    # one walk per machine and length would be 224 walks for verify_all(4, 7):
    # n = 1..7 for each of the 32 patterns of length 2-4
    walks = []

    def counting(n, forbidden, sortable=False):
        walks.append((forbidden, n, sortable))
        return real(n, forbidden, sortable)

    real = verify.every_length_pairs
    monkeypatch.setattr(verify, "every_length_pairs", counting)
    try:
        verify_theorems(4, 7)
        verify_tables(4, 7)
    finally:
        _machine.cache_clear()
    patterns = [sigma for m in (2, 3, 4) for sigma in all_perms(m)]
    assert sorted(walks) == sorted((sigma, 7, len(sigma) == 2) for sigma in patterns)
    assert len(walks) == 32


def test_theorem_suite_holds_one_runs_tables():
    caches = (_machine, avoider_set, _masks, verify._perms)

    def held():  # the interning dicts' sizes read after the cache sizes
        sizes = [cache.cache_info().currsize for cache in caches]
        return sizes + [len(verify._perms(n)) for n in range(5)]

    for cache in caches:
        cache.cache_clear()
    verify_theorems(3, 4)
    lone = held()
    verify_theorems(4, 6)
    verify_theorems(3, 4)
    assert held() == lone


def test_a_run_holds_one_tuple_per_permutation():
    # Counted, not timed: every permutation that the walks, the avoider
    # sets and the mask table hold is one object per value.
    verify_theorems(4, 8)
    verify_tables(4, 8)
    caches = (_machine, avoider_set, _masks)
    sizes = [cache.cache_info().currsize for cache in caches]
    held = {n: list(_masks(n)) for n in range(9)}
    for sigma in (s for m in (2, 3, 4) for s in all_perms(m)):
        for n, (inputs, profile, lemma) in enumerate(_machine(sigma, 8)):
            held[n] += inputs
            held[n] += profile
            held[n] += (p for _, p in lemma or ())
    for basis in CLASS_BASES:
        for n in range(1, 9):
            held[n] += avoider_set(n, basis)
    # the run had built every table read above
    assert [cache.cache_info().currsize for cache in caches] == sizes
    for n, perms in held.items():
        assert len(perms) > len(set(perms)), n
        assert len({id(p) for p in perms}) == len(set(perms)), n


def test_containment_table_matches_brute_force():
    taus = [tau for k in range(5) for tau in all_perms(k)]
    hosts = [p for n in range(7) for p in all_perms(n)]
    rng = random.Random(8)
    hosts += [tuple(rng.sample(range(1, 8), 7)) for _ in range(300)]
    hosts += [tuple(rng.sample(range(1, 9), 8)) for _ in range(300)]
    for p in hosts:
        for tau in taus:
            assert _contains(p, tau) == brute_contains(p, tau), (p, tau)


# Every basis that THM 2.2, PROP 4.1 and AMB two-letter ask for with
# patterns of length up to 4, and two with a pattern past the table's
# length, which the AND cannot hold.
CLASS_BASES = sorted(
    {tuple(sort_is_class(p)[1]) for m in (3, 4) for p in all_perms(m) if sort_is_class(p)[0]}
    | {((2, 3, 1), p) for m in (2, 3, 4) for p in all_perms(m) if is_effective(p)}
    | {((2, 1, 3),)}
)
MIXED_BASES = [((1, 3, 2), (5, 4, 3, 2, 1)), ((2, 3, 1), (2, 1, 3, 5, 4))]


def _check_avoider_set(n, basis):
    # computed afresh from the current table, whose keys the tuples must be
    table = {p: p for p in _masks(n)}
    got = avoider_set.__wrapped__(n, basis)
    assert got == tuple(brute_avoiders(n, basis)), (n, basis)
    assert all(table[p] is p for p in got)


def test_avoider_set_matches_brute_force():
    assert len(CLASS_BASES) == 31
    for basis in CLASS_BASES:
        for n in range(7):
            _check_avoider_set(n, basis)
    rng = random.Random(18)
    for basis in rng.sample(CLASS_BASES, 3):
        _check_avoider_set(7, basis)
    _check_avoider_set(8, rng.choice(CLASS_BASES))


@pytest.mark.parametrize(
    "basis", MIXED_BASES, ids=lambda b: "-".join("".join(map(str, p)) for p in b)
)
def test_avoider_set_asks_contains_past_the_table_length(basis, monkeypatch):
    asked = []

    def spy(p, tau):
        asked.append(tau)
        return contains(p, tau)

    monkeypatch.setattr(verify, "contains", spy)
    for n in range(8):
        _check_avoider_set(n, basis)
    # only the long pattern is asked, and only of the AND's survivors
    assert set(asked) == {basis[1]}
    assert len(asked) == sum(len(list(brute_avoiders(n, basis[:1]))) for n in range(8))


def test_containment_past_the_table_asks_contains(monkeypatch):
    asked = []

    def spy(p, tau):
        asked.append((p, tau))
        return contains(p, tau)

    monkeypatch.setattr(verify, "contains", spy)
    past = [
        ((3, 1, 4, 2, 5, 7, 6), (2, 1, 3, 5, 4)),
        ((3, 1, 4, 2, 5, 7, 6), (5, 4, 3, 2, 1)),
        ((2, 4, 1, 3, 9, 5, 7, 6, 8), (3, 1, 4, 2)),
        ((2, 4, 1, 3, 9, 5, 7, 6, 8), (4, 3, 2, 1)),
    ]
    for p, tau in past:
        assert _contains(p, tau) == brute_contains(p, tau)
    assert asked == past
    assert _contains((2, 4, 1, 3), (2, 3, 1))
    assert asked == past


def test_pass_reversal_lemma_reads_the_walk(monkeypatch):
    # 1234 avoids the reversed pattern 321 but does not come out reversed,
    # and the output given to 4321 avoids the swapped pattern 213
    real = verify.every_length_pairs
    wrong = {(1, 2, 3, 4): (1, 2, 3, 4), (4, 3, 2, 1): (1, 2, 3, 4)}

    def walk(n, forbidden, sortable=False):
        for p, out in real(n, forbidden, sortable):
            yield p, wrong.get(p, out) if forbidden == (1, 2, 3) else out

    monkeypatch.setattr(verify, "every_length_pairs", walk)
    try:
        lines = {r.line() for r in verify_theorems(3, 4)}
    finally:
        _machine.cache_clear()
    assert "LEM 2.1-rev | 1 2 3 | 4 | FAIL (counterexample 1 2 3 4)" in lines
    assert "LEM 2.1-swap | 1 2 3 | 4 | FAIL (counterexample 4 3 2 1)" in lines


def test_anchored_132_census_is_the_brute_side_of_the_formula(monkeypatch):
    real = verify.count_anchored_132_avoiders
    monkeypatch.setattr(verify, "count_anchored_132_avoiders", lambda n: real(n) + 1)
    thm = [r for r in verify_theorems(3, 4) if r.check_id == "THM 3.3"]
    assert [(r.n, r.status) for r in thm] == [(n, "FAIL") for n in range(1, 5)]
    assert [r.detail for r in thm] == [
        f"formula {brute + 1} vs brute {brute}" for brute in (1, 2, 5, 17)
    ]


def test_anchored_132_census_caps_the_lemmas_at_8():
    # THM 3.3 runs to max_n; COR 3.2 and LEM 3.1 stop at n = 8, where the
    # goldens stop too.
    out = []
    verify._check_anchored_132_avoiders(9, out)
    assert all(r.status == "PASS" for r in out)
    ns = {}
    for r in out:
        ns.setdefault(r.check_id, []).append(r.n)
    assert ns == {
        "THM 3.3": list(range(1, 10)),
        "COR 3.2": list(range(1, 9)),
        "LEM 3.1": list(range(1, 9)),
    }
