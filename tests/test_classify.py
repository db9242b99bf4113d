import pytest

from stacksort.bivincular import BivincularPattern, contains_bivincular
from stacksort.classify import (
    ALL_LABELS,
    classification_row,
    is_effective,
    sort_is_class,
    sortables_avoid_anchored_132,
)
from stacksort.perms import all_perms, contains, swap_first_two
from stacksort.verify import CLASSIFICATION_GROUPS, EFFECTIVE_PATTERNS
from stacksort.enumeration import catalan


def test_sort_is_class_examples():
    assert sort_is_class((3, 2, 1)) == (True, ((1, 3, 2), (1, 2, 3)))
    assert sort_is_class((1, 3, 4, 2)) == (True, ((1, 3, 2),))
    assert sort_is_class((2, 3, 1)) == (False, None)
    with pytest.raises(ValueError):
        sort_is_class((2, 1))


def test_is_effective_examples():
    assert not is_effective((2, 1))
    assert is_effective((1, 2))
    assert is_effective((2, 3, 1))
    assert not is_effective((2, 1, 3, 4))
    assert not is_effective((3, 1, 2))
    with pytest.raises(ValueError):
        is_effective((1,))


def test_effective_lists_match_reference():
    for m, want in EFFECTIVE_PATTERNS.items():
        got = tuple(p for p in all_perms(m) if is_effective(p))
        assert got == want


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_non_effective_count_is_catalan(m):
    assert sum(1 for p in all_perms(m) if not is_effective(p)) == catalan(m - 1)


def test_sortables_avoid_anchored_132_examples():
    assert not sortables_avoid_anchored_132((2, 3, 1))
    assert not sortables_avoid_anchored_132((3, 4, 1, 2))
    assert sortables_avoid_anchored_132((1, 2, 3))
    with pytest.raises(ValueError):
        sortables_avoid_anchored_132((2, 1))


def test_exceptional_patterns_up_to_length_4():
    exceptional = [
        p
        for m in (3, 4)
        for p in all_perms(m)
        if not sortables_avoid_anchored_132(p)
    ]
    assert exceptional == [(2, 3, 1), (3, 4, 1, 2), (3, 4, 2, 1)]


def test_three_way_equivalence_of_the_exceptional_condition():
    # predicate False <=> pattern = 12 skew beta with beta nonempty avoiding
    # 231 <=> swapped avoids 231 and the mirrored anchored pattern occurs
    mirrored = BivincularPattern((2, 3, 1), frozenset({1, 3}), frozenset())
    for m in (3, 4):
        for pattern in all_perms(m):
            via_predicate = not sortables_avoid_anchored_132(pattern)
            beta = pattern[2:] if pattern[:2] == (m - 1, m) else None
            via_skew = beta is not None and len(beta) >= 1 and not contains(beta, (2, 3, 1))
            via_bivincular = not contains(
                swap_first_two(pattern), (2, 3, 1)
            ) and contains_bivincular(pattern, mirrored)
            assert via_predicate == via_skew == via_bivincular


def test_classification_row_examples():
    row = classification_row((3, 2, 1))
    assert (row.is_class, row.is_effective, row.sortables_avoid_anchored_132) == (
        True,
        True,
        True,
    )
    row = classification_row((2, 3, 1, 4))
    assert (row.is_class, row.is_effective, row.sortables_avoid_anchored_132) == (
        False,
        True,
        True,
    )
    row = classification_row((3, 1, 2))
    assert (row.is_class, row.is_effective, row.sortables_avoid_anchored_132) == (
        False,
        False,
        True,
    )
    row = classification_row((2, 3, 1))
    assert (row.is_class, row.is_effective, row.sortables_avoid_anchored_132) == (
        False,
        True,
        False,
    )
    with pytest.raises(ValueError):
        classification_row((2, 1))


def test_labels_partition_all_patterns():
    for m in (3, 4, 5):
        for pattern in all_perms(m):
            row = classification_row(pattern)
            label = row.label
            assert label in ALL_LABELS
            # flags are a function of the row label
            idx = ALL_LABELS.index(label)
            want_flags = [
                (True, True, True),
                (True, True, True),
                (False, True, True),
                (False, True, True),
                (False, True, False),
                (False, False, True),
            ][idx]
            assert (
                row.is_class,
                row.is_effective,
                row.sortables_avoid_anchored_132,
            ) == want_flags


def test_classification_groups_match_reference_table():
    grouped = {label: [] for label in ALL_LABELS}
    for m in (3, 4):
        for pattern in all_perms(m):
            grouped[classification_row(pattern).label].append(pattern)
    for label, want in zip(ALL_LABELS, CLASSIFICATION_GROUPS):
        assert sorted(grouped[label], key=lambda p: (len(p), p)) == sorted(
            want, key=lambda p: (len(p), p)
        )


def test_basis_is_present_exactly_for_classes():
    for m in (3, 4):
        for pattern in all_perms(m):
            is_class, basis = sort_is_class(pattern)
            assert (basis is not None) == is_class


@pytest.mark.parametrize(
    "fn",
    [
        classification_row,
        sort_is_class,
        is_effective,
        sortables_avoid_anchored_132,
    ],
)
@pytest.mark.parametrize("pattern", [(1, 1, 2), (0, 5, 9), (2, 4, 1, 3, 3)])
def test_pattern_must_be_a_permutation(fn, pattern):
    with pytest.raises(ValueError):
        fn(pattern)
