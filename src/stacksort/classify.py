"""Machine classification predicates.

Three independent properties of the forbidden pattern determine how hard its
machine is to analyze: whether the sortable inputs form a pattern-avoidance
class, whether the first stack is effective (its outputs on sortable inputs
never contain the forbidden pattern itself), and whether every sortable
input avoids the anchored-132 pattern.  Each predicate has a closed
characterization in terms of the pattern alone; the verify module checks all
of them against exhaustive enumeration.  Every public function checks that
its pattern is a permutation (ValueError otherwise) and reads one derivation
of the classification row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivincular import _contains_anchored_132
from .perms import Perm, _contains_231, as_perm, reverse, swap_first_two

PATTERN_132: Perm = (1, 3, 2)

# The six mutually exclusive hypothesis labels, in presentation order.
LABEL_SWAP_231_AND_231 = "swap>=231 & self>=231"
LABEL_SWAP_231_NOT_231 = "swap>=231 & self-avoids-231"
LABEL_PLAIN_AVOIDS_231 = "swap-avoids-231 & swap1!=1 & self-avoids-231"
LABEL_CONTAINS_231_NOT_MIRROR = "swap-avoids-231 & swap1!=1 & self-avoids-rev-anchored-132 & self>=231"
LABEL_CONTAINS_MIRROR = "swap-avoids-231 & swap1!=1 & self>=rev-anchored-132"
LABEL_NOT_EFFECTIVE = "swap-avoids-231 & swap1=1"

ALL_LABELS = (
    LABEL_SWAP_231_AND_231,
    LABEL_SWAP_231_NOT_231,
    LABEL_PLAIN_AVOIDS_231,
    LABEL_CONTAINS_231_NOT_MIRROR,
    LABEL_CONTAINS_MIRROR,
    LABEL_NOT_EFFECTIVE,
)


@dataclass(frozen=True)
class ClassificationRow:
    pattern: Perm
    is_class: bool
    class_basis: tuple[Perm, ...] | None
    is_effective: bool
    sortables_avoid_anchored_132: bool
    label: str


def _checked(pattern: Perm, least: int, what: str) -> Perm:
    pattern = as_perm(pattern)
    if len(pattern) < least:
        raise ValueError(f"{what} requires pattern length >= {least}")
    return pattern


def _row(pattern: Perm) -> ClassificationRow:
    """The row of a permutation of length >= 2, from three containments: 231
    in the swapped pattern, the mirrored anchored 132 only when the swapped
    pattern avoids 231, and 231 in the pattern only when the label needs it."""
    swapped = swap_first_two(pattern)
    swap231 = _contains_231(swapped)
    # A leading 1 lies in no 231, so a non-effective swapped pattern is 1
    # followed by a 231-avoiding remainder.
    effective = swap231 or swapped[0] != 1
    mirror = not swap231 and _contains_anchored_132(reverse(pattern))
    basis = None
    if not effective:
        label = LABEL_NOT_EFFECTIVE
    elif swap231:
        if _contains_231(pattern):
            basis, label = (PATTERN_132,), LABEL_SWAP_231_AND_231
        else:
            basis, label = (PATTERN_132, reverse(pattern)), LABEL_SWAP_231_NOT_231
    elif not _contains_231(pattern):
        label = LABEL_PLAIN_AVOIDS_231
    else:
        label = LABEL_CONTAINS_MIRROR if mirror else LABEL_CONTAINS_231_NOT_MIRROR
    return ClassificationRow(pattern, swap231, basis, effective, not mirror, label)


def sort_is_class(pattern: Perm) -> tuple[bool, tuple[Perm, ...] | None]:
    """Do the sortable inputs form a pattern-avoidance class, and if so with
    which basis?

    The sortable set is a class exactly when the pattern with its first two
    entries swapped contains 231; the basis is {132} when the pattern itself
    contains 231 and {132, reverse(pattern)} otherwise.
    """
    row = _row(_checked(pattern, 3, "classification"))
    return row.is_class, row.class_basis


def is_effective(pattern: Perm) -> bool:
    """Does the restricted stack keep its own pattern out of every sorted
    output?

    Fails exactly when swapping the first two entries yields 1 followed by a
    231-avoiding remainder.
    """
    return _row(_checked(pattern, 2, "effectiveness")).is_effective


def sortables_avoid_anchored_132(pattern: Perm) -> bool:
    """Do all sortable inputs avoid the anchored-132 pattern?

    False exactly when the pattern starts with its two largest values in
    ascending order followed by a 231-avoiding remainder; equivalently, when
    the swapped pattern avoids 231 and the pattern contains the mirror of
    the anchored-132 pattern.
    """
    return _row(_checked(pattern, 3, "this predicate")).sortables_avoid_anchored_132


def classification_row(pattern: Perm) -> ClassificationRow:
    return _row(_checked(pattern, 3, "classification"))
