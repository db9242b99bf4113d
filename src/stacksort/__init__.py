"""Pattern-restricted stack machines and pattern containment.

A restricted stack refuses any push that would make its content (read top to
bottom) contain a fixed forbidden pattern; the two-stack machine runs one
greedy pass through such a stack and then one through a plain increasing
stack.  This package simulates the machine, decides classical and bivincular
pattern containment, enumerates sortable inputs and sorted outputs
exhaustively, classifies machines by the structure of their forbidden
pattern, and cross-checks every closed form against brute force.
"""

from .bivincular import (
    ANCHORED_132,
    FISHBURN_PATTERN,
    BivincularPattern,
    avoids_anchored_132_via_blocks,
    contains_anchored_132,
    contains_bivincular,
    count_anchored_132_avoiders,
    first_element_decomposition,
)
from .classify import (
    ClassificationRow,
    classification_row,
    is_effective,
    sort_is_class,
    sortables_avoid_anchored_132,
)
from .enumeration import (
    SortedProfile,
    catalan,
    count_sortable,
    count_sortable_123_formula,
    count_sorted,
    fertility,
    gamma_decomposition_123,
    machine_outputs,
    sortable_permutations,
    sorted_profile,
)
from .machine import (
    MachineTrace,
    TraceEvent,
    is_sortable,
    machine_output,
    stack_pass,
    stack_pass_traced,
)
from .perms import (
    Perm,
    all_perms,
    as_perm,
    contains,
    format_perm,
    identity,
    occurrences,
    parse_perm,
    reverse,
    swap_first_two,
)

__all__ = [name for name in dir() if not name.startswith("_")]
