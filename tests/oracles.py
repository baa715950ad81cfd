"""Independent reference implementations the tests compare against."""

from itertools import combinations
from math import log2


def brute_force_subgroup_masks(group, max_generators=None) -> set[int]:
    """Closures of every generating set of bounded size.

    Any subgroup of a group of order n is generated by at most floor(log2 n)
    elements, since each extra generator at least doubles the subgroup.
    Only intended for small groups (the tests use it up to order 24).
    """
    if max_generators is None:
        max_generators = max(1, int(log2(max(group.order, 2))))
    masks = {1}
    nonidentity = range(1, group.order)
    for size in range(1, max_generators + 1):
        for combo in combinations(nonidentity, size):
            masks.add(group.subgroup_generated(combo))
    return masks
