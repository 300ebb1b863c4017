"""Window (range) queries over a PH-tree (paper Section 3.5).

A range query takes an inclusive axis-aligned box given by its 'lower left'
and 'upper right' corner and yields all stored ``(key, value)`` pairs inside
it.  Traversal is depth-first; inside each node the ``m_L``/``m_U`` masks
restrict the visited hypercube addresses to the slots that can possibly
intersect the query, using the successor computation to skip over invalid
address ranges in a single operation.

The production engine is the iterative kernel in :mod:`repro.core.kernel`
(explicit frame stack, inlined masks, allocation-free slot stepping).  Two
reference engines remain for ablation and the perf trajectory:

- :func:`generator_range_iter` / :func:`generator_approx_range_iter`: the
  seed implementation (one generator object per visited node), kept as the
  baseline that ``repro.bench.trajectory`` measures the kernel against,
- :func:`naive_range_iter`: a deliberately mask-less traversal used by the
  ablation benchmark (``benchmarks/bench_ablation_masks.py``) to quantify
  what the masks buy.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.core.kernel import range_scan
from repro.core.masks import (
    compute_masks,
    key_in_box,
    node_intersects_box,
)
from repro.core.node import Entry, Node

__all__ = [
    "approx_range_iter",
    "generator_approx_range_iter",
    "generator_range_iter",
    "naive_range_iter",
    "range_iter",
]


def range_iter(
    root: Optional[Node],
    box_min: Sequence[int],
    box_max: Sequence[int],
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """Yield all ``(key, value)`` pairs within the inclusive box.

    Results are produced in z-order (ascending interleaved bit-string
    order), which is the node traversal order; output is bit-identical
    to the reference engines (same entries, same order).
    """
    return range_scan(root, box_min, box_max)


def approx_range_iter(
    root: Optional[Node],
    box_min: Sequence[int],
    box_max: Sequence[int],
    slack_bits: int,
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """Approximate range query (reference [17]; paper Section 2 calls it
    'a desirable future extension').

    Trades accuracy near the query edges for fewer visited nodes: any
    node whose region spans at most ``2**slack_bits`` per dimension and
    intersects the query is accepted wholesale, without postfix checks.
    The result is a superset of the exact result; every extra point lies
    within ``2**slack_bits - 1`` of the box in each dimension.
    ``slack_bits=0`` degenerates to the exact query.
    """
    if slack_bits < 0:
        raise ValueError(f"slack_bits must be >= 0, got {slack_bits}")
    return range_scan(root, box_min, box_max, slack_bits)


# ---------------------------------------------------------------------------
# Reference engines (ablation + perf-trajectory baselines)
# ---------------------------------------------------------------------------


def _node_inside_box(
    node: Node, box_min: Sequence[int], box_max: Sequence[int]
) -> bool:
    """True when the node's whole region lies inside the query box, in
    which case every entry below it matches without further checks (the
    'node lies completely inside the query range' fast path of Section
    3.5)."""
    free = (1 << (node.post_len + 1)) - 1
    for dim, node_lo in enumerate(node.prefix):
        if node_lo < box_min[dim] or (node_lo | free) > box_max[dim]:
            return False
    return True


def _yield_subtree(node: Node):
    """Yield every entry below ``node``, in z-order, without checks.

    Recursion depth is bounded by the tree depth (<= w)."""
    for _, slot in node.items():
        if isinstance(slot, Node):
            yield from _yield_subtree(slot)
        else:
            yield slot.key, slot.value


def generator_range_iter(
    root: Optional[Node],
    box_min: Sequence[int],
    box_max: Sequence[int],
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """The seed window-query engine: a stack of per-node generators.

    Functionally identical to :func:`range_iter` (same entries, same
    order); kept as the baseline the iterative kernel is benchmarked
    against in ``repro.bench.trajectory``, and as a correctness oracle
    for the property tests.
    """
    if root is None:
        return
    for dim in range(len(box_min)):
        if box_min[dim] > box_max[dim]:
            return
    if not node_intersects_box(root, box_min, box_max):
        return
    # Each stack frame is an in-flight mask-range iterator over one node.
    mask_lower, mask_upper = compute_masks(root, box_min, box_max)
    stack = [root.container.items_in_mask_range(mask_lower, mask_upper)]
    while stack:
        try:
            _, slot = next(stack[-1])
        except StopIteration:
            stack.pop()
            continue
        if isinstance(slot, Node):
            if _node_inside_box(slot, box_min, box_max):
                # Fast path (Section 3.5): the node is fully covered, so
                # every entry below matches -- no masks, no key checks.
                yield from _yield_subtree(slot)
            elif node_intersects_box(slot, box_min, box_max):
                mask_lower, mask_upper = compute_masks(
                    slot, box_min, box_max
                )
                stack.append(
                    slot.container.items_in_mask_range(
                        mask_lower, mask_upper
                    )
                )
        else:
            entry: Entry = slot
            if key_in_box(entry.key, box_min, box_max):
                yield entry.key, entry.value


def generator_approx_range_iter(
    root: Optional[Node],
    box_min: Sequence[int],
    box_max: Sequence[int],
    slack_bits: int,
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """The seed approximate-query engine (see :func:`approx_range_iter`).

    Kept as the reference the iterative kernel's approximate mode is
    property-tested against.
    """
    if slack_bits < 0:
        raise ValueError(f"slack_bits must be >= 0, got {slack_bits}")
    if root is None:
        return
    for dim in range(len(box_min)):
        if box_min[dim] > box_max[dim]:
            return
    if not node_intersects_box(root, box_min, box_max):
        return
    mask_lower, mask_upper = compute_masks(root, box_min, box_max)
    stack = [root.container.items_in_mask_range(mask_lower, mask_upper)]
    while stack:
        try:
            _, slot = next(stack[-1])
        except StopIteration:
            stack.pop()
            continue
        if isinstance(slot, Node):
            if _node_inside_box(slot, box_min, box_max) or (
                slot.post_len + 1 <= slack_bits
                and node_intersects_box(slot, box_min, box_max)
            ):
                yield from _yield_subtree(slot)
            elif node_intersects_box(slot, box_min, box_max):
                mask_lower, mask_upper = compute_masks(
                    slot, box_min, box_max
                )
                stack.append(
                    slot.container.items_in_mask_range(
                        mask_lower, mask_upper
                    )
                )
        else:
            entry: Entry = slot
            # Exact containment is relaxed by the slack tolerance (with
            # slack_bits=0 this is the exact key_in_box check).
            if _near_box(entry.key, box_min, box_max, slack_bits):
                yield entry.key, entry.value


def _near_box(
    key: Sequence[int],
    box_min: Sequence[int],
    box_max: Sequence[int],
    slack_bits: int,
) -> bool:
    """Containment check with ``2**slack_bits - 1`` tolerance per axis."""
    slack = (1 << slack_bits) - 1
    for dim, value in enumerate(key):
        if value < box_min[dim] - slack or value > box_max[dim] + slack:
            return False
    return True


def naive_range_iter(
    root: Optional[Node],
    box_min: Sequence[int],
    box_max: Sequence[int],
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """Mask-less reference traversal: visits every slot of every node whose
    region intersects the query box.

    Functionally identical to :func:`range_iter`; exists to measure the
    benefit of the paper's mask-guided address iteration.
    """
    if root is None:
        return
    for dim in range(len(box_min)):
        if box_min[dim] > box_max[dim]:
            return
    stack = [root]
    while stack:
        node = stack.pop()
        if not node_intersects_box(node, box_min, box_max):
            continue
        for _, slot in node.items():
            if isinstance(slot, Node):
                stack.append(slot)
            elif key_in_box(slot.key, box_min, box_max):
                yield slot.key, slot.value
