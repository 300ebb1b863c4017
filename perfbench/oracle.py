"""Independent reference answers for the benchmark's reads.

The reference is a plain dict of the entries the workload applied, plus
window and k-nearest-neighbour answers computed over lists of the keys
sorted on each coordinate.  It shares no code with the PH-tree engines,
so an engine bug cannot hide in it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

Key = Tuple[int, ...]


def sq_dist(a: Sequence[int], b: Sequence[int]) -> int:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def in_box(key: Sequence[int], lo: Sequence[int], hi: Sequence[int]) -> bool:
    return all(l <= c <= h for c, l, h in zip(key, lo, hi))


class PointOracle:
    """Window and kNN answers over a fixed key set."""

    def __init__(self, entries: Dict[Key, int]) -> None:
        self.entries = entries
        dims = len(next(iter(entries)))
        # Per coordinate: the keys sorted on it, and that coordinate.
        self._axes = []
        for axis in range(dims):
            keys = sorted(entries, key=itemgetter(axis))
            self._axes.append((keys, [key[axis] for key in keys]))

    def window(self, lo: Key, hi: Key) -> List[Key]:
        """Keys inside the inclusive box, sorted.  Only the keys within
        the box's range on its most selective coordinate are tested:
        on the county-ordered TIGER data, scanning a first-coordinate
        slice made the index-file inputs take about 10 s to draw."""
        slices = []
        for axis, (keys, coords) in enumerate(self._axes):
            start = bisect_left(coords, lo[axis])
            end = bisect_right(coords, hi[axis])
            slices.append((end - start, keys, start, end))
        _, keys, start, end = min(slices, key=itemgetter(0))
        return sorted(k for k in keys[start:end] if in_box(k, lo, hi))

    def knn_distances(self, query: Key, k: int) -> List[int]:
        """The ``k`` smallest squared distances to ``query``, ascending,
        by scanning outward from ``query`` along the first coordinate
        until the first-coordinate gap alone exceeds the k-th best."""
        keys, xs = self._axes[0]
        right = bisect_left(xs, query[0])
        left = right - 1
        best: List[int] = []  # max-heap of negated distances
        while left >= 0 or right < len(keys):
            gap_left = query[0] - xs[left] if left >= 0 else None
            gap_right = xs[right] - query[0] if right < len(keys) else None
            if gap_right is None or (gap_left is not None and gap_left < gap_right):
                index, gap = left, gap_left
                left -= 1
            else:
                index, gap = right, gap_right
                right += 1
            if len(best) == k and gap * gap > -best[0]:
                break
            d = sq_dist(keys[index], query)
            if len(best) < k:
                heapq.heappush(best, -d)
            elif d < -best[0]:
                heapq.heapreplace(best, -d)
        return sorted(-d for d in best)
