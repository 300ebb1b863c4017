"""LearnedZRouter: equi-mass z-interval sharding from a CDF model.

Drop-in peer of :class:`repro.parallel.router.ZShardRouter` (same
``shard_of`` / ``bounds`` / ``shards_for_box`` / ``split_sorted``
surface, so :class:`~repro.parallel.sharded.ShardedPHTree` works
unchanged), but the shard boundaries are *data*:
``n_shards - 1`` ascending z-codes -- equi-mass split points from a
:class:`~repro.learned.cdf.ZCdfModel`, a bulk-load stream, or a
:class:`~repro.obs.heat.ZHeatMap` -- instead of fixed z-prefix bits.

What survives from the prefix router (the parity contract):

- shard ``s`` owns one **contiguous z-interval** ``[cut[s-1], cut[s])``
  (cut 0 = 0, last cut = 2^zbits), so a globally z-sorted stream still
  splits into per-shard runs by position and per-shard results still
  concatenate in exact global z-order;
- every shard still advertises an axis-aligned bounding box -- the box
  of its z-interval's longest common z-prefix.  Unlike the prefix
  router's boxes it may be a *superset* of the owned region (an
  interval that straddles a prefix boundary has a short common prefix),
  which keeps every consumer correct: kNN shard ordering uses it as an
  admissible lower bound, and window routing intersects it *and* the
  exact z-interval, so a shard is only visited if the query box can
  overlap it.

What changes: equal *volume* is no longer guaranteed, equal *mass* is
(to the resolution of the evidence the cuts were built from).  Under a
CLUSTER-skewed load the prefix router funnels nearly everything into
the shards whose prefix covers the clusters; the learned cuts follow
the CDF and keep max/mean shard occupancy near 1.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.encoding.interleave import deinterleave, interleave
from repro.learned.cdf import ZCdfModel

__all__ = ["LearnedZRouter"]

Key = Tuple[int, ...]


class LearnedZRouter:
    """Routes keys to shards by ascending learned z-cut boundaries.

    ``cuts`` are ``n_shards - 1`` z-codes; shard ``s`` owns z-interval
    ``[cuts[s-1], cuts[s])`` (with virtual cuts 0 and 2^zbits at the
    ends).  Duplicate cuts are legal and simply leave the middle shard
    empty.

    >>> router = LearnedZRouter(dims=2, width=8, cuts=[4, 64])
    >>> router.n_shards
    3
    >>> router.shard_of((0, 0)), router.shard_of((255, 255))
    (0, 2)
    """

    __slots__ = (
        "_dims",
        "_width",
        "_zbits",
        "_cuts",
        "_bounds",
        "_z_of",
    )

    def __init__(
        self, dims: int, width: int, cuts: Sequence[int]
    ) -> None:
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        zbits = dims * width
        zmax = 1 << zbits
        cuts = [int(c) for c in cuts]
        for i, c in enumerate(cuts):
            if not 0 <= c < zmax:
                raise ValueError(
                    f"cut {i} = {c} outside z-space [0, 2^{zbits})"
                )
            if i and c < cuts[i - 1]:
                raise ValueError("cuts must be ascending")
        self._dims = dims
        self._width = width
        self._zbits = zbits
        self._cuts = cuts
        self._z_of: Optional[Any] = None
        self._bounds: List[Tuple[Key, Key]] = [
            self._compute_bounds(s) for s in range(len(cuts) + 1)
        ]

    # -- constructors --------------------------------------------------------

    @classmethod
    def uniform(
        cls, dims: int, width: int, shards: int
    ) -> "LearnedZRouter":
        """Equal-volume cuts -- the no-evidence starting point (still
        interval semantics, unlike the prefix router only in shape)."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        span = 1 << (dims * width)
        return cls(
            dims,
            width,
            [span * s // shards for s in range(1, shards)],
        )

    @classmethod
    def from_sorted_zcodes(
        cls,
        zcodes: Sequence[int],
        dims: int,
        width: int,
        shards: int,
    ) -> "LearnedZRouter":
        """Exact equi-mass cuts from an ascending z-code stream (the
        bulk-load path: the stream is the full population, so the cuts
        are order statistics, not estimates)."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        n = len(zcodes)
        if n == 0:
            return cls.uniform(dims, width, shards)
        zmax = (1 << (dims * width)) - 1
        cuts = []
        for s in range(1, shards):
            idx = (n * s + shards - 1) // shards
            cuts.append(
                zcodes[idx] if idx < n else min(zcodes[-1] + 1, zmax)
            )
        return cls(dims, width, cuts)

    @classmethod
    def from_sample(
        cls,
        keys: Sequence[Sequence[int]],
        dims: int,
        width: int,
        shards: int,
    ) -> "LearnedZRouter":
        """Equi-mass cuts estimated from an unsorted key sample."""
        return cls.from_cdf(
            ZCdfModel.from_keys(keys, dims, width), dims, width, shards
        )

    @classmethod
    def from_heatmap(
        cls, heat, dims: int, width: int, shards: int
    ) -> "LearnedZRouter":
        """Equi-mass cuts from live traffic (the observability layer's
        z-region heat buckets)."""
        return cls.from_cdf(
            ZCdfModel.from_heatmap(heat, dims, width),
            dims,
            width,
            shards,
        )

    @classmethod
    def from_cdf(
        cls, model: ZCdfModel, dims: int, width: int, shards: int
    ) -> "LearnedZRouter":
        """Equi-mass cuts at the CDF's ``s / shards`` quantiles."""
        if model.zbits != dims * width:
            raise ValueError(
                f"CDF is over {model.zbits}-bit z-space, router needs "
                f"{dims * width}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if len(model) == 0:
            return cls.uniform(dims, width, shards)
        return cls(dims, width, model.cuts(shards))

    # -- introspection -------------------------------------------------------

    @property
    def dims(self) -> int:
        """Number of dimensions ``k``."""
        return self._dims

    @property
    def width(self) -> int:
        """Bit width ``w`` of each coordinate."""
        return self._width

    @property
    def n_shards(self) -> int:
        """Number of shards (any count >= 1, not only powers of two)."""
        return len(self._cuts) + 1

    @property
    def cuts(self) -> List[int]:
        """The learned z-cut boundaries (ascending, length
        ``n_shards - 1``)."""
        return list(self._cuts)

    def z_interval(self, shard: int) -> Tuple[int, int]:
        """Inclusive ``[z_lo, z_hi]`` interval owned by ``shard``."""
        cuts = self._cuts
        lo = cuts[shard - 1] if shard else 0
        hi = (
            cuts[shard] - 1
            if shard < len(cuts)
            else (1 << self._zbits) - 1
        )
        return lo, max(lo, hi)

    # -- key -> shard --------------------------------------------------------

    def _interleave(self, key: Sequence[int]) -> int:
        z_of = self._z_of
        if z_of is None:
            # Prefer the per-(k, width) specialised interleave; resolved
            # lazily so router construction stays allocation-cheap.
            from repro.core.specialize import get_spec

            spec = get_spec(self._dims, self._width)
            if spec is not None:
                z_of = spec.interleave
            else:
                width = self._width

                def z_of(key: Sequence[int]) -> int:
                    return interleave(key, width)

            self._z_of = z_of
        return z_of(key)

    def shard_of(self, key: Sequence[int]) -> int:
        """The shard owning ``key``: position of its z-code among the
        learned cuts."""
        if not self._cuts:
            return 0
        return bisect_right(self._cuts, self._interleave(key))

    def shard_of_z(self, z: int) -> int:
        """The shard owning z-code ``z``."""
        if not self._cuts:
            return 0
        return bisect_right(self._cuts, z)

    # -- shard -> geometry ---------------------------------------------------

    def _compute_bounds(self, shard: int) -> Tuple[Key, Key]:
        """Bounding box of the shard's z-interval: the box of the
        interval ends' longest common z-prefix (an admissible superset
        of the owned region)."""
        k = self._dims
        width = self._width
        z_lo, z_hi = self.z_interval(shard)
        diff = z_lo ^ z_hi
        free = diff.bit_length()
        base = (z_lo >> free) << free
        lower = deinterleave(base, k, width)
        upper = deinterleave(base | ((1 << free) - 1), k, width)
        return lower, upper

    def bounds(self, shard: int) -> Tuple[Key, Key]:
        """Inclusive ``(lower, upper)`` corner of the shard's bounding
        box (superset of the owned z-interval's keys)."""
        return self._bounds[shard]

    def shards_for_box(
        self, box_min: Sequence[int], box_max: Sequence[int]
    ) -> List[int]:
        """Shards that may own keys inside the inclusive box,
        ascending (= z-order, since shards are ascending z-intervals).

        A shard qualifies only if its z-interval overlaps the box's
        z-code range ``[z(box_min), z(box_max)]`` *and* its bounding
        box intersects the query box -- both are exact filters, so the
        result is a superset of the shards actually holding matches
        and never misses one.
        """
        max_v = (1 << self._width) - 1
        lo = tuple(min(max(v, 0), max_v) for v in box_min)
        hi = tuple(min(max(v, 0), max_v) for v in box_max)
        if any(a > b for a, b in zip(lo, hi)):
            return []
        z_lo = self._interleave(lo)
        z_hi = self._interleave(hi)
        cuts = self._cuts
        first = bisect_right(cuts, z_lo)
        last = bisect_right(cuts, z_hi)
        hits = []
        for shard in range(first, last + 1):
            lower, upper = self._bounds[shard]
            for a, b, slo, shi in zip(box_min, box_max, lower, upper):
                if b < slo or a > shi:
                    break
            else:
                hits.append(shard)
        return hits

    # -- sorted-run splitting ------------------------------------------------

    def split_sorted(
        self, items: List[Tuple[Key, Any]]
    ) -> Iterator[Tuple[int, List[Tuple[Key, Any]]]]:
        """Cut a globally z-sorted entry list into per-shard runs,
        yielding ``(shard, run)`` for every non-empty shard ascending.
        Shards are contiguous z-intervals, so each cut is one bisect
        over the items' z-codes."""
        zs = [self._interleave(key) for key, _ in items]
        yield from self.split_sorted_zs(items, zs)

    def split_sorted_zs(
        self,
        items: List[Tuple[Key, Any]],
        zs: Sequence[int],
    ) -> Iterator[Tuple[int, List[Tuple[Key, Any]]]]:
        """:meth:`split_sorted` when the caller already holds the
        items' ascending z-codes (the bulk-build path reuses its sort
        keys instead of re-interleaving)."""
        n = len(items)
        start = 0
        shard = self.shard_of_z(zs[0]) if n else 0
        for cut_shard in range(shard, self.n_shards - 1):
            end = bisect_left(zs, self._cuts[cut_shard], start, n)
            if end > start:
                yield cut_shard, items[start:end]
                start = end
            if start >= n:
                return
        if start < n:
            yield self.n_shards - 1, items[start:]