"""The parallel layer: z-prefix sharding.

The paper presents the PH-tree as a primary in-memory storage layout
whose shape is determined solely by the key set (Sections 1 and 3).
This package exploits the resulting trivially partitionable structure:

- :mod:`repro.parallel.router` -- pure z-prefix shard arithmetic,
- :mod:`repro.parallel.sharded` -- :class:`ShardedPHTree`, S independent
  locked PH-trees observationally identical to one tree.
"""

from repro.parallel.router import ZShardRouter
from repro.parallel.sharded import ShardedPHTree

__all__ = [
    "ShardedPHTree",
    "ZShardRouter",
]
