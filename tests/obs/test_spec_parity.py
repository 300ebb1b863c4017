"""Instrumentation parity over the generated arena kernels.

The per-(k, width) kernels of :mod:`repro.core.specialize` carry their
own instrumented twins, generated from the same template as the plain
ones.  These tests pin the whole contract against the generic arena
engines (``specialize=False``) they are twins of:

- with observability on, the generated kernels return identical
  results AND publish identical probe counts to the generic arena
  engines (counter-for-counter),
- point ops on a specialized arena tree publish the same per-op
  counters as a generic arena tree's,
- with observability off, the dispatching entry points stay within the
  5% overhead pin over the generated plain twins.
"""

import random
import time

import pytest

from repro import obs
from repro.core import batch as batch_mod
from repro.core import kernel as kernel_mod
from repro.obs import probes
from repro.core.phtree import PHTree

DIMS = 3
WIDTH = 16
DOMAIN = (1 << WIDTH) - 1

LIMIT = 1.05
ATTEMPTS = 6
REPEATS = 7


def _arena_tree(keys, specialize=True):
    tree = PHTree(
        dims=DIMS, width=WIDTH, layout="arena", specialize=specialize
    )
    for key in keys:
        tree.put(key, None)
    return tree


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(67)
    # Only the arena layout has generated kernels; fix it regardless of
    # the session default.
    keys = list(
        {
            tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
            for _ in range(4000)
        }
    )
    tree = _arena_tree(keys)
    generic = _arena_tree(keys, specialize=False)
    boxes = []
    for _ in range(30):
        lo = tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
        hi = tuple(min(v + (1 << (WIDTH - 2)), DOMAIN) for v in lo)
        boxes.append((lo, hi))
    return tree, generic, keys, boxes


def _counts():
    # Collector-backed families (arena census, plan cache, flight
    # recorder, heat map) reflect process-lifetime structural state,
    # not per-workload probe activity -- exclude them from parity.
    state = ("repro_arena_", "repro_plan_cache_",
             "repro_flight_recorder_", "repro_heat_")
    return {
        name: family
        for name, family in probes.registry.dump_json().items()
        if not name.startswith(state)
    }


class TestInstrumentedParity:
    def test_range_scan_counts_identical(self, workload, obs_enabled):
        tree, _generic, _keys, boxes = workload
        spec = tree.specialization
        assert spec is not None
        for lo, hi in boxes:
            obs.reset()
            expected = list(
                kernel_mod._arena_range_scan_generic(tree, lo, hi)
            )
            expected_counts = _counts()
            obs.reset()
            got = list(spec.arena_range_scan_instrumented(tree, lo, hi))
            assert got == expected
            assert _counts() == expected_counts

    def test_range_scan_approx_counts_identical(
        self, workload, obs_enabled
    ):
        tree, _generic, _keys, boxes = workload
        spec = tree.specialization
        for lo, hi in boxes[:10]:
            obs.reset()
            expected = list(
                kernel_mod._arena_range_scan_generic(tree, lo, hi, 3)
            )
            expected_counts = _counts()
            obs.reset()
            got = list(
                spec.arena_range_scan_instrumented(tree, lo, hi, 3)
            )
            assert got == expected
            assert _counts() == expected_counts

    def test_get_many_counts_identical(self, workload, obs_enabled):
        tree, generic, keys, _boxes = workload
        spec = tree.specialization
        rng = random.Random(71)
        batch = keys[:1000] + [
            tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
            for _ in range(300)
        ]
        for presorted in (False, True):
            obs.reset()
            expected = batch_mod.arena_get_many(
                generic, batch, presorted=presorted
            )
            expected_counts = _counts()
            obs.reset()
            got = spec.arena_get_many_instrumented(
                tree, batch, presorted=presorted
            )
            assert got == expected
            assert _counts() == expected_counts

    def test_dispatch_selects_instrumented_twin(
        self, workload, obs_enabled
    ):
        # The public entry points must publish probes on a specialized
        # tree exactly like before.
        tree, _generic, keys, boxes = workload
        obs.reset()
        tree.get_many(keys[:100])
        assert probes.ops_get_many.value == 1
        assert probes.batch_keys_get.value == 100
        obs.reset()
        total = sum(1 for _ in tree.query(*boxes[0]))
        assert probes.ops_query.value == 1
        assert probes.kernel_entries_yielded.value == total

    def test_point_ops_counts_match_generic_tree(self, obs_enabled):
        rng = random.Random(73)
        keys = list(
            {
                tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
                for _ in range(500)
            }
        )
        obs.reset()
        spec_tree = _arena_tree(keys)
        for key in keys:
            spec_tree.get(key)
        spec_counts = _counts()
        obs.reset()
        generic_tree = _arena_tree(keys, specialize=False)
        for key in keys:
            generic_tree.get(key)
        assert _counts() == spec_counts


class TestDisabledOverheadPin:
    def _assert_overhead(self, dispatching, plain):
        assert not obs.is_enabled()
        ratios = []
        for _ in range(ATTEMPTS):
            t_dispatch = _best(dispatching)
            t_plain = _best(plain)
            ratio = t_dispatch / t_plain
            if ratio <= LIMIT:
                return
            ratios.append(round(ratio, 4))
        pytest.fail(
            f"disabled-path overhead exceeded {LIMIT:.0%} in every "
            f"attempt: {ratios}"
        )

    def test_get_many_overhead_over_spec_twin(self, workload):
        tree, _generic, keys, _boxes = workload
        spec = tree.specialization
        self._assert_overhead(
            lambda: batch_mod.arena_get_many(tree, keys),
            lambda: spec.arena_get_many_plain(tree, keys),
        )

    def test_query_overhead_over_spec_twin(self, workload):
        tree, _generic, _keys, boxes = workload
        spec = tree.specialization

        def dispatching():
            total = 0
            for lo, hi in boxes:
                for _ in kernel_mod.arena_range_scan(tree, lo, hi):
                    total += 1
            return total

        def plain():
            total = 0
            for lo, hi in boxes:
                for _ in spec.arena_range_scan_plain(tree, lo, hi, 0):
                    total += 1
            return total

        assert dispatching() == plain()
        self._assert_overhead(dispatching, plain)


def _best(func, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best
