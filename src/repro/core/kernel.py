"""Iterative traversal kernel for the PH-tree hot paths.

The seed implementation of the window query (``range_query.range_iter``)
kept one *generator object per visited node* on an explicit stack and
re-entered ``compute_masks`` / ``key_in_box`` / ``successor`` through
function calls for every node and entry.  In pure Python the per-frame
generator resume, the ``(address, slot)`` tuple allocation per slot and
the call overhead dominate the actual bit arithmetic of Section 3.5.

This module replaces that engine with a single flat loop:

- one explicit stack of plain frame tuples, pushed/popped only at node
  boundaries (never per slot),
- direct iteration over the container's internal slot arrays -- an
  address cursor stepped with the paper's successor computation for HC
  nodes, an index cursor over the sorted table for LHC nodes,
- the mask computation (``m_L``/``m_U``), the node/box intersection and
  full-coverage tests fused into one loop over the dimensions, inlined
  with all bounds hoisted into locals,
- the 'node lies completely inside the query' fast path of Section 3.5
  implemented as an unchecked *flush* mode instead of recursion: covered
  subtrees are walked by the same loop with all filtering disabled,
- a plain-scan mode for interior nodes whose masks are trivial
  (``m_L == 0`` and ``m_U == 2**k - 1``, i.e. every slot valid), which
  skips the successor stepping and the per-address mask check entirely.

The same kernel serves the exact window query, the approximate window
query (``slack_bits > 0`` relaxes both the subtree-flush granularity and
the per-entry containment check) and -- through :func:`iter_slots` and
:func:`iter_subtree` -- the kNN engine's region visits and full-tree
iteration.  Traversal order is z-order (ascending hypercube address,
depth first), bit-identical to the seed engine.

:func:`range_scan` is the object layout's one window-scan function: it
has no per-(k, width) specialization and no separate instrumented twin.
Its traversal counters live in locals and are published only when
:mod:`repro.obs.runtime` is enabled.  The generic arena engine
(:func:`_arena_range_scan_generic`) works the same way; it is the
reference for the generated slab kernels of
:mod:`repro.core.specialize` that :func:`arena_range_scan` dispatches
to, and the path for k > 32.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.core.node import Node
from repro.obs import probes as _probes
from repro.obs import runtime as _rt

__all__ = [
    "arena_range_scan",
    "iter_arena_subtree",
    "iter_slots",
    "iter_subtree",
    "range_scan",
]

# Frame modes of the flat traversal loop.
_FLUSH = 0  # node fully covered: no mask stepping, no entry checks
_MASKED = 1  # mask-guided address iteration, entries checked
_SCAN = 2  # trivial masks: plain slot scan, entries still checked


def iter_slots(container: Any) -> Iterator[Any]:
    """Yield every occupied slot of a container, in address order.

    Unlike ``container.items()`` this does not materialise an
    ``(address, slot)`` tuple per slot; it is the shared slot-visit
    primitive of the kernel, also used by the kNN engine's node
    expansion.
    """
    if container.is_hc:
        for slot in container._slots:
            if slot is not None:
                yield slot
    else:
        yield from container._slots


def iter_subtree(node: Node) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """Yield every entry below ``node`` in z-order, without any checks.

    Iterative replacement for the seed's recursive ``_yield_subtree``:
    the stack holds plain ``(slots, cursor, limit)`` triples, touched
    only at node boundaries.
    """
    slots = node.container._slots
    cur = 0
    limit = len(slots)
    stack = []
    node_cls = Node
    while True:
        if cur >= limit:
            if not stack:
                return
            slots, cur, limit = stack.pop()
            continue
        slot = slots[cur]
        cur += 1
        if slot is None:
            continue
        if slot.__class__ is node_cls:
            stack.append((slots, cur, limit))
            slots = slot.container._slots
            cur = 0
            limit = len(slots)
        else:
            yield slot.key, slot.value


def range_scan(
    root: Optional[Node],
    box_min: Sequence[int],
    box_max: Sequence[int],
    slack_bits: int = 0,
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """Yield all entries in the inclusive box, in z-order.

    ``slack_bits = 0`` is the exact window query of Section 3.5;
    ``slack_bits > 0`` is the approximate variant (reference [17]): any
    node spanning at most ``2**slack_bits`` per dimension is flushed
    wholesale and entries are accepted within ``2**slack_bits - 1`` of
    the box, yielding a superset of the exact result.

    This is the object layout's only window-scan engine.  Traversal
    counters accumulate in locals and are published into
    :mod:`repro.obs.probes` only when observability is enabled -- in the
    ``finally`` clause, so abandoned generators still report the partial
    traversal they performed.
    """
    if root is None:
        return
    bmin = box_min if type(box_min) is tuple else tuple(box_min)
    bmax = box_max if type(box_max) is tuple else tuple(box_max)
    for lo, hi in zip(bmin, bmax):
        if lo > hi:
            return
    k = len(bmin)
    full = (1 << k) - 1
    node_cls = Node
    if slack_bits > 0:
        slack = (1 << slack_bits) - 1
        lo_chk = tuple(v - slack for v in bmin)
        hi_chk = tuple(v + slack for v in bmax)
    else:
        lo_chk = bmin
        hi_chk = bmax

    # -- classify the root (never flushed, mirroring the seed engine) --
    post = root.post_len
    free = (1 << (post + 1)) - 1
    ml = mh = 0
    for nlo, lo, hi in zip(root.prefix, bmin, bmax):
        nhi = nlo | free
        if hi < nlo or lo > nhi:
            return
        if lo < nlo:
            lo = nlo
        if hi > nhi:
            hi = nhi
        ml = (ml << 1) | ((lo >> post) & 1)
        mh = (mh << 1) | ((hi >> post) & 1)
    cont = root.container
    slots = cont._slots
    limit = len(slots)
    if cont.is_hc:
        addrs = None
        if ml == 0 and mh == full:
            mode = _SCAN
            cur = 0
        else:
            mode = _MASKED
            cur = ml
    else:
        addrs = cont._addresses
        if ml == 0 and mh == full:
            mode = _SCAN
            cur = 0
        else:
            mode = _MASKED
            cur = bisect_left(addrs, ml)

    # Traversal counters (locals; published once in the finally below).
    c_nodes = 1
    c_hc = 1 if cont.is_hc else 0
    c_frames = 0
    c_slots = 0
    c_flush = 0
    c_plain = 1 if mode == _SCAN else 0
    c_maskrej = 0
    c_noderej = 0
    c_postdrop = 0
    c_entries = 0

    stack = []
    pop = stack.pop
    push = stack.append

    try:
        while True:
            # ---- fetch the next occupied slot of the current frame ----
            if mode == _MASKED:
                if addrs is None:  # HC: successor-stepped address cursor
                    if cur < 0:
                        if not stack:
                            return
                        slots, addrs, cur, ml, mh, mode, limit = pop()
                        continue
                    a = cur
                    # Next valid address (paper Section 3.5), or done.
                    cur = (
                        -1 if a >= mh else ((((a | ~mh) + 1) & mh) | ml)
                    )
                    slot = slots[a]
                    c_slots += 1
                    if slot is None:
                        continue
                else:  # LHC: index cursor over the sorted address table
                    if cur >= limit:
                        if not stack:
                            return
                        slots, addrs, cur, ml, mh, mode, limit = pop()
                        continue
                    a = addrs[cur]
                    if a > mh:
                        if not stack:
                            return
                        slots, addrs, cur, ml, mh, mode, limit = pop()
                        continue
                    slot = slots[cur]
                    cur += 1
                    c_slots += 1
                    if (a | ml) != a or (a & mh) != a:
                        c_maskrej += 1
                        continue
            else:  # _FLUSH and _SCAN: plain slot scan
                if cur >= limit:
                    if not stack:
                        return
                    slots, addrs, cur, ml, mh, mode, limit = pop()
                    continue
                slot = slots[cur]
                cur += 1
                c_slots += 1
                if slot is None:
                    continue

            # ---- process the slot ----
            if slot.__class__ is node_cls:
                if mode == _FLUSH:
                    push((slots, addrs, cur, ml, mh, mode, limit))
                    cont = slot.container
                    slots = cont._slots
                    addrs = None
                    cur = 0
                    limit = len(slots)
                    c_frames += 1
                    c_nodes += 1
                    if cont.is_hc:
                        c_hc += 1
                    continue
                # Fused intersection / coverage / mask computation.
                cpost = slot.post_len
                cfree = (1 << (cpost + 1)) - 1
                cml = cmh = 0
                inside = True
                hit = True
                for nlo, lo, hi in zip(slot.prefix, bmin, bmax):
                    nhi = nlo | cfree
                    if hi < nlo or lo > nhi:
                        hit = False
                        break
                    if nlo < lo or nhi > hi:
                        inside = False
                    if lo < nlo:
                        lo = nlo
                    if hi > nhi:
                        hi = nhi
                    cml = (cml << 1) | ((lo >> cpost) & 1)
                    cmh = (cmh << 1) | ((hi >> cpost) & 1)
                if not hit:
                    c_noderej += 1
                    continue
                push((slots, addrs, cur, ml, mh, mode, limit))
                cont = slot.container
                slots = cont._slots
                limit = len(slots)
                c_frames += 1
                c_nodes += 1
                if cont.is_hc:
                    c_hc += 1
                if inside or cpost < slack_bits:
                    # Fully covered (or within the approximation slack):
                    # flush the whole subtree with filtering disabled.
                    addrs = None
                    mode = _FLUSH
                    cur = 0
                    c_flush += 1
                elif cont.is_hc:
                    addrs = None
                    if cml == 0 and cmh == full:
                        mode = _SCAN
                        cur = 0
                        c_plain += 1
                    else:
                        mode = _MASKED
                        ml = cml
                        mh = cmh
                        cur = cml
                else:
                    addrs = cont._addresses
                    if cml == 0 and cmh == full:
                        mode = _SCAN
                        cur = 0
                        c_plain += 1
                    else:
                        mode = _MASKED
                        ml = cml
                        mh = cmh
                        cur = bisect_left(addrs, cml)
                continue

            # Entry (postfix).
            if mode == _FLUSH:
                c_entries += 1
                yield slot.key, slot.value
            else:
                key = slot.key
                for v, lo, hi in zip(key, lo_chk, hi_chk):
                    if v < lo or v > hi:
                        c_postdrop += 1
                        break
                else:
                    c_entries += 1
                    yield key, slot.value
    finally:
        if _rt.enabled:
            _probes.record_range_scan(
                c_nodes,
                c_hc,
                c_frames,
                c_slots,
                c_flush,
                c_plain,
                c_maskrej,
                c_noderej,
                c_postdrop,
                c_entries,
            )


def iter_arena_subtree(
    arena: Any, root: int
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """Arena twin of :func:`iter_subtree`: every entry below node offset
    ``root``, in z-order, straight off the slabs."""
    words = arena.words
    entries = arena.entries
    values = arena.values
    k = arena.k
    h = words[root]
    base = root + 2 + k
    if h & 4096:
        cur = base
        limit = base + (1 << k)
    else:
        # LHC refs are one contiguous run after the address region.
        c = words[root + 1]
        cur = base + (1 << ((h >> 13) & 63))
        limit = cur + (c & 2097151) + ((c >> 21) & 2097151)
    stack = []
    while True:
        if cur >= limit:
            if not stack:
                return
            cur, limit = stack.pop()
            continue
        ref = words[cur]
        cur += 1
        if not ref:
            continue
        if ref & 1:
            stack.append((cur, limit))
            child = ref >> 1
            h = words[child]
            base = child + 2 + k
            if h & 4096:
                cur = base
                limit = base + (1 << k)
            else:
                c = words[child + 1]
                cur = base + (1 << ((h >> 13) & 63))
                limit = cur + (c & 2097151) + ((c >> 21) & 2097151)
        else:
            e = ref >> 1
            vref = entries[e + k]
            yield tuple(entries[e : e + k]), (
                values[vref]
            )


def arena_range_scan(
    tree: Any,
    box_min: Sequence[int],
    box_max: Sequence[int],
    slack_bits: int = 0,
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """Window-scan an arena tree: dispatch to the tree's specialized
    slab kernel when it has one (plain or instrumented twin per the
    observability switch), else fall back to the generic mode machine
    of :func:`_arena_range_scan_generic`."""
    spec = tree._spec
    if spec is not None:
        if _rt.enabled:
            return spec.arena_range_scan_instrumented(
                tree, box_min, box_max, slack_bits
            )
        return spec.arena_range_scan_plain(
            tree, box_min, box_max, slack_bits
        )
    return _arena_range_scan_generic(tree, box_min, box_max, slack_bits)


def _arena_range_scan_generic(
    tree: Any,
    box_min: Sequence[int],
    box_max: Sequence[int],
    slack_bits: int = 0,
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """Arena twin of :func:`range_scan`: the same flat mode machine
    (masked / plain-scan / flush frames, z-order output), reading header
    and slot words off the slabs instead of chasing containers.

    Frames carry ``(hc, base, rbase, limit, cur, ml, mh, mode)``: for HC
    nodes ``base == rbase`` indexes the 2**k direct table (``cur`` is an
    address in masked mode, a table index otherwise); for LHC nodes
    ``base`` is the sorted address region, ``rbase`` the parallel ref
    region, ``cur`` a slot index and ``limit`` the occupied slot count.
    Traversal counters
    accumulate in locals either way and publish only when observability
    is enabled (results are what the lockstep fuzzer compares).
    """
    root = tree._root_off
    if not root:
        return
    arena = tree._arena
    words = arena.words
    entries = arena.entries
    values = arena.values
    bmin = box_min if type(box_min) is tuple else tuple(box_min)
    bmax = box_max if type(box_max) is tuple else tuple(box_max)
    for lo, hi in zip(bmin, bmax):
        if lo > hi:
            return
    k = arena.k
    full = (1 << k) - 1
    if slack_bits > 0:
        slack = (1 << slack_bits) - 1
        lo_chk = tuple(v - slack for v in bmin)
        hi_chk = tuple(v + slack for v in bmax)
    else:
        lo_chk = bmin
        hi_chk = bmax

    # -- classify the root (never flushed, mirroring the object engine) --
    h = words[root]
    post = h & 63
    free = (1 << (post + 1)) - 1
    ml = mh = 0
    d = root + 2
    for lo, hi in zip(bmin, bmax):
        nlo = words[d]
        d += 1
        nhi = nlo | free
        if hi < nlo or lo > nhi:
            return
        if lo < nlo:
            lo = nlo
        if hi > nhi:
            hi = nhi
        ml = (ml << 1) | ((lo >> post) & 1)
        mh = (mh << 1) | ((hi >> post) & 1)
    hc = h & 4096
    base = root + 2 + k
    if hc:
        rbase = base
        limit = 1 << k
        if ml == 0 and mh == full:
            mode = _SCAN
            cur = 0
        else:
            mode = _MASKED
            cur = ml
    else:
        c = words[root + 1]
        rbase = base + (1 << ((h >> 13) & 63))
        limit = (c & 2097151) + ((c >> 21) & 2097151)
        if ml == 0 and mh == full:
            mode = _SCAN
            cur = 0
        else:
            mode = _MASKED
            cur = bisect_left(words, ml, base, base + limit) - base

    c_nodes = 1
    c_hc = 1 if hc else 0
    c_frames = 0
    c_slots = 0
    c_flush = 0
    c_plain = 1 if mode == _SCAN else 0
    c_maskrej = 0
    c_noderej = 0
    c_postdrop = 0
    c_entries = 0

    stack = []
    pop = stack.pop
    push = stack.append

    try:
        while True:
            # ---- fetch the next occupied slot of the current frame ----
            if mode == _MASKED:
                if hc:  # HC: successor-stepped address cursor
                    if cur < 0:
                        if not stack:
                            return
                        hc, base, rbase, limit, cur, ml, mh, mode = pop()
                        continue
                    a = cur
                    # Next valid address (paper Section 3.5), or done.
                    cur = (
                        -1 if a >= mh else ((((a | ~mh) + 1) & mh) | ml)
                    )
                    ref = words[base + a]
                    c_slots += 1
                    if not ref:
                        continue
                else:  # LHC: index cursor over the sorted address region
                    if cur >= limit:
                        if not stack:
                            return
                        hc, base, rbase, limit, cur, ml, mh, mode = pop()
                        continue
                    a = words[base + cur]
                    if a > mh:
                        if not stack:
                            return
                        hc, base, rbase, limit, cur, ml, mh, mode = pop()
                        continue
                    ref = words[rbase + cur]
                    cur += 1
                    c_slots += 1
                    if (a | ml) != a or (a & mh) != a:
                        c_maskrej += 1
                        continue
            else:  # _FLUSH and _SCAN: plain slot scan
                if cur >= limit:
                    if not stack:
                        return
                    hc, base, rbase, limit, cur, ml, mh, mode = pop()
                    continue
                if hc:
                    ref = words[base + cur]
                    cur += 1
                    c_slots += 1
                    if not ref:
                        continue
                else:
                    ref = words[rbase + cur]
                    cur += 1
                    c_slots += 1

            # ---- process the slot ----
            if ref & 1:
                child = ref >> 1
                h = words[child]
                if mode == _FLUSH:
                    push((hc, base, rbase, limit, cur, ml, mh, mode))
                    hc = h & 4096
                    base = child + 2 + k
                    if hc:
                        rbase = base
                        limit = 1 << k
                    else:
                        c = words[child + 1]
                        rbase = base + (1 << ((h >> 13) & 63))
                        limit = (c & 2097151) + ((c >> 21) & 2097151)
                    cur = 0
                    c_frames += 1
                    c_nodes += 1
                    if hc:
                        c_hc += 1
                    continue
                # Fused intersection / coverage / mask computation.
                cpost = h & 63
                cfree = (1 << (cpost + 1)) - 1
                cml = cmh = 0
                inside = True
                hit = True
                d = child + 2
                for lo, hi in zip(bmin, bmax):
                    nlo = words[d]
                    d += 1
                    nhi = nlo | cfree
                    if hi < nlo or lo > nhi:
                        hit = False
                        break
                    if nlo < lo or nhi > hi:
                        inside = False
                    if lo < nlo:
                        lo = nlo
                    if hi > nhi:
                        hi = nhi
                    cml = (cml << 1) | ((lo >> cpost) & 1)
                    cmh = (cmh << 1) | ((hi >> cpost) & 1)
                if not hit:
                    c_noderej += 1
                    continue
                push((hc, base, rbase, limit, cur, ml, mh, mode))
                hc = h & 4096
                base = child + 2 + k
                if hc:
                    rbase = base
                    limit = 1 << k
                else:
                    c = words[child + 1]
                    rbase = base + (1 << ((h >> 13) & 63))
                    limit = (c & 2097151) + ((c >> 21) & 2097151)
                c_frames += 1
                c_nodes += 1
                if hc:
                    c_hc += 1
                if inside or cpost < slack_bits:
                    # Fully covered (or within the approximation slack):
                    # flush the whole subtree with filtering disabled.
                    mode = _FLUSH
                    cur = 0
                    c_flush += 1
                elif hc:
                    if cml == 0 and cmh == full:
                        mode = _SCAN
                        cur = 0
                        c_plain += 1
                    else:
                        mode = _MASKED
                        ml = cml
                        mh = cmh
                        cur = cml
                else:
                    if cml == 0 and cmh == full:
                        mode = _SCAN
                        cur = 0
                        c_plain += 1
                    else:
                        mode = _MASKED
                        ml = cml
                        mh = cmh
                        cur = (
                            bisect_left(words, cml, base, base + limit)
                            - base
                        )
                continue

            # Entry (postfix).
            e = ref >> 1
            if mode == _FLUSH:
                c_entries += 1
                vref = entries[e + k]
                yield tuple(entries[e : e + k]), (
                    values[vref]
                )
            else:
                d = e
                ok = True
                for lo, hi in zip(lo_chk, hi_chk):
                    v = entries[d]
                    d += 1
                    if v < lo or v > hi:
                        ok = False
                        break
                if ok:
                    c_entries += 1
                    vref = entries[e + k]
                    yield tuple(entries[e : e + k]), (
                        values[vref]
                    )
                else:
                    c_postdrop += 1
    finally:
        if _rt.enabled:
            _probes.record_range_scan(
                c_nodes,
                c_hc,
                c_frames,
                c_slots,
                c_flush,
                c_plain,
                c_maskrej,
                c_noderej,
                c_postdrop,
                c_entries,
            )
