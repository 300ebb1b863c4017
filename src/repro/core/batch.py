"""Batched point and window queries (the batch engine).

The paper's evaluation (Section 4) is throughput-oriented: millions of
point and range operations against one tree.  Issuing them one call at a
time through :meth:`PHTree.get` / :meth:`PHTree.query` pays, per
operation, the full Python call overhead (argument validation, method
dispatch, a root-to-leaf descent of method calls) even though
consecutive operations overwhelmingly revisit the same top-of-tree
nodes.

This module amortises that overhead across a batch:

- :func:`get_many` validates the whole batch and computes its z-codes in
  one fused pass, sorts it by (approximate) z-order so consecutive keys
  share descent paths, and then *merge-joins* the sorted batch against
  the tree: the current root-to-leaf path lives on a single explicit
  stack, and every key first ascends to the deepest stacked node whose
  region still contains it, then descends only the levels its
  predecessor did not already resolve.  All per-level work (hypercube
  address, container lookup, prefix check) is inlined with locals
  hoisted -- no method calls, no per-key allocations.
- :func:`query_many` walks the tree once for a batch of query boxes,
  carrying the set of still-active boxes down the traversal: each node
  is classified (intersects / fully covers) once per active box, and the
  union of the per-box ``m_L``/``m_U`` masks restricts the visited
  slots.  Per-box results are produced in exactly the order the
  single-box engine (:func:`repro.core.range_query.range_iter`) yields
  them.

The z-order sort key interleaves only the top byte of every coordinate
(one table lookup per dimension): descent paths diverge on the most
significant bits, so that cheap prefix of the full Morton code already
yields almost all of the locality, and the walk stays correct under any
batch order -- the sort is purely a performance hint.

The object layout has one function per batched operation here: no
per-(k, width) specialization and no instrumented twin.  Counters live
in locals and are published only when :mod:`repro.obs.runtime` is
enabled.  The ``arena_*`` functions are the generic arena engines: the
references for the generated slab kernels of
:mod:`repro.core.specialize`, which they dispatch to, and the path for
k > 32.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, List, Sequence, Tuple

from repro.core.kernel import iter_subtree, range_scan
from repro.core.node import Node
from repro.encoding.lut import spread_table as _spread_table
from repro.obs import probes as _probes
from repro.obs import runtime as _rt

__all__ = ["contains_many", "get_many", "query_many", "z_sort_key"]

_MISSING = object()

Key = Tuple[int, ...]


def z_sort_key(dims: int, width: int) -> Callable[[Sequence[int]], int]:
    """Build the approximate z-order sort key for ``dims``/``width`` keys.

    Interleaves the top (up to) 8 bits of every coordinate via the byte
    spread table of :mod:`repro.encoding.interleave`.  Keys equal under
    this code may sort in any relative order; callers must not rely on
    exact z-order, only on locality.
    """
    table = _spread_table(dims)
    shift = width - 8 if width > 8 else 0
    top = dims - 1

    def zkey(key: Sequence[int]) -> int:
        code = 0
        d = top
        for v in key:
            code |= table[(v >> shift) & 0xFF] << d
            d -= 1
        return code

    return zkey


def _prepare(
    tree: Any, keys: Iterable[Sequence[int]], want_codes: bool
) -> Tuple[List[Key], List[int]]:
    """Validate a batch and (optionally) compute its z-codes, one pass.

    The fast path is a bounds check per key (an OR-accumulator when all
    dimensions share one width); any violation -- including a
    non-integer coordinate, which surfaces as a TypeError from the bit
    operations -- is re-validated through ``tree._check_key`` so the
    error raised is exactly the sequential API's.
    """
    dims = tree._dims
    width = tree._width
    widths = tree._widths
    uniform = widths == (width,) * dims
    table = _spread_table(dims)
    shift = width - 8 if width > 8 else 0
    top = dims - 1
    checked: List[Key] = []
    codes: List[int] = []
    kappend = checked.append
    cappend = codes.append
    key: Any = ()
    try:
        if uniform and want_codes:
            for key in keys:
                if key.__class__ is not tuple:
                    key = tuple(key)
                if len(key) != dims:
                    tree._check_key(key)  # raises the sequential error
                acc = 0
                code = 0
                d = top
                for v in key:
                    acc |= v
                    code |= table[(v >> shift) & 0xFF] << d
                    d -= 1
                if acc < 0 or acc >> width:
                    tree._check_key(key)  # raises the sequential error
                kappend(key)
                cappend(code)
        elif uniform:
            for key in keys:
                if key.__class__ is not tuple:
                    key = tuple(key)
                if len(key) != dims:
                    tree._check_key(key)
                acc = 0
                for v in key:
                    acc |= v
                if acc < 0 or acc >> width:
                    tree._check_key(key)
                kappend(key)
        else:
            zkey = z_sort_key(dims, width) if want_codes else None
            for key in keys:
                if key.__class__ is not tuple:
                    key = tuple(key)
                if len(key) != dims:
                    tree._check_key(key)
                for v, w in zip(key, widths):
                    if v < 0 or v >> w:
                        tree._check_key(key)
                kappend(key)
                if zkey is not None:
                    cappend(zkey(key))
    except TypeError:
        tree._check_key(tuple(key))  # raises the sequential error
        raise  # pragma: no cover - _check_key accepted what we rejected
    return checked, codes


def get_many(
    tree: Any,
    keys: Iterable[Sequence[int]],
    default: Any = None,
    presorted: bool = False,
) -> List[Any]:
    """Batched :meth:`PHTree.get`: one value per key, in input order.

    Missing keys map to ``default``.  Results are identical to
    ``[tree.get(k, default) for k in keys]``; the batch is internally
    z-order-sorted so keys sharing a descent path resolve their common
    nodes once.  Pass ``presorted=True`` when the batch is already in
    (approximate) z-order to skip the internal sort -- any order stays
    correct, sorting is purely a locality hint.

    This is the object layout's only merge-join.  Counters accumulate
    in locals and are published only when observability is enabled:
    ``batch_nodes_visited`` counts *path pushes* (a node shared by
    consecutive keys counts once), so its ratio to
    ``len(batch) * depth`` measures descent sharing.
    """
    checked, codes = _prepare(tree, keys, not presorted)
    n = len(checked)
    obs = _rt.enabled
    if obs:
        _probes.ops_get_many.inc()
        _probes.batch_keys_get.inc(n)
    results = [default] * n
    root = tree._root
    if root is None or n == 0:
        return results
    if presorted:
        order: Iterable[int] = range(n)
    else:
        order = sorted(range(n), key=codes.__getitem__)

    c_nodes = 1  # the root frame
    c_slots = 0
    node_cls = Node
    # The current root-to-leaf path; each frame caches the node's
    # prefix-check operands so ascents touch no attributes.
    path: List[Tuple[Node, int, Key]] = [
        (root, root.post_len + 1, root.prefix)
    ]
    push = path.append
    pop = path.pop
    node, shift, prefix = path[0]
    for i in order:
        key = checked[i]
        # Ascend to the deepest stacked node still containing the key
        # (the root contains every validated key, so this terminates).
        while True:
            matches = True
            for v, pref in zip(key, prefix):
                if (v ^ pref) >> shift:
                    matches = False
                    break
            if matches:
                break
            pop()
            node, shift, prefix = path[-1]
        # Descend the levels the previous key did not already resolve.
        while True:
            c_slots += 1
            post = shift - 1
            a = 0
            for v in key:
                a = (a << 1) | ((v >> post) & 1)
            cont = node.container
            if cont.is_hc:
                slot = cont._slots[a]
            else:
                addrs = cont._addresses
                p = bisect_left(addrs, a)
                slot = (
                    cont._slots[p]
                    if p < len(addrs) and addrs[p] == a
                    else None
                )
            if slot is None:
                break
            if slot.__class__ is node_cls:
                cshift = slot.post_len + 1
                cprefix = slot.prefix
                matches = True
                for v, pref in zip(key, cprefix):
                    if (v ^ pref) >> cshift:
                        matches = False
                        break
                if not matches:
                    break
                node = slot
                shift = cshift
                prefix = cprefix
                push((node, shift, prefix))
                c_nodes += 1
                continue
            if slot.key == key:
                results[i] = slot.value
            break
    if obs:
        _probes.batch_nodes_visited.inc(c_nodes)
        _probes.batch_slots_scanned.inc(c_slots)
    return results


def contains_many(
    tree: Any, keys: Iterable[Sequence[int]]
) -> List[bool]:
    """Batched :meth:`PHTree.contains`: one bool per key, in input
    order."""
    missing = _MISSING
    return [v is not missing for v in get_many(tree, keys, missing)]


#: Below this many boxes the batched shared walk loses to simply
#: running the per-box window kernel back to back: the walk's per-node
#: bookkeeping (per-box mask lists, the active-set narrowing) only
#: amortises once enough boxes share paths.  Measured at the bench
#: shape (dims=3, width=20, 10k keys, 200 boxes) the shared walk ran at
#: ~0.87x the generated arena kernel and ~0.85x the object layout's
#: :func:`~repro.core.kernel.range_scan`; the cutover keeps small
#: batches on the sequential path.  Instrumented runs always take the
#: shared walk so the query_many counters stay meaningful.
QUERY_MANY_SEQ_CUTOVER = 512


def query_many(
    tree: Any,
    boxes: Iterable[Tuple[Sequence[int], Sequence[int]]],
    use_masks: bool = True,
) -> List[List[Tuple[Key, Any]]]:
    """Batched :meth:`PHTree.query`: one result list per box, in input
    order.

    Each result list is exactly ``list(tree.query(lo, hi))`` -- same
    entries, same (z-)order.  Small batches (up to
    :data:`QUERY_MANY_SEQ_CUTOVER` boxes) run the window kernel
    sequentially per box; larger batches walk the tree once for
    the whole batch, with the set of still-active boxes narrowing on
    the way down.  ``use_masks`` exists for API symmetry with
    ``query``; both batched paths always use masks (results are
    order-identical either way up to the naive engine's unordered
    output).
    """
    checked: List[Tuple[Key, Key]] = []
    for lo, hi in boxes:
        checked.append((tree._check_key(lo), tree._check_key(hi)))
    if _rt.enabled:
        _probes.ops_query_many.inc()
        _probes.batch_keys_query.inc(len(checked))
    elif len(checked) <= QUERY_MANY_SEQ_CUTOVER:
        root = tree._root
        if root is None:
            return [[] for _ in checked]
        out: List[List[Tuple[Key, Any]]] = []
        for lo, hi in checked:
            for lo_v, hi_v in zip(lo, hi):
                if lo_v > hi_v:
                    out.append([])
                    break
            else:
                out.append(list(range_scan(root, lo, hi)))
        return out
    results: List[List[Tuple[Key, Any]]] = [[] for _ in checked]
    root = tree._root
    if root is None:
        return results
    active: List[int] = []
    for b, (lo, hi) in enumerate(checked):
        for lo_v, hi_v in zip(lo, hi):
            if lo_v > hi_v:
                break
        else:
            active.append(b)
    if active:
        # Every non-empty box intersects the root (coordinates are
        # validated into the root's region by _check_key).
        _query_node(root, active, checked, results, (1 << tree._dims) - 1)
    return results


def _query_node(
    node: Node,
    active: List[int],
    checked: List[Tuple[Key, Key]],
    results: List[List[Tuple[Key, Any]]],
    full: int,
) -> None:
    """Visit ``node`` for every box in ``active`` (all of which intersect
    the node's region), appending matches per box in z-order.

    Recursion depth is bounded by the tree depth (<= w <= 64)."""
    post = node.post_len
    free = (1 << (post + 1)) - 1
    prefix = node.prefix
    node_cls = Node
    # Per-active-box masks, and their union as the slot iteration window.
    mls: List[int] = []
    mhs: List[int] = []
    union_ml = full
    union_mh = 0
    for b in active:
        box_lo, box_hi = checked[b]
        ml = mh = 0
        for nlo, lo, hi in zip(prefix, box_lo, box_hi):
            nhi = nlo | free
            if lo < nlo:
                lo = nlo
            if hi > nhi:
                hi = nhi
            ml = (ml << 1) | ((lo >> post) & 1)
            mh = (mh << 1) | ((hi >> post) & 1)
        mls.append(ml)
        mhs.append(mh)
        union_ml &= ml
        union_mh |= mh
    if union_ml == 0 and union_mh == full:
        items = node.container.items()
    else:
        items = node.container.items_in_mask_range(union_ml, union_mh)
    if _rt.enabled:
        items = list(items)
        _probes.qmany_nodes_visited.inc()
        _probes.qmany_slots_scanned.inc(len(items))
    for a, slot in items:
        if slot.__class__ is node_cls:
            cpost = slot.post_len
            cfree = (1 << (cpost + 1)) - 1
            cprefix = slot.prefix
            descend: List[int] = []
            flush: List[int] = []
            for idx, b in enumerate(active):
                ml = mls[idx]
                mh = mhs[idx]
                if (a | ml) != a or (a & mh) != a:
                    continue
                box_lo, box_hi = checked[b]
                inside = True
                for nlo, lo, hi in zip(cprefix, box_lo, box_hi):
                    nhi = nlo | cfree
                    if hi < nlo or lo > nhi:
                        break
                    if nlo < lo or nhi > hi:
                        inside = False
                else:
                    (flush if inside else descend).append(b)
            if descend:
                # Covered boxes ride along: every entry below passes
                # their containment check anyway, and a single descent
                # keeps all result lists in z-order.
                _query_node(
                    slot, flush + descend if flush else descend,
                    checked, results, full,
                )
            elif flush:
                # All interested boxes fully cover the child: flush the
                # subtree once, unchecked.
                for pair in iter_subtree(slot):
                    for b in flush:
                        results[b].append(pair)
        else:
            key = slot.key
            pair = None
            for idx, b in enumerate(active):
                ml = mls[idx]
                mh = mhs[idx]
                if (a | ml) != a or (a & mh) != a:
                    continue
                box_lo, box_hi = checked[b]
                for v, lo, hi in zip(key, box_lo, box_hi):
                    if v < lo or v > hi:
                        break
                else:
                    if pair is None:
                        pair = (key, slot.value)
                    results[b].append(pair)


def arena_get_many(
    tree: Any,
    keys: Iterable[Sequence[int]],
    default: Any = None,
    presorted: bool = False,
) -> List[Any]:
    """Arena twin of :func:`get_many`: the same z-sorted merge-join,
    with path frames holding ``(offset, shift)`` and prefix checks
    reading slab words in place (no per-frame prefix tuple).  Trees
    with a specialization dispatch to its plan-cached slab kernel
    (plain or instrumented twin per the observability switch)."""
    spec = tree._spec
    if spec is not None:
        if _rt.enabled:
            return spec.arena_get_many_instrumented(
                tree, keys, default, presorted
            )
        return spec.arena_get_many_plain(tree, keys, default, presorted)
    checked, codes = _prepare(tree, keys, not presorted)
    n = len(checked)
    obs = _rt.enabled
    if obs:
        _probes.ops_get_many.inc()
        _probes.batch_keys_get.inc(n)
    results = [default] * n
    root = tree._root_off
    if not root or n == 0:
        return results
    if presorted:
        order: Iterable[int] = range(n)
    else:
        order = sorted(range(n), key=codes.__getitem__)

    arena = tree._arena
    words = arena.words
    entries = arena.entries
    values = arena.values
    k = arena.k
    c_nodes = 1  # the root frame
    c_slots = 0
    path: List[Tuple[int, int]] = [(root, (words[root] & 63) + 1)]
    push = path.append
    pop = path.pop
    off, shift = path[0]
    for i in order:
        key = checked[i]
        # Ascend to the deepest stacked node still containing the key
        # (the root contains every validated key, so this terminates).
        while True:
            matches = True
            d = off + 2
            for v in key:
                if (v ^ words[d]) >> shift:
                    matches = False
                    break
                d += 1
            if matches:
                break
            pop()
            off, shift = path[-1]
        # Descend the levels the previous key did not already resolve.
        while True:
            c_slots += 1
            post = shift - 1
            a = 0
            for v in key:
                a = (a << 1) | ((v >> post) & 1)
            h = words[off]
            if h & 4096:
                ref = words[off + 2 + k + a]
            else:
                base = off + 2 + k
                end = base + (1 << ((h >> 13) & 63))
                pos = bisect_left(words, a, base, end)
                if pos < end and words[pos] == a:
                    ref = words[pos + end - base]
                else:
                    ref = 0
            if not ref:
                break
            if ref & 1:
                child = ref >> 1
                cshift = (words[child] & 63) + 1
                matches = True
                d = child + 2
                for v in key:
                    if (v ^ words[d]) >> cshift:
                        matches = False
                        break
                    d += 1
                if not matches:
                    break
                off = child
                shift = cshift
                push((off, shift))
                c_nodes += 1
                continue
            e = ref >> 1
            same = True
            d = e
            for v in key:
                if entries[d] != v:
                    same = False
                    break
                d += 1
            if same:
                vref = entries[e + k]
                results[i] = values[vref]
            break
    if obs:
        _probes.batch_nodes_visited.inc(c_nodes)
        _probes.batch_slots_scanned.inc(c_slots)
    return results


def arena_contains_many(
    tree: Any, keys: Iterable[Sequence[int]]
) -> List[bool]:
    """Arena twin of :func:`contains_many`."""
    missing = _MISSING
    return [
        v is not missing for v in arena_get_many(tree, keys, missing)
    ]


def arena_query_many(
    tree: Any,
    boxes: Iterable[Tuple[Sequence[int], Sequence[int]]],
    use_masks: bool = True,
) -> List[List[Tuple[Key, Any]]]:
    """Arena :func:`query_many`: the same single shared walk over the
    whole batch (active boxes narrowing on the way down, covered boxes
    flushed unchecked), reading slab records instead of node objects.
    Result lists are exactly ``list(tree.query(lo, hi))`` per box, in
    input order."""
    checked: List[Tuple[Key, Key]] = []
    for lo, hi in boxes:
        checked.append((tree._check_key(lo), tree._check_key(hi)))
    if _rt.enabled:
        _probes.ops_query_many.inc()
        _probes.batch_keys_query.inc(len(checked))
    else:
        spec = tree._spec
        if spec is not None and len(checked) <= QUERY_MANY_SEQ_CUTOVER:
            if not tree._root_off:
                return [[] for _ in checked]
            scan = spec.arena_range_scan_plain
            out: List[List[Tuple[Key, Any]]] = []
            for lo, hi in checked:
                for lo_v, hi_v in zip(lo, hi):
                    if lo_v > hi_v:
                        out.append([])
                        break
                else:
                    out.append(list(scan(tree, lo, hi)))
            return out
    results: List[List[Tuple[Key, Any]]] = [[] for _ in checked]
    root = tree._root_off
    if not root:
        return results
    active: List[int] = []
    for b, (lo, hi) in enumerate(checked):
        for lo_v, hi_v in zip(lo, hi):
            if lo_v > hi_v:
                break
        else:
            active.append(b)
    if active:
        _arena_query_node(
            tree._arena, root, active, checked, results,
            (1 << tree._dims) - 1,
        )
    return results


def _arena_query_node(
    arena: Any,
    off: int,
    active: List[int],
    checked: List[Tuple[Key, Key]],
    results: List[List[Tuple[Key, Any]]],
    full: int,
) -> None:
    """Arena twin of :func:`_query_node`: visit the node record at
    ``off`` for every box in ``active`` (all intersect its region).

    Recursion depth is bounded by the tree depth (<= w <= 64)."""
    from repro.core.kernel import iter_arena_subtree

    words = arena.words
    entries = arena.entries
    k = arena.k
    h = words[off]
    post = h & 63
    free = (1 << (post + 1)) - 1
    # Per-active-box masks, and their union as the slot iteration window.
    mls: List[int] = []
    mhs: List[int] = []
    union_ml = full
    union_mh = 0
    for b in active:
        box_lo, box_hi = checked[b]
        ml = mh = 0
        d = off + 2
        for lo, hi in zip(box_lo, box_hi):
            nlo = words[d]
            d += 1
            nhi = nlo | free
            if lo < nlo:
                lo = nlo
            if hi > nhi:
                hi = nhi
            ml = (ml << 1) | ((lo >> post) & 1)
            mh = (mh << 1) | ((hi >> post) & 1)
        mls.append(ml)
        mhs.append(mh)
        union_ml &= ml
        union_mh |= mh
    base = off + 2 + k
    items: List[Tuple[int, int]] = []
    if h & 4096:
        if union_ml == 0 and union_mh == full:
            for a in range(1 << k):
                ref = words[base + a]
                if ref:
                    items.append((a, ref))
        else:
            a = union_ml
            while True:
                ref = words[base + a]
                if ref:
                    items.append((a, ref))
                if a >= union_mh:
                    break
                a = (((a | ~union_mh) + 1) & union_mh) | union_ml
    else:
        c = words[off + 1]
        n = (c & 2097151) + ((c >> 21) & 2097151)
        cap = 1 << ((h >> 13) & 63)
        if union_ml == 0 and union_mh == full:
            for i in range(base, base + n):
                items.append((words[i], words[i + cap]))
        else:
            for i in range(base, base + n):
                a = words[i]
                if (a | union_ml) == a and (a & union_mh) == a:
                    items.append((a, words[i + cap]))
    if _rt.enabled:
        _probes.qmany_nodes_visited.inc()
        _probes.qmany_slots_scanned.inc(len(items))
    for a, ref in items:
        if ref & 1:
            child = ref >> 1
            cpost = words[child] & 63
            cfree = (1 << (cpost + 1)) - 1
            descend: List[int] = []
            flush: List[int] = []
            for idx, b in enumerate(active):
                ml = mls[idx]
                mh = mhs[idx]
                if (a | ml) != a or (a & mh) != a:
                    continue
                box_lo, box_hi = checked[b]
                inside = True
                d = child + 2
                for lo, hi in zip(box_lo, box_hi):
                    nlo = words[d]
                    d += 1
                    nhi = nlo | cfree
                    if hi < nlo or lo > nhi:
                        break
                    if nlo < lo or nhi > hi:
                        inside = False
                else:
                    (flush if inside else descend).append(b)
            if descend:
                # Covered boxes ride along: every entry below passes
                # their containment check anyway, and a single descent
                # keeps all result lists in z-order.
                _arena_query_node(
                    arena, child,
                    flush + descend if flush else descend,
                    checked, results, full,
                )
            elif flush:
                # All interested boxes fully cover the child: flush the
                # subtree once, unchecked.
                for pair in iter_arena_subtree(arena, child):
                    for b in flush:
                        results[b].append(pair)
        else:
            e = ref >> 1
            pair = None
            for idx, b in enumerate(active):
                ml = mls[idx]
                mh = mhs[idx]
                if (a | ml) != a or (a & mh) != a:
                    continue
                box_lo, box_hi = checked[b]
                d = e
                for lo, hi in zip(box_lo, box_hi):
                    v = entries[d]
                    if v < lo or v > hi:
                        break
                    d += 1
                else:
                    if pair is None:
                        vref = entries[e + k]
                        pair = (
                            tuple(entries[e : e + k]),
                            arena.values[vref],
                        )
                    results[b].append(pair)
