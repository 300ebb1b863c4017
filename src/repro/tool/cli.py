"""Command-line interface of the CSV indexing tool."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core import collect_stats
from repro.core.phtree import PHTree
from repro.encoding.ieee import decode_point, encode_point
from repro.obs.log import configure_logging, get_logger
from repro.tool.storage import IndexFile, load_index, save_index

__all__ = ["main"]

_log = get_logger("tool")

#: Full inclusive domain of one encoded (u64) coordinate.
_U64_MAX = (1 << 64) - 1


def _parse_point(text: str, dims: int) -> Tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dims:
        raise ValueError(
            f"point {text!r} has {len(parts)} coordinates, index has "
            f"{dims}"
        )
    return tuple(float(p) for p in parts)


def _parse_box(
    text: str, dims: int
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    if ":" not in text:
        raise ValueError(
            "box must be 'x1,y1,... : x2,y2,...' (two corners)"
        )
    low_text, high_text = text.split(":", 1)
    low = _parse_point(low_text, dims)
    high = _parse_point(high_text, dims)
    return (
        tuple(min(a, b) for a, b in zip(low, high)),
        tuple(max(a, b) for a, b in zip(low, high)),
    )


def cmd_build(args: argparse.Namespace) -> int:
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if len(columns) < 1:
        print("error: need at least one column", file=sys.stderr)
        return 2
    source = Path(args.csv)
    tree = PHTree(dims=len(columns), width=64)
    n_rows = 0
    n_duplicates = 0
    started = time.perf_counter()
    with source.open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [
            c for c in columns if c not in (reader.fieldnames or [])
        ]
        if missing:
            print(
                f"error: column(s) {missing} not in CSV header "
                f"{reader.fieldnames}",
                file=sys.stderr,
            )
            return 2
        for row_number, row in enumerate(reader, start=1):
            try:
                point = tuple(float(row[c]) for c in columns)
            except ValueError:
                print(
                    f"warning: skipping row {row_number}: non-numeric "
                    f"value",
                    file=sys.stderr,
                )
                continue
            n_rows += 1
            if tree.put(encode_point(point), row_number) is not None:
                n_duplicates += 1
    elapsed = time.perf_counter() - started
    index = IndexFile(
        tree=tree,
        columns=columns,
        source=str(source),
        n_rows=n_rows,
        n_duplicates=n_duplicates,
    )
    size = save_index(index, Path(args.out))
    print(
        f"indexed {len(tree)} unique points "
        f"({n_duplicates} duplicate positions) from {n_rows} rows "
        f"in {elapsed:.2f}s"
    )
    print(f"wrote {args.out} ({size} bytes, "
          f"{size / max(1, len(tree)):.1f} B/point)")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    index = load_index(Path(args.index))
    box_min, box_max = _parse_box(args.box, index.dims)
    lo, hi = encode_point(box_min), encode_point(box_max)
    if args.learned:
        if args.shards > 1:
            print(
                "error: --learned serves from one frozen snapshot; "
                "drop --shards",
                file=sys.stderr,
            )
            return 2
        return _query_learned(args, index, lo, hi)
    if args.explain and args.shards > 1:
        # Request-scoped span waterfall across the shards:
        # router -> per-shard lock wait -> scan -> merge.
        from repro.obs import span as span_mod
        from repro.parallel import ShardedPHTree

        with ShardedPHTree.build(
            list(index.tree.items()),
            dims=index.dims,
            width=64,
            shards=args.shards,
        ) as sharded:
            with span_mod.start_trace() as trace:
                results = sharded.query(lo, hi)
        print(trace.render())
        print(f"{len(results)} point(s) in box", file=sys.stderr)
        return 0
    if args.explain:
        # Per-node trace of the single-tree window traversal: the
        # trace explains the kernel's decisions, which are per-tree.
        from repro import obs

        trace = obs.explain_query(index.tree, lo, hi)
        print(trace.render())
        print(
            f"{len(trace.results)} point(s) in box", file=sys.stderr
        )
        return 0
    if args.shards > 1:
        # Answer the window from a z-sharded copy of the index.
        from repro.parallel import ShardedPHTree

        with ShardedPHTree.build(
            list(index.tree.items()),
            dims=index.dims,
            width=64,
            shards=args.shards,
        ) as sharded:
            results = sharded.query(lo, hi)
    else:
        results = list(index.tree.query(lo, hi))
    header = ",".join(index.columns) + ",row"
    print(header)
    for encoded, row_number in results[: args.limit]:
        point = decode_point(encoded)
        print(",".join(f"{v:.10g}" for v in point) + f",{row_number}")
    if len(results) > args.limit:
        print(
            f"... {len(results) - args.limit} more "
            f"(raise --limit to see them)",
            file=sys.stderr,
        )
    print(f"{len(results)} point(s) in box", file=sys.stderr)
    return 0


def _query_learned(
    args: argparse.Namespace, index: IndexFile, lo, hi
) -> int:
    """Serve the window from a learned-frozen snapshot of the index.

    With ``--explain`` the row output is replaced by a model report:
    the fitted segmentation, which reads the model served, the
    prediction error it paid, and every fallback to the exact engine
    -- read straight from the ``repro_learned_*`` probes."""
    from repro import obs
    from repro.core.frozen import FrozenPHTree, freeze
    from repro.core.serialize import U64ValueCodec
    from repro.obs import probes as probes_mod

    started = time.perf_counter()
    frozen = FrozenPHTree(
        freeze(index.tree, U64ValueCodec, learned=True), U64ValueCodec
    )
    fit_elapsed = time.perf_counter() - started
    model = frozen.learned_index
    if model is None:
        print("error: index is empty; nothing to fit", file=sys.stderr)
        return 2
    if args.explain:
        obs.reset_all()
        obs.enable()
        try:
            results = list(frozen.query(lo, hi))
        finally:
            obs.disable()
        stats = model.stats()
        print(
            f"learned model: {stats['entries']} entries in "
            f"{stats['segments']} segment(s), eps {stats['eps']}, "
            f"max measured error {stats['max_measured_err']}, "
            f"{stats['dead_segments']} dead segment(s), "
            f"{stats['trailer_bytes']} trailer bytes "
            f"(fit+freeze {fit_elapsed:.3f}s)"
        )
        served = probes_mod.learned_lookups_window.value
        fallbacks = probes_mod.learned_fallbacks_window.value
        consulted = probes_mod.learned_segments_consulted.value
        error_sum = probes_mod.learned_prediction_error.value
        print(
            f"window probes: {served} model-served, "
            f"{fallbacks} fell back to the exact walk"
        )
        mean_err = error_sum / served if served else 0.0
        print(
            f"segments consulted: {consulted}, prediction error: "
            f"{error_sum} rank(s) total ({mean_err:.2f} mean)"
        )
        print(f"{len(results)} point(s) in box", file=sys.stderr)
        return 0
    results = list(frozen.query(lo, hi))
    header = ",".join(index.columns) + ",row"
    print(header)
    for encoded, row_number in results[: args.limit]:
        point = decode_point(encoded)
        print(",".join(f"{v:.10g}" for v in point) + f",{row_number}")
    if len(results) > args.limit:
        print(
            f"... {len(results) - args.limit} more "
            f"(raise --limit to see them)",
            file=sys.stderr,
        )
    print(f"{len(results)} point(s) in box", file=sys.stderr)
    return 0


def cmd_knn(args: argparse.Namespace) -> int:
    index = load_index(Path(args.index))
    query = _parse_point(args.point, index.dims)
    if args.explain:
        # Trace the best-first search over the stored (encoded integer)
        # keys; reported distances are in encoded key space.
        from repro import obs

        trace = obs.explain_knn(
            index.tree, encode_point(query), n=args.n
        )
        print(trace.render())
        return 0
    # kNN in float space via the float facade over the restored tree.
    from repro.core.phtree_float import PHTreeF

    facade = PHTreeF.from_int_tree(index.tree)
    results = facade.knn(query, args.n)
    print(",".join(index.columns) + ",row,distance")
    for point, row_number in results:
        distance = sum(
            (a - b) ** 2 for a, b in zip(point, query)
        ) ** 0.5
        print(
            ",".join(f"{v:.10g}" for v in point)
            + f",{row_number},{distance:.6g}"
        )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Dump the whole index back out as CSV (z-order)."""
    index = load_index(Path(args.index))
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write(",".join(index.columns) + ",row\n")
        count = 0
        for encoded, row_number in index.tree.items():
            point = decode_point(encoded)
            out.write(
                ",".join(f"{v:.17g}" for v in point) + f",{row_number}\n"
            )
            count += 1
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"exported {count} point(s)", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    index = load_index(Path(args.index))
    stats = collect_stats(index.tree, value_bits=64)
    print(f"source:            {index.source}")
    print(f"columns:           {', '.join(index.columns)}")
    print(f"rows read:         {index.n_rows}")
    print(f"unique points:     {len(index.tree)}")
    print(f"duplicate updates: {index.n_duplicates}")
    print(f"nodes:             {stats.n_nodes}")
    print(f"entry/node ratio:  {stats.entry_to_node_ratio:.2f}")
    print(f"HC / LHC nodes:    {stats.n_hc_nodes} / {stats.n_lhc_nodes}")
    print(f"max depth:         {stats.max_depth} (bound: 64)")
    print(
        f"serialised:        {stats.total_serialized_bytes} bytes "
        f"({stats.serialized_bytes_per_entry:.1f}/point incl. row ids)"
    )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Drive a demonstration workload with instrumentation enabled and
    print the resulting registry (Prometheus text or JSON).

    With ``--shards`` the workload runs against a z-sharded copy of
    the index -- writes, point reads, window and kNN reads -- so the
    per-shard op counts and lock-wait times move.  Without it the
    workload exercises the single-tree read paths.
    """
    from repro import obs

    index = load_index(Path(args.index))
    dims = index.dims
    sample = [key for key, _ in zip(index.tree.keys(), range(16))]
    domain_lo = (0,) * dims
    domain_hi = (_U64_MAX,) * dims
    # Full telemetry clear (registry + heat map + flight recorder +
    # plan-cache counts): repeated in-process invocations must print
    # the same workload picture, and the collector-backed gauges
    # publish absolute values from those sources.
    obs.reset_all()
    obs.enable()
    try:
        if args.shards > 1:
            from repro.parallel import ShardedPHTree

            _log.info("driving sharded workload (%d shards)", args.shards)
            with ShardedPHTree.build(
                list(index.tree.items()),
                dims=dims,
                width=64,
                shards=args.shards,
            ) as sharded:
                sharded.query(domain_lo, domain_hi)
                for key in sample:
                    sharded.put(key, sharded.get(key))
                sharded.get_many(sample)
                sharded.query_many(
                    [(domain_lo, domain_hi), (domain_lo, domain_lo)]
                )
                if sample:
                    sharded.knn(sample[0], min(4, len(sharded)))
        else:
            _log.info("driving single-tree workload")
            tree = index.tree
            for key in sample:
                tree.contains(key)
            tree.get_many(sample)
            list(tree.query(domain_lo, domain_hi))
            if sample:
                tree.knn(sample[0], min(4, len(tree)))
    finally:
        obs.disable()
    if args.format == "json":
        print(json.dumps(obs.dump_json(), indent=2, sort_keys=True))
    else:
        print(obs.render_prometheus(), end="")
    if args.reset:
        obs.reset_all()
    return 0


def cmd_heat(args: argparse.Namespace) -> int:
    """Drive a read workload sampled from the index's own key
    distribution and print the z-region heat map: where in key space
    the data (and therefore the load) concentrates.

    Every sampled key is probed with a point read, and a window probe
    is fired around a spread of anchors, so the heat buckets carry
    both op counts and scan-latency EWMAs."""
    from repro import obs
    from repro.obs import heat as heat_mod

    index = load_index(Path(args.index))
    tree = index.tree
    keys = [key for key, _ in tree.items()]
    heat_mod.set_levels(args.levels)  # also drops stale buckets
    step = max(1, len(keys) // max(1, args.ops))
    sample = keys[::step][: args.ops]
    anchors = sample[:: max(1, len(sample) // 32)][:32]
    pad = 1 << 44  # a few float ulps wide at 64-bit key width
    obs.enable()
    try:
        for key in sample:
            tree.contains(key)
        for anchor in anchors:
            lo = tuple(max(0, a - pad) for a in anchor)
            hi = tuple(min(_U64_MAX, a + pad) for a in anchor)
            list(tree.query(lo, hi))
    finally:
        obs.disable()
    if args.json:
        print(
            json.dumps(
                heat_mod.snapshot(args.top), indent=2, sort_keys=True
            )
        )
    else:
        print(heat_mod.render(args.top), end="")
        print(
            f"probed {len(sample)} key(s), {len(anchors)} window(s)",
            file=sys.stderr,
        )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Operate a durable WAL+segment store directory: ingest CSV rows,
    compact the segment chain, query windows, report stats.

    The store survives ``kill -9`` at any byte: every mutation is WAL-
    durable when it returns, and reopening the directory recovers the
    committed segments plus the WAL tail."""
    from repro.core.serialize import U64ValueCodec
    from repro.store import DurablePHTree, StoreError
    from repro.store.manifest import load_manifest

    dims = None
    columns: List[str] = []
    if args.ingest is not None:
        if not args.columns:
            print(
                "error: --ingest needs --columns", file=sys.stderr
            )
            return 2
        columns = [
            c.strip() for c in args.columns.split(",") if c.strip()
        ]
        dims = len(columns)
    if args.ingest is None and not (
        args.compact or args.query or args.stats
    ):
        print(
            "error: nothing to do; pass --ingest CSV, --compact, "
            "--query BOX and/or --stats",
            file=sys.stderr,
        )
        return 2
    try:
        # A store this verb creates maps points to CSV row numbers; an
        # existing store keeps the value codec its manifest names.
        creating = load_manifest(args.dir) is None
        store = DurablePHTree.open(
            args.dir,
            dims=dims,
            width=64,
            shards=args.shards,
            value_codec=U64ValueCodec if creating else None,
            learned=args.learned,
        )
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        info = store.recovery_info
        if not info.get("created"):
            _log.info(
                "recovered %d segment(s), replayed %d WAL record(s), "
                "discarded %d torn byte(s)",
                info.get("segments", 0),
                info.get("replayed", 0),
                info.get("torn_bytes", 0),
            )
        if args.ingest is not None:
            code = _store_ingest(args, store, columns)
            if code:
                return code
        if args.compact:
            started = time.perf_counter()
            merged = store.compact()
            print(
                f"compacted chain into {merged} segment(s) in "
                f"{time.perf_counter() - started:.2f}s"
            )
        if args.query is not None:
            box_min, box_max = _parse_box(args.query, store.dims)
            lo, hi = encode_point(box_min), encode_point(box_max)
            results = store.query(lo, hi)
            print("point,row" if not columns else
                  ",".join(columns) + ",row")
            for encoded, row_number in results[: args.limit]:
                point = decode_point(encoded)
                print(
                    ",".join(f"{v:.10g}" for v in point)
                    + f",{row_number}"
                )
            if len(results) > args.limit:
                print(
                    f"... {len(results) - args.limit} more "
                    f"(raise --limit to see them)",
                    file=sys.stderr,
                )
            print(f"{len(results)} point(s) in box", file=sys.stderr)
        if args.stats:
            stats = store.stats()
            print(f"path:           {stats['path']}")
            print(f"dims/width:     {stats['dims']}/{stats['width']}")
            print(
                f"shards:         {stats['shards']}"
                f"{' (learned segments)' if stats['learned'] else ''}"
            )
            print(f"entries:        {stats['entries']}")
            print(f"generation:     {stats['generation']}")
            print(
                f"segments:       {stats['segments']} "
                f"({stats['segment_bytes']} bytes)"
            )
            print(
                f"wal:            {stats['wal_bytes']} bytes, "
                f"seq {stats['wal_seq']}"
            )
            print(
                f"pending:        {stats['pending_puts']} put(s), "
                f"{stats['pending_dels']} delete(s)"
            )
            recovery = stats["recovery"]
            if recovery.get("created"):
                last_open = "created fresh"
            else:
                last_open = (
                    f"replayed {recovery.get('replayed', 0)} WAL "
                    f"record(s), {recovery.get('torn_bytes', 0)} torn "
                    f"byte(s) discarded"
                )
            print(f"last open:      {last_open}")
    finally:
        store.close()
    return 0


def _store_ingest(
    args: argparse.Namespace, store: "Any", columns: List[str]
) -> int:
    """Bulk-load CSV rows into the store: group-committed WAL batches,
    then a checkpoint so reopening needs no replay."""
    source = Path(args.ingest)
    batch: List[Tuple[Tuple[int, ...], int]] = []
    n_rows = 0
    started = time.perf_counter()
    with source.open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [
            c for c in columns if c not in (reader.fieldnames or [])
        ]
        if missing:
            print(
                f"error: column(s) {missing} not in CSV header "
                f"{reader.fieldnames}",
                file=sys.stderr,
            )
            return 2
        for row_number, row in enumerate(reader, start=1):
            try:
                point = tuple(float(row[c]) for c in columns)
            except ValueError:
                print(
                    f"warning: skipping row {row_number}: "
                    f"non-numeric value",
                    file=sys.stderr,
                )
                continue
            batch.append((encode_point(point), row_number))
            n_rows += 1
            if len(batch) >= 1024:
                store.put_all(batch)
                batch.clear()
    if batch:
        store.put_all(batch)
    segments = store.checkpoint()
    print(
        f"ingested {n_rows} row(s) ({len(store)} live) into "
        f"{segments} segment(s) in "
        f"{time.perf_counter() - started:.2f}s"
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the correctness harness: validate a saved index, fuzz the
    engines against the reference model, and/or drill the lock and
    durable-store fault handling.  Returns 0 only if every requested stage
    passes."""
    from repro.check import FuzzConfig, FuzzFailure, run_fuzz, validate_tree

    ran_anything = False
    failed = False
    if args.validate is not None:
        ran_anything = True
        index = load_index(Path(args.validate))
        report = validate_tree(index.tree)
        print(f"validate: {args.validate}: OK ({report})")
    if args.fuzz:
        ran_anything = True
        dims_list = [int(d) for d in str(args.dims).split(",") if d]
        for dims in dims_list:
            config = FuzzConfig(
                dims=dims,
                width=args.width,
                ops=args.ops,
                seed=args.seed,
                distribution=args.distribution,
                learned=args.learned,
                durable=args.durable,
            )
            started = time.perf_counter()
            try:
                report = run_fuzz(config)
            except FuzzFailure as failure:
                failed = True
                print(
                    f"fuzz: dims={dims} FAILED -- {failure}",
                    file=sys.stderr,
                )
                print(failure.repro(), file=sys.stderr)
                continue
            elapsed = time.perf_counter() - started
            learned_tag = " learned" if args.learned else ""
            durable_tag = " durable" if args.durable else ""
            print(
                f"fuzz: dims={dims} width={args.width} "
                f"seed={args.seed} "
                f"distribution={args.distribution}{learned_tag}"
                f"{durable_tag}: "
                f"{report.ops_run} ops, "
                f"{report.validations} validations, final size "
                f"{report.final_size}, {elapsed:.1f}s: OK"
            )
    if args.faults or args.fault_kinds:
        ran_anything = True
        from repro.check.faults import run_fault_drill

        from repro.obs import recorder as recorder_mod

        kinds = (
            [k.strip() for k in args.fault_kinds.split(",") if k.strip()]
            if args.fault_kinds
            else None
        )
        for outcome in run_fault_drill(kinds=kinds):
            status = "PASS" if outcome.passed else "FAIL"
            print(f"faults: {status} {outcome.fault}: {outcome.detail}")
            if not outcome.passed:
                failed = True
                print(
                    recorder_mod.render_events(outcome.events),
                    end="",
                    file=sys.stderr,
                )
    if not ran_anything:
        print(
            "error: nothing to do; pass --validate INDEX, --fuzz "
            "and/or --faults (optionally --fault-kinds)",
            file=sys.stderr,
        )
        return 2
    return 1 if failed else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tool",
        description=(
            "Index CSV point data with a PH-tree.  Mutable trees use "
            "the packed-slab arena layout by default; set "
            "REPRO_PHTREE_LAYOUT=object to fall back to the object "
            "engine."
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v: lifecycle INFO; -vv: per-shard DEBUG (stderr)",
    )
    # The same flag is accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a count already parsed before it.
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build", help="index a CSV file", parents=[verbosity]
    )
    build.add_argument("csv", help="source CSV (with a header row)")
    build.add_argument(
        "--columns",
        "-c",
        required=True,
        help="comma-separated numeric column names to index",
    )
    build.add_argument(
        "--out", "-o", required=True, help="index file to write"
    )
    build.set_defaults(func=cmd_build)

    query = sub.add_parser(
        "query", help="window query", parents=[verbosity]
    )
    query.add_argument("index", help="index file")
    query.add_argument(
        "--box",
        "-b",
        required=True,
        help="inclusive box 'x1,y1 : x2,y2'",
    )
    query.add_argument("--limit", "-l", type=int, default=20)
    query.add_argument(
        "--shards",
        type=int,
        default=1,
        help="answer the query from this many z-order shards "
        "(power of two; default: %(default)s, serial)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print a per-node trace of the window traversal instead "
        "of the matching rows",
    )
    query.add_argument(
        "--learned",
        action="store_true",
        help="serve the window from a learned-frozen snapshot "
        "(model-seeded rank scan); with --explain, report the model's "
        "segmentation, prediction error and fallback counts instead "
        "of rows",
    )
    query.set_defaults(func=cmd_query)

    knn = sub.add_parser(
        "knn", help="k nearest neighbours", parents=[verbosity]
    )
    knn.add_argument("index", help="index file")
    knn.add_argument("--point", "-p", required=True, help="'x,y,...'")
    knn.add_argument("-n", type=int, default=1)
    knn.add_argument(
        "--explain",
        action="store_true",
        help="print a trace of the best-first search (encoded key "
        "space) instead of the neighbours",
    )
    knn.set_defaults(func=cmd_knn)

    stats = sub.add_parser(
        "stats", help="index structure report", parents=[verbosity]
    )
    stats.add_argument("index", help="index file")
    stats.set_defaults(func=cmd_stats)

    export = sub.add_parser(
        "export",
        help="dump the index content as CSV (z-order)",
        parents=[verbosity],
    )
    export.add_argument("index", help="index file")
    export.add_argument(
        "--out", "-o", default=None, help="output CSV (default: stdout)"
    )
    export.set_defaults(func=cmd_export)

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented workload and print the metrics "
        "registry",
        parents=[verbosity],
    )
    metrics.add_argument("index", help="index file")
    metrics.add_argument(
        "--shards",
        type=int,
        default=1,
        help="drive the workload through this many z-order shards "
        "(power of two; default: %(default)s, single tree)",
    )
    metrics.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="exposition format (default: %(default)s)",
    )
    metrics.add_argument(
        "--reset",
        action="store_true",
        help="clear all telemetry (registry, heat map, flight "
        "recorder, plan-cache counts) after printing",
    )
    metrics.set_defaults(func=cmd_metrics)

    heat = sub.add_parser(
        "heat",
        help="drive a sampled read workload and print the z-region "
        "heat map",
        parents=[verbosity],
    )
    heat.add_argument("index", help="index file")
    heat.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many of the hottest regions to print "
        "(default: %(default)s)",
    )
    heat.add_argument(
        "--levels",
        type=int,
        default=4,
        help="z-prefix depth in bits per dimension "
        "(default: %(default)s)",
    )
    heat.add_argument(
        "--ops",
        type=int,
        default=4096,
        help="point-read probes to sample from the index "
        "(default: %(default)s)",
    )
    heat.add_argument(
        "--json",
        action="store_true",
        help="print the heat snapshot as JSON instead of a histogram",
    )
    heat.set_defaults(func=cmd_heat)

    check = sub.add_parser(
        "check",
        help="correctness harness: invariant validation, model-based "
        "fuzzing, fault-injection drill",
        parents=[verbosity],
    )
    check.add_argument(
        "--validate",
        metavar="INDEX",
        default=None,
        help="validate the structural invariants of a saved index file",
    )
    check.add_argument(
        "--fuzz",
        action="store_true",
        help="run the model-based differential fuzzer",
    )
    check.add_argument(
        "--faults",
        action="store_true",
        help="run the fault-injection drill (lock timeout and the "
        "durable-store disk faults)",
    )
    check.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fuzzer seed (default: %(default)s)",
    )
    check.add_argument(
        "--ops",
        type=int,
        default=2000,
        help="operations per fuzz run (default: %(default)s)",
    )
    check.add_argument(
        "--dims",
        default="2,6,14",
        help="comma-separated dimensionalities to fuzz "
        "(default: %(default)s)",
    )
    check.add_argument(
        "--width",
        type=int,
        default=16,
        help="key width in bits for fuzzing (default: %(default)s)",
    )
    check.add_argument(
        "--learned",
        action="store_true",
        help="add the learned-router sharded engine to the fuzz "
        "lockstep (learned-frozen reads are always checked by the "
        "deep validations)",
    )
    check.add_argument(
        "--distribution",
        choices=("cube", "cluster", "adversarial"),
        default="cube",
        help="fuzz key distribution; 'adversarial' is the "
        "duplicate-heavy z-stream stressing the learned error bound "
        "(default: %(default)s)",
    )
    check.add_argument(
        "--durable",
        action="store_true",
        help="add a DurablePHTree to the fuzz lockstep: random "
        "flush/compact/close-and-reopen are interleaved and reopen "
        "parity vs the reference model is asserted",
    )
    check.add_argument(
        "--fault-kinds",
        default=None,
        metavar="K1,K2",
        help="comma-separated subset of fault scenarios to drill "
        "(implies --faults); e.g. 'disk-flush-kill,disk-torn-wal'",
    )
    check.set_defaults(func=cmd_check)

    store = sub.add_parser(
        "store",
        help="durable WAL+segment store: ingest, compact, query, "
        "stats on a crash-safe directory",
        parents=[verbosity],
    )
    store.add_argument("dir", help="store directory (created on first use)")
    store.add_argument(
        "--ingest",
        metavar="CSV",
        default=None,
        help="bulk-load rows from a CSV file (needs --columns)",
    )
    store.add_argument(
        "--columns",
        "-c",
        default=None,
        help="comma-separated numeric column names to index",
    )
    store.add_argument(
        "--learned",
        action="store_true",
        help="embed PHL1 learned models in flushed segments",
    )
    store.add_argument(
        "--shards",
        type=int,
        default=4,
        help="z-order shards of the live tree (power of two; "
        "default: %(default)s)",
    )
    store.add_argument(
        "--compact",
        action="store_true",
        help="merge the whole segment chain (one segment per shard)",
    )
    store.add_argument(
        "--query",
        metavar="BOX",
        default=None,
        help="inclusive window 'x1,y1 : x2,y2' in source coordinates",
    )
    store.add_argument("--limit", "-l", type=int, default=20)
    store.add_argument(
        "--stats",
        action="store_true",
        help="print the store's manifest/WAL/segment statistics",
    )
    store.set_defaults(func=cmd_store)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CSV-indexing CLI; returns a process exit code."""
    args = _parser().parse_args(argv)
    configure_logging(args.verbose)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
