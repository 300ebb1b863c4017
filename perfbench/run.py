"""Run one benchmark workload and print its report.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-mix --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the timed pass and reports the end-to-end metrics;
``--trace 1`` runs the traced and counted passes instead and reports
the per-layer metrics, with a self-time table, the tracing overhead and
the span coverage.  Every metric is printed by name with its unit,
followed by the failure share and the oracle verdict; the last line of
standard output is the JSON result.  Scratch files live under
``.perfbench/`` in the repository root and are removed on exit, except
the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "read-mix", "mixed-rw", "index-file")


def src_loc(src: Path) -> int:
    total = 0
    for path in src.rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def _print_metrics(metrics, samples, title):
    print(f"{title}")
    print(f"  {'metric':40s} {'value':>16s} {'unit':8s} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6g} {unit:8s} {samples.get(name, '')}")


def _print_outcome(outcome):
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    verdict = "PASS" if outcome.failed == 0 else "FAIL"
    print(
        f"  attempted {outcome.attempted}, failed {outcome.failed} "
        f"({share:.4%}); oracle {verdict}"
    )
    for line in outcome.checks:
        print(f"    {line}")


def warm_up(args, workdir):
    """One small untimed pass first, so kernel specialisation and other
    once-per-process work is not charged to the first measured pass.
    It always uses seed 0, so the interpreter state it leaves behind is
    the same whatever seed the measured pass uses."""
    from perfbench.workloads import TINY, Pass, run_pass

    outcome = run_pass(args.workload, 0, Pass("fixed", 0.0, TINY, workdir))
    print(f"warm-up pass: attempted {outcome.attempted}, failed {outcome.failed}")
    return outcome


def timed(args, workdir):
    from perfbench.workloads import E2E_UNITS, FULL, Pass, run_pass

    outcome = run_pass(args.workload, args.seed, Pass("timed", args.seconds, FULL, workdir))
    missing = sorted(set(E2E_UNITS) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not report {missing}")
    _print_metrics(outcome.metrics, outcome.samples, f"end-to-end metrics ({args.workload})")
    if outcome.printed:
        _print_metrics(outcome.printed, outcome.samples, "measured and printed, not reported")
    _print_outcome(outcome)
    metrics = {
        name: {"value": outcome.metrics[name][0], "unit": unit}
        for name, unit in E2E_UNITS.items()
    }
    return outcome.failed == 0, outcome.attempted, outcome.failed, metrics


def traced(args, workdir):
    from perfbench.attribution import LAYER_METRICS, traced_run
    from perfbench.workloads import FULL

    result = traced_run(args.workload, args.seed, FULL, workdir)
    values = dict(result.metrics)
    values["src.loc"] = src_loc(ROOT / "src")
    summary = result.summary
    wall = summary.wall()
    print(f"per-layer self time ({args.workload}, traced fixed pass, {wall:.3f} s of requests)")
    print(f"  {'layer':20s} {'self s':>10s} {'share':>8s}")
    for layer, own in sorted(summary.layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:20s} {own:10.4f} {own / wall if wall else 0:8.2%}")
    print("  span                                        calls   total s    self s")
    for name in sorted(summary.self_time, key=lambda n: -summary.self_time[n]):
        print(
            f"  {name:42s} {summary.calls[name]:7d} {summary.total[name]:9.4f} "
            f"{summary.self_time[name]:9.4f}"
        )
    print("span coverage of request wall time")
    for op in sorted(summary.request_wall):
        print(
            f"  {op:10s} {summary.request_count[op]:7d} requests "
            f"{summary.request_wall[op]:9.4f} s  covered {summary.coverage(op):.2%}"
        )
    print("tracing overhead (traced vs untraced fixed pass)")
    for name, plain, traced_value, change in result.overhead:
        print(f"  {name:28s} {plain:14.6g} -> {traced_value:14.6g}  ({change:+.1%})")
    print(f"counted pass repeats exactly: {'yes' if result.repeatable else 'NO'}")
    _print_metrics(
        {name: (values[name], unit) for name, unit in LAYER_METRICS.items()},
        {},
        f"per-layer metrics ({args.workload})",
    )
    attempted = sum(o.attempted for o in result.outcomes)
    failed = sum(o.failed for o in result.outcomes)
    for outcome in result.outcomes:
        _print_outcome(outcome)
    spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    result.tracer.dump(str(spans_path))
    print(f"spans: {len(result.tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }
    correct = failed == 0 and result.repeatable
    return correct, attempted, failed, metrics


#: ``personality(2)`` flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000


def exec_without_aslr(args) -> None:
    """Re-execute this script once with address-space randomisation off
    (what ``setarch -R`` does) and with arguments of a fixed length.
    With randomisation on, where the interpreter's hot objects land
    differs from process to process, and the same read p50 differed by
    up to 40% between runs of one seed; with it off, by about 7%.  The
    fixed-length arguments keep the initial stack layout the same for
    every seed.  ``execv`` replaces the process, so no child is left."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        personality = libc.personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current == -1 or current & ADDR_NO_RANDOMIZE:
        return
    if personality(current | ADDR_NO_RANDOMIZE) == -1:
        return
    sys.stdout.flush()
    os.execv(sys.executable, [
        sys.executable, sys.argv[0],
        "--workload", args.workload,
        "--seed", f"{args.seed:020d}",
        "--seconds", f"{args.seconds:020.6f}",
        "--trace", str(args.trace),
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    if argv is None:
        exec_without_aslr(args)
    sys.path[:0] = [str(src), str(ROOT)]
    # One CPU: with two, whether a writer thread gets the interpreter
    # lock back after an fsync depends on a cross-core wake-up race, and
    # its latency flips between ~0.4 ms and ~5.5 ms from second to
    # second.  On one CPU it waits out the switch interval every time.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: could not pin to one CPU ({exc}); writer figures will be noisier")
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        print(
            f"workload {args.workload}, seed {args.seed}, "
            f"seconds {args.seconds:g}, trace {args.trace}"
        )
        warm = warm_up(args, str(workdir))
        run = traced if args.trace else timed
        correct, attempted, failed, metrics = run(args, str(workdir))
        correct = correct and warm.failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
