#!/usr/bin/env python3
"""Gate CI bench and WAN-figure jobs on checked-in budgets.

Usage: bench_guard.py [<current.json> <baseline.json>] [--max-ratio 3.0]
           [--metrics <file>] [--min-fast-path-ratio 0.9]
           [--max-allocs-per-cmd 90] [--max-wal-writes-per-cmd 1.5]
           [--fig <BENCH_fig*.json> ...]

Both positional files carry ``{"benches": {"<name>": {"mean_ns": <int>,
...}}}`` — the current file is emitted by the vendored criterion stub via
``CRITERION_JSON``; the baseline is checked in at
``ci/BENCH_runtime_baseline.json``.

The job fails when any benchmark named in the baseline is missing from the
current run (a silently deleted bench must not pass the gate) or regressed
by more than ``--max-ratio`` over its baseline mean. The generous default
ratio absorbs runner jitter; it exists to catch order-of-magnitude
regressions (an accidental sync call on the hot path, an O(n^2) slip), not
single-digit percentages — those need a quiet machine and the full bench
suite.

``--metrics`` adds a semantic gate on top of the latency one: the file is
the ``{"snapshots": [...]}`` dump the loopback bench writes when
``ATLAS_BENCH_METRICS`` is set (one replica metrics snapshot per benchmark).
Fast and slow path commits are summed across all snapshots and the job
fails when the fast-path share drops below ``--min-fast-path-ratio`` — a
cheap canary for protocol changes that keep the bench fast on the runner
but silently push the conflict-free workload onto the slow path.

``--max-allocs-per-cmd`` adds an allocator-pressure gate on the same
``--metrics`` file: each snapshot carries ``alloc_count`` (heap allocations
in the serving process since the replica booted, counted by the bench's
``atlas_metrics::CountingAllocator``) and the derived ``allocs_per_cmd``
gauge. The job fails when the gauge of the snapshot labelled
``runtime_loopback/put_batch_16`` exceeds the ceiling — the canary for a
pooled wire path regressing to per-frame allocation, or the protocol to a
hash set per reply — or when a snapshot carries no gauge (an uninstalled
counting allocator must not pass as "zero allocations"). The ceiling is
1.5 x what that snapshot reads (57 with cluster boot amortised over 176
commands). Every other snapshot (the round-trip bench: boot over 11
commands, reads 113) keeps the loose ceiling of 300.

``--max-wal-writes-per-cmd`` gates a count the hypervisor cannot blur: in
the snapshot the loopback bench labels ``runtime_loopback/put_batch_16``
(the coordinator of 16-command requests), ``durability.wal_writes`` — one
per event-loop turn that journaled anything — over ``store_executed`` must
stay under the ceiling. A replica that writes its journal once per record
again reads 2 there (a submission and a collect ack per command); one write
per turn reads about 0.2. A missing snapshot or counter fails the gate.

``--fig`` ingests the ``BENCH_fig*.json`` artifacts the WAN scenario
harness (``crates/atlas-runtime/tests/wan_scenarios.rs``) emits: each file
is ``{"figure": "...", "checks": [{"name", "value", "min"?, "max"?}]}``
with the bounds the scenario asserted in-process. The guard re-validates
every bounded check — so a stale or hand-edited artifact can never pass CI
claiming bounds its run did not meet — and fails when an argument matches
no files (a scenario that silently stopped emitting must not pass).
Positional benchmark files are optional when ``--fig`` is given.
"""

import argparse
import glob
import json
import sys


def load_benches(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        sys.exit(f"bench_guard: {path} has no benches")
    return benches


def check_fast_path(path: str, floor: float, failures: list) -> None:
    """Sums fast/slow path commits across the snapshots in ``path`` and
    records a failure when the fast-path share is below ``floor``."""
    with open(path) as fh:
        doc = json.load(fh)
    snapshots = doc.get("snapshots")
    if not isinstance(snapshots, list) or not snapshots:
        failures.append(f"{path}: no snapshots captured")
        return
    fast = sum(s["protocol_stats"]["fast_paths"] for s in snapshots)
    slow = sum(s["protocol_stats"]["slow_paths"] for s in snapshots)
    total = fast + slow
    if total == 0:
        failures.append(f"{path}: snapshots saw no commits at all")
        return
    ratio = fast / total
    verdict = "FAIL" if ratio < floor else "ok"
    print(
        f"{verdict:4} fast-path ratio: {ratio:.3f} "
        f"({fast} fast / {slow} slow, floor {floor:.2f})"
    )
    if ratio < floor:
        failures.append(f"fast-path ratio {ratio:.3f} below floor {floor:.2f}")


BATCH_BENCH = "runtime_loopback/put_batch_16"
# Snapshots other than the batched bench's: boot cost over a dozen commands
# (reads 113), so only a per-frame allocation regression trips it.
BOOT_ALLOCS_CEILING = 300.0


def check_allocs(path: str, ceiling: float, failures: list) -> None:
    """Gates the allocations-per-command gauge of every snapshot: the
    batched loopback bench's at ``ceiling``, any other at
    ``BOOT_ALLOCS_CEILING`` (the round-trip bench executes a dozen commands,
    so its gauge is mostly cluster boot). Fails when the batched snapshot is
    absent or any snapshot lacks the gauge (counting allocator not
    installed)."""
    with open(path) as fh:
        doc = json.load(fh)
    snapshots = doc.get("snapshots") or []
    if not any(s.get("bench") == BATCH_BENCH for s in snapshots):
        failures.append(f"{path}: no snapshot labelled {BATCH_BENCH}")
    for s in snapshots:
        name = s.get("bench")
        per_cmd = s.get("allocs_per_cmd")
        if not isinstance(per_cmd, (int, float)):
            failures.append(
                f"{path}: {name} carries no allocs_per_cmd gauge "
                "(is the counting allocator installed in the bench?)"
            )
            continue
        limit = ceiling if name == BATCH_BENCH else max(ceiling, BOOT_ALLOCS_CEILING)
        verdict = "FAIL" if per_cmd > limit else "ok"
        print(
            f"{verdict:4} allocs/cmd {name}: {per_cmd:.1f} "
            f"({s.get('alloc_count')} allocs / {s.get('store_executed')} cmds, "
            f"ceiling {limit:.0f})"
        )
        if per_cmd > limit:
            failures.append(f"{name}: allocs/cmd {per_cmd:.1f} over ceiling {limit:.0f}")


def check_wal_writes(path: str, ceiling: float, failures: list) -> None:
    """Gates WAL writes per command in the snapshot of the batched loopback
    bench; fails when that snapshot or its counters are absent."""
    with open(path) as fh:
        doc = json.load(fh)
    batched = [s for s in doc.get("snapshots") or [] if s.get("bench") == BATCH_BENCH]
    if not batched:
        failures.append(f"{path}: no snapshot labelled {BATCH_BENCH}")
    for s in batched:
        writes = s.get("durability", {}).get("wal_writes")
        cmds = s.get("store_executed")
        if not isinstance(writes, int) or not isinstance(cmds, int) or cmds == 0:
            failures.append(f"{path}: {BATCH_BENCH} lacks wal_writes/store_executed")
            continue
        per_cmd = writes / cmds
        verdict = "FAIL" if per_cmd > ceiling else "ok"
        print(
            f"{verdict:4} WAL writes/cmd: {per_cmd:.3f} "
            f"({writes} writes / {cmds} cmds, ceiling {ceiling:.2f})"
        )
        if per_cmd > ceiling:
            failures.append(f"WAL writes/cmd {per_cmd:.3f} over ceiling {ceiling:.2f}")


def check_figure(path: str, failures: list) -> None:
    """Validates one WAN-figure artifact and re-enforces its bounds."""
    with open(path) as fh:
        doc = json.load(fh)
    figure = doc.get("figure")
    checks = doc.get("checks")
    if not isinstance(figure, str) or not isinstance(checks, list) or not checks:
        failures.append(f"{path}: not a figure report (need figure + checks)")
        return
    for check in checks:
        name = check.get("name")
        value = check.get("value")
        if not isinstance(name, str) or not isinstance(value, (int, float)):
            failures.append(f"{figure}: malformed check {check!r}")
            continue
        lo = check.get("min")
        hi = check.get("max")
        bad = (lo is not None and value < lo) or (hi is not None and value > hi)
        bounds = f"[{'-inf' if lo is None else lo}, {'inf' if hi is None else hi}]"
        verdict = "FAIL" if bad else "ok"
        print(f"{verdict:4} {figure}.{name}: {value:.3f} within {bounds}")
        if bad:
            failures.append(f"{figure}.{name}: {value:.3f} outside {bounds}")


def expand_figs(patterns: list) -> list:
    """Expands ``--fig`` arguments (paths or globs), failing on empties."""
    paths = []
    for pattern in patterns:
        matched = sorted(glob.glob(pattern)) if ("*" in pattern or "?" in pattern) else [pattern]
        if not matched:
            sys.exit(f"bench_guard: --fig {pattern!r} matched no files")
        paths.extend(matched)
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", nargs="?", default=None)
    parser.add_argument("baseline", nargs="?", default=None)
    parser.add_argument("--max-ratio", type=float, default=3.0)
    parser.add_argument("--metrics", default=None)
    parser.add_argument("--min-fast-path-ratio", type=float, default=0.9)
    parser.add_argument("--max-allocs-per-cmd", type=float, default=None)
    parser.add_argument("--max-wal-writes-per-cmd", type=float, default=None)
    parser.add_argument("--fig", nargs="+", default=None)
    args = parser.parse_args()

    if (args.current is None) != (args.baseline is None):
        parser.error("current and baseline go together")
    if args.current is None and args.fig is None:
        parser.error("nothing to gate: give current+baseline and/or --fig")

    failures = []
    if args.current is not None:
        current = load_benches(args.current)
        baseline = load_benches(args.baseline)
        for name, base in baseline.items():
            base_ns = base["mean_ns"]
            got = current.get(name)
            if got is None:
                failures.append(f"{name}: missing from the current run")
                continue
            got_ns = got["mean_ns"]
            ratio = got_ns / base_ns
            verdict = "FAIL" if ratio > args.max_ratio else "ok"
            print(
                f"{verdict:4} {name}: {got_ns} ns vs baseline {base_ns} ns "
                f"({ratio:.2f}x, limit {args.max_ratio:.1f}x)"
            )
            if ratio > args.max_ratio:
                failures.append(f"{name}: {ratio:.2f}x over baseline")

    if args.metrics is not None:
        check_fast_path(args.metrics, args.min_fast_path_ratio, failures)
        if args.max_allocs_per_cmd is not None:
            check_allocs(args.metrics, args.max_allocs_per_cmd, failures)
        if args.max_wal_writes_per_cmd is not None:
            check_wal_writes(args.metrics, args.max_wal_writes_per_cmd, failures)
    elif args.max_allocs_per_cmd is not None or args.max_wal_writes_per_cmd is not None:
        parser.error("--max-allocs-per-cmd and --max-wal-writes-per-cmd need --metrics")

    if args.fig is not None:
        for path in expand_figs(args.fig):
            check_figure(path, failures)

    if failures:
        print("\nbench_guard: gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("bench_guard: all gates within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
