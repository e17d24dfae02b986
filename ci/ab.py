#!/usr/bin/env python3
"""Paired A/B comparison of two revisions on the repository's benchmark.

    ci/ab.py BASE HEAD [--workloads lan_rt,lan_batch] [--pairs 5]
             [--seeds 1,2,3] [--traced] [--emit BENCH.json]
             [--scratch DIR] [--timeout-factor 3]
    ci/ab.py --self-test

BASE and HEAD are git revisions, or paths to checkouts used as they are
(`.` compares the working tree). Each revision is exported into its own
directory under the scratch directory (`git archive`, so the repository
keeps no worktree bookkeeping) and `benchmark/` is built there with its
own target directory; `benchmark/Cargo.lock`, which the build rewrites, is
restored afterwards. Nothing under `benchmark/` is edited.

The runs alternate: pair i runs BASE first when i is even and HEAD first
when i is odd, both with seed i + 1 (or the i-th of `--seeds`) for
BENCHMARK.json's `run_seconds`. Each run is one `atlas-benchmark run`
child under a wall-clock limit of `--timeout-factor` x `run_seconds`; a
child that exceeds it is killed and reported as timed out, never waited
for. Its last stdout line is the JSON object the benchmark prints.

For every workload and metric the table gives the median and quartiles of
each side, the ratio HEAD/BASE of the medians, the pairs HEAD won, and the
gap between the medians in units of BASE's inter-quartile range (IQR). A
metric whose BASE spread (IQR / median) exceeds BENCHMARK.json's bound is
`unresolved`: the parent alone moves more than the bound, so no verdict is
drawn from it. A resolved end-to-end metric worse than the bound is
`WORSE`. The exit status is 1 when a run timed out, failed operations or
reported an incorrect result, or a resolved metric is `WORSE`; else 0.

`--traced` runs every child traced (`--trace 1`), which adds the per-layer
metrics (for example `proc.allocs_per_op`) to the table; their end-to-end
numbers then include the tracing overhead. The counts named in
`COUNT_GATES` are then gated like an end-to-end metric, each with its own
bound of a few per cent (on every workload but those in `NOT_GATED`), and
a count whose BASE median is 0 is `WORSE` on any rise.

Each run's share of the guest's CPU time stolen by the hypervisor
(`steal` in /proc/stat, before and after the child) is printed on its
status line and kept in the `--emit` file, so a noisy set explains itself.

Before each run a host-speed probe times a fixed single-threaded kernel
(the best of three SHA-256 passes over a 64 MiB buffer); the time is
printed on the run's status line and kept per run in `--emit`
(`probe_s`). A pair whose two probes differ by more than the end-to-end
bound ran on hosts of different speed: it is run again, at most twice. A
pair whose probes never match is kept, counted and flagged in the table
(`probe_mismatched` in `--emit`), so no run is dropped unseen.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Counts from the traced runs, gated with the relative bound each maps to.
# A count barely sees the hypervisor: over twelve traced runs per workload
# of lan_rt, lan_batch and lan_durable (two 3-pair sets, 2-vCPU guest), the
# range of each, max - min over the mean, stayed under a third of its bound
# (allocations 0.5 %, journal records 0.03 %, fsyncs 0.3 %, syscalls 1.5 %,
# context switches 1.3 %, fast-path share 0), except as in NOT_GATED.
COUNT_GATES = {
    # One more allocation per command is +2 % on lan_rt.
    "proc.allocs_per_op": 0.01,
    "journal.records_per_op": 0.01,
    # 0 on lan_rt and lan_batch, so an fsync on their path fails on its own.
    "wal.fsyncs_per_op": 0.02,
    # One journal write per record would be >= 5 more per op against 0.26
    # on lan_batch.
    "proc.syscalls_per_op": 0.03,
    "protocol.fast_path_ratio": 0.01,
    "proc.ctx_switches_per_op": 0.05,
}

# (workload, count) pairs printed but not gated. Context switches on
# lan_durable follow fsync wake-ups on both cores and ranged 12 % over the
# twelve runs: under a 5 % bound, one 3-pair set in 15 reads WORSE by chance.
NOT_GATED = {("lan_durable", "proc.ctx_switches_per_op")}

# The host-speed probe's input, and how often a pair whose probes differ
# is run again.
PROBE_BYTES = 64 << 20
PROBE_RERUNS = 2


def quartiles(values):
    """(q1, median, q3) with linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        return (float("nan"),) * 3

    def at(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def compare(base, head, better, bound, gated):
    """Statistics of one metric over paired runs.

    `base` and `head` are equally long lists (pair i is base[i], head[i]);
    `better` is "higher" or "lower"; `bound` the allowed relative change;
    `gated` whether a change past the bound is `WORSE` rather than `worse`.
    """
    b1, bmed, b3 = quartiles(base)
    h1, hmed, h3 = quartiles(head)
    sign = 1 if better == "higher" else -1
    won = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    ratio = hmed / bmed if bmed else float("nan")
    iqr = b3 - b1
    if iqr > 0:
        gap = sign * (hmed - bmed) / iqr
    else:
        gap = 0.0 if hmed == bmed else math.copysign(math.inf, sign * (hmed - bmed))
    spread = iqr / abs(bmed) if bmed else float("inf")
    if bmed:
        change = sign * (hmed - bmed) / abs(bmed)
    else:
        change = math.copysign(math.inf, sign * hmed) if hmed else 0.0
    if gated and not bmed:
        # No relative bound exists over nothing: a cost that was absent and
        # now appears (an fsync on a path that had none) fails outright.
        verdict = "WORSE" if change < 0 else "ok"
    elif spread > bound:
        verdict = "unresolved"
    elif gated and change < -bound:
        verdict = "WORSE"
    elif change < 0:
        verdict = "worse"
    else:
        verdict = "ok"
    return {
        "base": {"q1": b1, "median": bmed, "q3": b3, "values": list(base)},
        "head": {"q1": h1, "median": hmed, "q3": h3, "values": list(head)},
        "ratio": ratio,
        "pairs_won": won,
        "pairs": len(base),
        "gap_iqr": gap,
        "base_spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def last_json_line(stdout):
    """The JSON object a benchmark run prints last, or None."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def steal_ticks():
    """(steal, total) CPU ticks of the guest so far, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    """The share of CPU time stolen between two `steal_ticks()` readings."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def host_probe(buf):
    """Seconds for the best of three SHA-256 passes over `buf`."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        hashlib.sha256(buf).digest()
        best = min(best, time.perf_counter() - start)
    return best


def probes_match(a, b, bound):
    """Whether two probe times differ by at most `bound` of the smaller."""
    return abs(a - b) <= bound * min(a, b)


def probed_pair(attempt, bound):
    """Runs `attempt()` until its two runs' probes match, at most
    1 + PROBE_RERUNS times. `attempt` returns {label: run}, each run a dict
    with a "probe_s"; returns (the last attempt's runs, attempts made,
    whether its probes matched)."""
    for made in range(1, PROBE_RERUNS + 2):
        runs = attempt()
        base, head = (runs[label]["probe_s"] for label in ("base", "head"))
        if probes_match(base, head, bound):
            return runs, made, True
    return runs, made, False


def run_child(argv, cwd, limit):
    """Runs one child under a wall-clock limit: (parsed JSON or None, status)."""
    try:
        done = subprocess.run(
            argv, cwd=cwd, capture_output=True, text=True, timeout=limit
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    report = last_json_line(done.stdout)
    if report is None:
        tail = (done.stderr or done.stdout).strip().splitlines()[-3:]
        return None, "exit {}: {}".format(done.returncode, " | ".join(tail))
    return report, "ok" if done.returncode == 0 else "exit {}".format(done.returncode)


def checkout(rev, scratch, label):
    """A directory holding `rev`: the path itself, or a `git archive` export."""
    if os.path.isdir(rev):
        return os.path.abspath(rev)
    dest = os.path.join(scratch, label)
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        capture_output=True,
        check=True,
    )
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return dest


def build(tree, target):
    """Builds `tree`'s benchmark into `target`, restoring its Cargo.lock."""
    lock = os.path.join(tree, "benchmark", "Cargo.lock")
    saved = open(lock, "rb").read() if os.path.exists(lock) else None
    try:
        subprocess.run(
            [
                "cargo", "build", "--release", "--offline", "--quiet",
                "--manifest-path", os.path.join(tree, "benchmark", "Cargo.toml"),
            ],
            env=dict(os.environ, CARGO_TARGET_DIR=target),
            check=True,
        )
    finally:
        if saved is not None:
            with open(lock, "wb") as out:
                out.write(saved)
    return os.path.join(target, "release", "atlas-benchmark")


def fmt(v):
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    if abs(v) >= 100:
        return "{:.0f}".format(v)
    return "{:.3g}".format(v)


def table(workload, stats, failures, mismatched):
    print("\n## {}".format(workload))
    for note in failures:
        print("  ! {}".format(note))
    if mismatched:
        print("  ! {} pair(s) kept whose host-speed probes never matched: {}".format(
            len(mismatched), mismatched))
    print(
        "  {:<28} {:>24} {:>24} {:>7} {:>5} {:>7} {:>7}  {}".format(
            "metric", "base q1/med/q3", "head q1/med/q3", "ratio", "won",
            "gap", "spread", "verdict",
        )
    )
    for name, s in stats.items():
        side = lambda x: "{}/{}/{}".format(fmt(x["q1"]), fmt(x["median"]), fmt(x["q3"]))
        print(
            "  {:<28} {:>24} {:>24} {:>7} {:>5} {:>7} {:>7}  {}".format(
                name, side(s["base"]), side(s["head"]), fmt(s["ratio"]),
                "{}/{}".format(s["pairs_won"], s["pairs"]), fmt(s["gap_iqr"]),
                fmt(s["base_spread"]), s["verdict"],
            )
        )


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seeds", default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--emit", default=None)
    parser.add_argument("--scratch", default=None)
    parser.add_argument("--timeout-factor", type=float, default=3.0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.base or not args.head:
        parser.error("BASE and HEAD are required")

    contract = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = contract["run_seconds"]
    limit = args.timeout_factor * seconds
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in contract["workloads"]]
    )
    seeds = (
        [int(s) for s in args.seeds.split(",")] if args.seeds
        else list(range(1, args.pairs + 1))
    )
    if len(seeds) < args.pairs:
        parser.error("--seeds names fewer seeds than --pairs")
    e2e = {m["name"]: m for m in contract["end_to_end"]}
    layers = {m["name"]: m for m in contract["per_layer"]}

    scratch = args.scratch or tempfile.mkdtemp(prefix="ab-")
    os.makedirs(scratch, exist_ok=True)
    sides = {}
    for label, rev in (("base", args.base), ("head", args.head)):
        tree = checkout(rev, scratch, label)
        print("building {} ({}) in {}".format(label, rev, tree), flush=True)
        sides[label] = (tree, build(tree, os.path.join(scratch, label + "-target")))

    result = {
        "base": args.base, "head": args.head, "pairs": args.pairs,
        "seconds": seconds, "traced": args.traced, "timeout_s": limit,
        "workloads": {},
    }
    probe_bound = contract["end_to_end"][0]["bound"]
    probe_buf = bytes(PROBE_BYTES)
    bad = False
    for workload in workloads:
        runs = {"base": [], "head": []}
        steal = {"base": [], "head": []}
        probe = {"base": [], "head": []}
        failures = []
        mismatched = []

        def run_one(i, label):
            tree, binary = sides[label]
            argv = [
                binary, "run", "--workload", workload, "--seed", str(seeds[i]),
                "--seconds", str(seconds), "--trace", "1" if args.traced else "0",
            ]
            probe_s = host_probe(probe_buf)
            before = steal_ticks()
            report, status = run_child(argv, tree, limit)
            stolen = steal_share(before, steal_ticks())
            print("  {} pair {} {}: {} (steal {}, probe {:.3f} s)".format(
                workload, i, label, status,
                "n/a" if stolen is None else "{:.1%}".format(stolen), probe_s), flush=True)
            # A failure counts even in an attempt that is run again.
            if report is None or status != "ok":
                failures.append("{} pair {}: {}".format(label, i, status))
            elif not report.get("correct", False) or report.get("failed", 0) > 0:
                failures.append("{} pair {}: correct={} failed={}".format(
                    label, i, report.get("correct"), report.get("failed")))
            return {"report": report, "steal": stolen, "probe_s": probe_s}

        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair, made, matched = probed_pair(
                lambda: {label: run_one(i, label) for label in order}, probe_bound)
            if made > 1:
                print("  {} pair {}: {} attempts, probes {}".format(
                    workload, i, made, "matched" if matched else "never matched"))
            if not matched:
                mismatched.append(i)
            for label in runs:
                runs[label].append(pair[label]["report"])
                steal[label].append(pair[label]["steal"])
                probe[label].append(pair[label]["probe_s"])
        complete = [
            i for i in range(args.pairs)
            if runs["base"][i] is not None and runs["head"][i] is not None
        ]
        stats = {}
        for name in list(e2e) + list(layers):
            values = {
                label: [runs[label][i]["metrics"].get(name, {}).get("value") for i in complete]
                for label in runs
            }
            if not complete or any(v is None for side in values.values() for v in side):
                continue
            spec = e2e.get(name) or layers[name]
            # Other per-layer metrics carry no bound of their own: they are
            # read against the end-to-end one, for information only.
            bound = COUNT_GATES.get(name, spec.get("bound", contract["end_to_end"][0]["bound"]))
            counted = name in COUNT_GATES and (workload, name) not in NOT_GATED
            stats[name] = compare(
                values["base"], values["head"], spec["better"], bound, name in e2e or counted
            )
        bad |= bool(failures) or any(s["verdict"] == "WORSE" for s in stats.values())
        table(workload, stats, failures, mismatched)
        result["workloads"][workload] = {
            "failures": failures,
            "failed_ops": {
                label: [r.get("failed") if r else None for r in runs[label]] for label in runs
            },
            "metrics": stats,
            "steal": steal,
            "probe_s": probe,
            "probe_mismatched": mismatched,
        }
    if args.emit:
        with open(args.emit, "w") as out:
            json.dump(result, out, indent=1, sort_keys=True)
            out.write("\n")
    return 1 if bad else 0


def self_test():
    """Checks the statistics and the child handling on fixed inputs."""
    q1, med, q3 = quartiles([5, 1, 4, 2, 3])
    assert (q1, med, q3) == (2, 3, 4), (q1, med, q3)
    q1, med, q3 = quartiles([1, 2, 3, 4])
    assert (q1, med, q3) == (1.75, 2.5, 3.25), (q1, med, q3)

    # Higher is better: head wins 4 of 5 pairs, 10 % up, parent spread 2 %.
    base = [100, 101, 99, 100, 102]
    head = [110, 111, 109, 98, 112]
    s = compare(base, head, "higher", 0.25, True)
    assert s["pairs_won"] == 4, s
    assert abs(s["ratio"] - 1.1) < 1e-9, s
    assert s["verdict"] == "ok", s
    assert abs(s["gap_iqr"] - 10 / 1.0) < 1e-9, s

    # Lower is better: a 40 % rise in latency is WORSE end to end ...
    s = compare([10, 10, 10, 11, 10], [14, 14, 14, 14, 15], "lower", 0.25, True)
    assert s["verdict"] == "WORSE" and s["pairs_won"] == 0, s
    # ... a mere "worse" for a per-layer metric ...
    s = compare([10, 10, 10, 11, 10], [14, 14, 14, 14, 15], "lower", 0.25, False)
    assert s["verdict"] == "worse", s
    # ... and unresolved when the parent alone spreads past the bound.
    s = compare([10, 20, 10, 20, 15], [30, 30, 30, 30, 30], "lower", 0.25, True)
    assert s["verdict"] == "unresolved", s

    # Counts are gated at their own bound: +2 % allocations is WORSE ...
    bound = COUNT_GATES["proc.allocs_per_op"]
    allocs = [51.07, 51.08, 51.07, 51.08, 51.07]
    s = compare(allocs, [a * 1.02 for a in allocs], "lower", bound, True)
    assert s["verdict"] == "WORSE", s
    # ... a rise inside the bound is only "worse", which does not fail ...
    s = compare(allocs, [a * 1.005 for a in allocs], "lower", bound, True)
    assert s["verdict"] == "worse", s
    # ... and a count that stays put is ok.
    s = compare(allocs, list(reversed(allocs)), "lower", bound, True)
    assert s["verdict"] == "ok", s
    # ... and any rise from a zero base is WORSE, while none is ok.
    bound = COUNT_GATES["wal.fsyncs_per_op"]
    s = compare([0.0] * 5, [0.0, 0.0, 0.001, 0.001, 0.001], "lower", bound, True)
    assert s["verdict"] == "WORSE", s
    s = compare([0.0] * 5, [0.0] * 5, "lower", bound, True)
    assert s["verdict"] == "ok", s

    # Steal shares come from two readings of the guest's tick counters.
    assert steal_share((10, 1000), (20, 1100)) == 0.1
    assert steal_share(None, (20, 1100)) is None
    now = steal_ticks()
    assert now is None or 0 <= now[0] <= now[1], now

    # Host-speed probes match within the bound of the faster one, either
    # way round; a pair is run again until they match, at most twice more,
    # and kept (flagged) when they never do.
    assert probes_match(1.0, 1.25, 0.25) and probes_match(1.25, 1.0, 0.25)
    assert not probes_match(1.0, 1.3, 0.25) and not probes_match(1.3, 1.0, 0.25)
    speeds = iter([(1.0, 1.5), (1.0, 1.1), (9.0, 9.0)])

    def attempt():
        base, head = next(speeds)
        return {"base": {"probe_s": base}, "head": {"probe_s": head}}

    runs, made, matched = probed_pair(attempt, 0.25)
    assert (made, matched, runs["head"]["probe_s"]) == (2, True, 1.1), (made, runs)
    speeds = iter([(1.0, 2.0), (2.0, 1.0), (1.0, 1.5), (1.0, 1.0)])
    runs, made, matched = probed_pair(attempt, 0.25)
    assert (made, matched, runs["base"]["probe_s"]) == (3, False, 1.0), (made, runs)
    assert 0 < host_probe(bytes(1 << 16)) < 1

    # The JSON object is the last line, whatever precedes it.
    out = 'lan_rt/x 1 us\n{"correct": true, "failed": 0, "metrics": {}}\n'
    assert last_json_line(out)["correct"] is True
    assert last_json_line("no json here\n") is None

    # A child past its limit is reported as timed out, promptly.
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    report, status = run_child(sleeper, ROOT, 0.5)
    assert report is None and status == "timed out", status
    echo = [sys.executable, "-c", 'print("a"); print(\'{"correct": true, "metrics": {}}\')']
    report, status = run_child(echo, ROOT, 10)
    assert status == "ok" and report["correct"], status
    print("ab.py self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
