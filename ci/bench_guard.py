#!/usr/bin/env python3
"""Re-validate the figure-check artifacts that CI's drills emit.

Usage: bench_guard.py --fig <BENCH_fig*.json> [...]
       bench_guard.py --trajectory <BENCH_<pr>.json> [...]

``--fig`` ingests the ``BENCH_fig*.json`` artifacts the WAN scenario
harness (``crates/atlas-runtime/tests/wan_scenarios.rs``), the
reconfiguration drills and the 10k-client drill emit: each file is ``{"figure": "...", "checks": [{"name", "value",
"min"?, "max"?}]}`` with the bounds the scenario asserted in-process. The
guard re-validates every bounded check — so a stale or hand-edited
artifact can never pass CI claiming bounds its run did not meet — and
fails when an argument matches no files (a scenario that silently stopped
emitting must not pass).

``--trajectory`` reads the ``BENCH_<pr>.json`` files that record each
change's paired benchmark sets (``ci/ab.py --emit``, one set, or a file of
``{"pr", "sets": [...]}``) and prints, per workload and end-to-end metric,
each file's head/base median ratios in PR order, one per set. It prints no
absolute medians: runs in different files met different host speeds, so
only a ratio within one set compares.

Performance counts of the loopback path are gated elsewhere: `ci/ab.py
--traced` compares them between two revisions on the benchmark.
"""

import argparse
import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def expand(patterns: list, flag: str) -> list:
    """Expands path or glob arguments, failing on empties."""
    paths = []
    for pattern in patterns:
        matched = sorted(glob.glob(pattern)) if ("*" in pattern or "?" in pattern) else [pattern]
        if not matched:
            sys.exit(f"bench_guard: {flag} {pattern!r} matched no files")
        paths.extend(matched)
    return paths


def trajectory(paths: list) -> int:
    """Prints each file's head/base ratios per workload and end-to-end
    metric, files in PR order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["end_to_end"]]
    files = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        sets = doc.get("sets", [doc])
        number = re.search(r"(\d+)", os.path.basename(path))
        pr = doc.get("pr", int(number.group(1)) if number else None)
        if pr is None or not all(isinstance(s.get("workloads"), dict) for s in sets):
            print(f"bench_guard: {path}: not a benchmark record", file=sys.stderr)
            return 1
        files.append((pr, sets))
    files.sort(key=lambda f: f[0])
    workloads = sorted({w for _, sets in files for s in sets for w in s["workloads"]})
    print("head/base median ratio per set, files in PR order (absolute medians do not compare across files)")
    print("{:<30}".format("") + "".join("{:>24}".format(f"PR {pr}") for pr, _ in files))
    for workload in workloads:
        print(workload)
        for metric in metrics:
            cells = []
            for _, sets in files:
                ratios = [
                    s["workloads"][workload]["metrics"][metric]["ratio"]
                    for s in sets
                    if metric in s["workloads"].get(workload, {}).get("metrics", {})
                ]
                cells.append(" ".join(f"{r:.2f}" for r in ratios) or "-")
            print("  {:<28}".format(metric) + "".join("{:>24}".format(c) for c in cells))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fig", nargs="+")
    mode.add_argument("--trajectory", nargs="+")
    args = parser.parse_args()
    if args.trajectory:
        return trajectory(expand(args.trajectory, "--trajectory"))

    failures = []
    for path in expand(args.fig, "--fig"):
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
