#!/usr/bin/env python3
"""Re-validate the figure-check artifacts that CI's drills emit.

Usage: bench_guard.py --fig <BENCH_fig*.json> [...]

``--fig`` ingests the ``BENCH_fig*.json`` artifacts the WAN scenario
harness (``crates/atlas-runtime/tests/wan_scenarios.rs``), the
reconfiguration drills, the 10k-client drill and the shard-scaling bench
emit: each file is ``{"figure": "...", "checks": [{"name", "value",
"min"?, "max"?}]}`` with the bounds the scenario asserted in-process. The
guard re-validates every bounded check — so a stale or hand-edited
artifact can never pass CI claiming bounds its run did not meet — and
fails when an argument matches no files (a scenario that silently stopped
emitting must not pass).

Performance counts of the loopback path are gated elsewhere: `ci/ab.py
--traced` compares them between two revisions on the benchmark.
"""

import argparse
import glob
import json
import sys


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
    parser.add_argument("--fig", nargs="+", required=True)
    args = parser.parse_args()

    failures = []
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
