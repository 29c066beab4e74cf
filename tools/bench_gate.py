#!/usr/bin/env python3
"""Bench-regression gate: rerun the stable membership-engine benchmarks and
fail on a >25% slowdown against the checked-in BENCH_lincheck.json baseline.

Usage:
  tools/bench_gate.py [--build-dir build] [--baseline BENCH_lincheck.json]
                      [--tolerance 0.25] [--min-time 0.1]

What "stable" means here: the single-threaded bench_lincheck workloads
whose cost is a deterministic function of the engine — every row except
run_type=aggregate ones.  bench_detection stays out of the gate
entirely: its workloads drive real producer/checker threads, and measured
run-to-run swings of 1.5-3x on shared hosts would make any threshold either
blind or flaky (the BENCH_lincheck.json trajectory still tracks them).

Cross-host normalization: the checked-in baseline was recorded on one
machine and the gate usually runs on another (a CI runner), so raw
time-per-time comparison would gate on hardware, not code.  The gate
instead compares each benchmark's slowdown ratio to the *median* slowdown
ratio across all stable benchmarks — a pure host-speed difference shifts
every ratio equally and cancels, while a genuine regression in one code
path sticks out of the distribution.  On the recording host the median is
~1 and the gate degenerates to the plain 25% rule.  A uniform slowdown of
*everything* (which the median absorbs) is the one shape this cannot see;
the tracked BENCH_lincheck.json trajectory covers that case.

Flake damping: each benchmark is the min of --repetitions in-process
repeats, and a row over the limit is re-measured --retries more times in a
fresh process, keeping its best time — a transient host-throttling phase
clears on retry, a genuine code regression reproduces every time.

Exit codes: 0 = pass, 1 = regression(s) past tolerance, 2 = usage/setup
error (missing binaries, unreadable baseline, no overlapping benchmarks).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

RUNS = {
    "bench_lincheck": "bench_lincheck",
    # Raw-run facet recorded by `tools/run_bench.sh --facet closure_hot`:
    # single-threaded monitor feeds whose cost is a deterministic function
    # of the closure hot path (dup-heavy/dup-light x prefetch on/off), so
    # its rows gate the same way bench_lincheck's do.
    "closure_hot": "bench_closure_hot",
}

UNSTABLE_PREFIXES = (
    # The multi_session facet (bench_multi_session: BM_MultiSessionThroughput
    # sessions x lanes sweep) is excluded the same way: cross-session scaling
    # is a property of the host's core count, so it stays out of the gate
    # until the CI bench-scaling job records it on the multi-core runner.
    # It lives in its own binary, which the gate never runs; listed here so
    # adding it to RUNS by accident cannot silently gate on it.
    "BM_MultiSessionThroughput",
    # The obs_overhead facet gates on the ratio *between* its arms (metrics
    # attached vs detached, recorded directly by tools/run_bench.sh
    # --facet obs_overhead), not on absolute wall time.  Lives in its own
    # binary, which the gate never runs; listed so adding it to RUNS by
    # accident cannot silently gate on it.
    "BM_ObsOverhead",
    # The ingest facet (bench_ingest: wire decode vs text parse vs MPSC
    # publish+drain, recorded by tools/run_bench.sh --facet ingest) tracks
    # the ratio between its arms; the absolute times ride the host's
    # allocator and cache sizes.  Lives in its own binary, which the gate
    # never runs; listed so adding it to RUNS by accident cannot silently
    # gate on it.
    "BM_Ingest",
    # The enforced facet (bench_self_enforced: BM_EnforcedVerifiedOps,
    # recorded by tools/run_bench.sh --facet enforced) tracks the speedup
    # ratio between its coupled/decoupled arms, recorded directly in the
    # facet; absolute verified-op times ride the host.  Its sibling in
    # bench_decoupled sweeps the verifier cadence and is excluded for the
    # same reason.  Both live in their own binaries, which the gate never
    # runs; listed so adding them to RUNS by accident cannot silently gate
    # on them.
    "BM_EnforcedVerifiedOps",
    "BM_VerifierBatchAmortization",
    # The abd_cluster facet (bench_abd_cluster: simulated lossy/reordered
    # links, retransmission timers) is schedule-dependent by construction —
    # the facet tracks verified-ops/s and protocol-message counters, and
    # its correctness bar is all_ok, not wall time.
    "BM_AbdCluster",
)


def stable_rows(run):
    """name -> real_time for the host-independent benchmarks of one run.
    Repeated rows (--benchmark_repetitions) collapse to their minimum — the
    noise-robust statistic for a shared CI runner."""
    rows = {}
    for b in run.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") == "aggregate":
            continue
        if name.startswith(UNSTABLE_PREFIXES):
            continue
        if "real_time" not in b:
            continue
        t = float(b["real_time"])
        rows[name] = min(rows.get(name, t), t)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline", default="BENCH_lincheck.json")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed slowdown past the median ratio (0.25 = 25%%)")
    ap.add_argument("--min-time", default="0.1",
                    help="--benchmark_min_time per benchmark (seconds)")
    ap.add_argument("--repetitions", type=int, default=3,
                    help="repetitions per benchmark; the gate takes the min")
    ap.add_argument("--retries", type=int, default=2,
                    help="fresh-process re-measurements a failing row gets")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot read baseline {args.baseline}: {e}",
              file=sys.stderr)
        return 2

    failures = []
    compared = 0
    for key, binary in RUNS.items():
        if key not in baseline:
            print(f"bench_gate: baseline has no '{key}' facet; skipping")
            continue
        base_rows = stable_rows(baseline[key])
        if not base_rows:
            print(f"bench_gate: no stable baseline rows under '{key}'")
            continue
        path = os.path.join(args.build_dir, binary)
        if not os.access(path, os.X_OK):
            print(f"bench_gate: {path} not built", file=sys.stderr)
            return 2

        def measure(names):
            bench_filter = "|".join(f"^{n}$" for n in names)
            with tempfile.NamedTemporaryFile(suffix=".json") as out:
                cmd = [
                    path,
                    f"--benchmark_filter={bench_filter}",
                    f"--benchmark_min_time={args.min_time}",
                    f"--benchmark_repetitions={args.repetitions}",
                    "--benchmark_report_aggregates_only=false",
                    f"--benchmark_out={out.name}",
                    "--benchmark_out_format=json",
                ]
                res = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
                if res.returncode != 0:
                    raise RuntimeError(f"{binary} exited {res.returncode}")
                with open(out.name) as f:
                    return stable_rows(json.load(f))

        print(f"bench_gate: running {binary} "
              f"({len(base_rows)} stable benchmarks, "
              f"min of {args.repetitions} repetitions)")
        sys.stdout.flush()
        try:
            new_rows = measure(base_rows)
        except RuntimeError as e:
            print(f"bench_gate: {e}", file=sys.stderr)
            return 2

        ratios = {}
        for name, base_t in base_rows.items():
            if name in new_rows and base_t > 0:
                ratios[name] = new_rows[name] / base_t
        if not ratios:
            print(f"bench_gate: no overlapping benchmarks for '{key}'",
                  file=sys.stderr)
            return 2
        median = statistics.median(ratios.values())
        limit = median * (1.0 + args.tolerance)
        print(f"bench_gate: {key}: median host ratio {median:.3f}, "
              f"per-benchmark limit {limit:.3f}")

        def offenders():
            return sorted(n for n, r in ratios.items() if r > limit)

        for attempt in range(args.retries):
            bad = offenders()
            if not bad:
                break
            print(f"bench_gate: re-measuring {len(bad)} row(s) over the "
                  f"limit (retry {attempt + 1}/{args.retries}): "
                  + ", ".join(bad))
            sys.stdout.flush()
            try:
                again = measure(bad)
            except RuntimeError as e:
                print(f"bench_gate: {e}", file=sys.stderr)
                return 2
            for name in bad:
                if name in again and base_rows[name] > 0:
                    ratios[name] = min(ratios[name],
                                       again[name] / base_rows[name])

        for name, r in sorted(ratios.items()):
            compared += 1
            verdict = "FAIL" if r > limit else "ok"
            print(f"  {verdict:>4}  {r / median:6.3f}x rel  {name}")
            if r > limit:
                failures.append((key, name, r / median))

    if compared == 0:
        print("bench_gate: nothing compared", file=sys.stderr)
        return 2
    if failures:
        print(f"\nbench_gate: {len(failures)} regression(s) past "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for key, name, rel in failures:
            print(f"  {key}/{name}: {rel:.2f}x the median ratio",
                  file=sys.stderr)
        return 1
    print(f"\nbench_gate: pass ({compared} benchmarks within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
