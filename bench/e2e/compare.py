#!/usr/bin/env python3
"""Local A/B comparison of two checkouts on the end-to-end benchmark.

  python3 bench/e2e/compare.py --base DIR --change DIR [--workload NAME ...]
                               [--pairs 10] [--out FILE]

Runs `bench/e2e/run.py` of each checkout in alternating pairs (the base goes
first in even pairs, the change in odd ones) for the base's BENCHMARK.json
run_seconds.  Pair i runs seed 2 + i: seed 2 is the held-out seed, so claims
are never made on the dev seed 1.  Every end-to-end metric of every workload
is reported in its own row:

  gain           the change wins at least 9 in 10 pairs (ties count for
                 neither) and the medians differ by more than the base's
                 interquartile range
  regression     the change's median is worse than the base's by more than
                 the bound BENCHMARK.json fixes for the metric
  unresolved     the base's own spread exceeds the bound, and not every run
                 of the change beats every run of the base
  no regression  otherwise

Metric directions and bounds come from the base's BENCHMARK.json.  Exit 1
when any row is a regression or a run failed its verdict checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory source-only
sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import quartiles  # noqa: E402

HELD_OUT_SEED = 2


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, str(Path(checkout) / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=False)
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if not line["correct"]:
        return None
    return {k: v["value"] for k, v in line["metrics"].items()}


def judge(base, change, better, bound):
    """Row verdict for one metric (lists of per-pair values)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    gap = sign * (cmed - bmed)
    if wins >= 0.9 * len(base) and gap > bq3 - bq1:
        verdict = "gain"
    elif -gap > bound * abs(bmed):
        verdict = "regression"
    elif (bq3 - bq1) > bound * abs(bmed) and \
            not min(sign * c for c in change) > max(sign * b for b in base):
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {"base_median": bmed, "base_q1": bq1, "base_q3": bq3,
            "change_median": cmed, "wins": wins, "pairs": len(base),
            "verdict": verdict}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="checkout of the parent")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="write raw values and rows as JSON")
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs: a claim needs at least 10 pairs")

    bench = json.loads((Path(args.base) / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    raw, rows, failed = {}, [], False
    for w in workloads:
        sides = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            got = {}
            for side in order:
                got[side] = run_side(getattr(args, side), w, HELD_OUT_SEED + i,
                                     seconds)
            if got["base"] is None or got["change"] is None:
                print(f"{w} pair {i}: a run failed its checks", file=sys.stderr)
                failed = True
                continue
            for side in sides:
                sides[side].append(got[side])
        raw[w] = sides
        if not sides["base"]:
            continue
        for name, m in metrics.items():
            base = [r[name] for r in sides["base"]]
            change = [r[name] for r in sides["change"]]
            row = {"workload": w, "metric": name,
                   **judge(base, change, m["better"], m["bound"])}
            rows.append(row)

    print(f"{'workload':16s} {'metric':16s} {'base median [q1, q3]':>36s} "
          f"{'change median':>14s} {'wins':>7s}  verdict")
    for r in rows:
        print(f"{r['workload']:16s} {r['metric']:16s} "
              f"{r['base_median']:12.6g} [{r['base_q1']:10.6g}, {r['base_q3']:10.6g}] "
              f"{r['change_median']:14.6g} {r['wins']:3d}/{r['pairs']:<3d}  {r['verdict']}")
    if args.out:
        Path(args.out).write_text(json.dumps({"raw": raw, "rows": rows}, indent=1))
    regressed = any(r["verdict"] == "regression" for r in rows)
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
