#!/usr/bin/env python3
"""End-to-end benchmark of selin: bulk ingest, enforced objects, offline audit.

Builds the selin library, selin_ingestd and the load generator selin_e2e from the
tree's sources (Release, into build-e2e/), runs workloads, checks every
verdict and prints every metric by name with its unit.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                           [--trace [0|1]] [--repeat N] [--quick]

Without --workload every workload runs.  --seconds defaults to BENCHMARK.json's
run_seconds.  --trace runs each workload a second
time with spans recorded and reports the per-layer metrics (the end-to-end
metrics always come from the untraced run).  --repeat N runs each workload N
times with seeds SEED..SEED+N-1 and writes per-metric medians and quartiles.
--quick is the harness self-test: every workload and the traced path at
about 1/20 size; its numbers mean nothing.  See README.md.

Exit status: 0 when every verdict matched, 1 when any did not, 2 when the
benchmark could not run (missing sources, build failure).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
DAEMON = BUILD / "selin" / "selin_ingestd"  # the root project's target

WORKLOADS = ["ingest_bulk", "enforced_queue", "offline_audit"]
INGEST = {"ingest_bulk"}
# The span that stands for one request of each workload.
REQUEST_SPAN = {"ingest_bulk": "frame", "enforced_queue": "op",
                "offline_audit": "history"}

# name -> unit, in report order.
END_TO_END = {
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spans whose self time is reported as a share of all traced time.
SHARE_SPANS = [
    "net.send_events", "io.parse",
    "engine.feed_batch.wide", "engine.feed_batch.narrow",
    "core.announce", "core.invoke", "core.complete", "core.publish",
    "core.check",
]

PER_LAYER = {
    "gen.lag_us": "us",
    "trace.request_us": "us",
    "trace.overhead": "%",
    "trace.children_share": "%",
    "engine.round_us": "us",
    **{f"{s}.share": "%" for s in SHARE_SPANS},
    "service.session.share": "%",
    "net.frames": "count",
    "net.throttle_ratio": "ratio",
    "service.events_per_round": "count",
    "service.session_lag": "count",
    "parallel.exec_phase.share": "%",
    "parallel.worker_slice_share": "%",
    "views.resync.share": "%",
    "views.rollback_depth": "count",
    "engine.peak_frontier": "count",
    "engine.dedup_hit_rate": "ratio",
    "engine.rounds_per_request": "count",
    "engine.events_fed_per_request": "count",
}

QUICK_SCALE = 0.05
QUICK_SECONDS = 0.6
# A selin_e2e process that outlives its run by this much is stuck; a traced
# run of run_seconds = 30 then still ends well inside three minutes.
RUN_GRACE_S = 20


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "selin" / "selin.hpp").is_file():
        log(f"run.py: selin sources not found under {ROOT}")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return False
    return True


def stop_group(proc):
    """Kills what is left of selin_e2e's process group and waits for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_e2e(workload, seed, seconds, scale, trace_file):
    """One selin_e2e process; its JSON report, or None when it printed none."""
    cmd = [str(BUILD / "selin_e2e"), workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--scale", repr(scale)]
    if workload in INGEST:
        # Relative to the checkout root: sun_path holds at most 107 bytes.
        sock = BUILD.relative_to(ROOT) / f"ingestd-{os.getpid()}.sock"
        cmd += ["--daemon", str(DAEMON), "--uds", str(sock)]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    # Own process group, so a timeout also ends the daemon selin_e2e spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=2 * seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} timed out")
        stop_group(proc)
        return None
    stop_group(proc)
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {workload} printed no report (exit {proc.returncode})")
        return None
    report["exit"] = proc.returncode
    return report


def end_to_end(r):
    return {
        "throughput": r["items"] / r["busy_s"] if r["busy_s"] > 0 else 0.0,
        "latency_p50_ms": r["latency_ms"]["p50"],
        "latency_p90_ms": r["latency_ms"]["p90"],
        "setup_s": statistics.median(r["setup_s"]) if r["setup_s"] else 0.0,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def obs_values(doc):
    """metrics.json -> {name: [instrument, ...]}."""
    out = {}
    for m in (doc or {}).get("metrics", []):
        out.setdefault(m["name"], []).append(m)
    return out


def hist_mean(obs, name):
    hs = obs.get(name, [])
    count = sum(h["count"] for h in hs)
    return sum(h["sum"] for h in hs) / count if count else 0.0


def engine_counters(r, obs):
    """EngineStats of the run: in-process directly, from the daemon's
    per-session engine_* gauges otherwise."""
    if r["engine"] is not None:
        return r["engine"]
    total = {}
    for key in ("events_fed", "rounds_sequential", "dedup_probes",
                "dedup_hits", "peak_frontier"):
        vals = [g["value"] for g in obs.get("engine_" + key, [])]
        total[key] = (max(vals) if key == "peak_frontier" else sum(vals)) if vals else 0
    return total


def per_layer(workload, plain, traced):
    """Per-layer metrics of the traced run (units in PER_LAYER)."""
    spans = traced["trace"]
    obs = obs_values(traced["obs"])
    all_ns = sum(s["self_ns"] for s in spans.values()) or 1.0
    root = spans.get(REQUEST_SPAN[workload], {})
    requests = root.get("count", 0) or 1

    def share(name):
        return 100.0 * spans.get(name, {}).get("self_ns", 0.0) / all_ns

    m = {
        "gen.lag_us": traced["lag_us"]["mean"],
        "trace.request_us": all_ns / requests / 1e3,
        "trace.overhead": 100.0 * (traced["latency_ms"]["mean"] /
                                   plain["latency_ms"]["mean"] - 1.0),
        "trace.children_share": 100.0 * root.get("children_p50_ns", 0.0) /
                                (root.get("p50_ns", 0.0) or 1.0),
        "engine.round_us": hist_mean(obs, "engine_round_ns") / 1e3,
    }
    for s in SHARE_SPANS:
        m[f"{s}.share"] = share(s)
    m["service.session.share"] = share("service.hello") + share("service.bye")
    frames = traced["frames"]
    m["net.frames"] = float(frames)
    m["net.throttle_ratio"] = traced["throttles"] / frames if frames else 0.0
    drained = sum(c["value"] for c in obs.get("service_events_drained_total", []))
    rounds = sum(c["value"] for c in obs.get("service_drain_rounds_total", []))
    m["service.events_per_round"] = drained / rounds if rounds else 0.0
    m["service.session_lag"] = hist_mean(obs, "service_session_lag")
    # The scraped daemon's executor time over the time it had been loaded
    # (for ingest_bulk, the last epoch's daemon only).
    phase_ns = sum(h["sum"] for h in obs.get("exec_phase_ns", []))
    window_ns = traced["obs_window_s"] * 1e9
    m["parallel.exec_phase.share"] = 100.0 * phase_ns / window_ns if window_ns else 0.0
    slices = {c["labels"].get("by"): c["value"] for c in obs.get("exec_slices_total", [])}
    all_slices = sum(slices.values())
    m["parallel.worker_slice_share"] = \
        100.0 * slices.get("worker", 0) / all_slices if all_slices else 0.0
    resync_ns = sum(h["sum"] for h in obs.get("leveled_resync_ns", []))
    m["views.resync.share"] = 100.0 * resync_ns / all_ns
    m["views.rollback_depth"] = hist_mean(obs, "leveled_rollback_depth")
    eng = engine_counters(traced, obs)
    m["engine.peak_frontier"] = float(eng.get("peak_frontier", 0))
    probes = eng.get("dedup_probes", 0)
    m["engine.dedup_hit_rate"] = eng.get("dedup_hits", 0) / probes if probes else 0.0
    if workload in INGEST:
        # Engine counters cover the sessions still open at the scrape (closed
        # ones left the daemon's registry), so rounds are taken per event fed
        # there and scaled by the events a frame carries.
        per_frame = traced["items"] / frames if frames else 0.0
        fed = eng.get("events_fed", 0)
        m["engine.rounds_per_request"] = \
            eng.get("rounds_sequential", 0) / fed * per_frame if fed else 0.0
        m["engine.events_fed_per_request"] = per_frame
    else:
        m["engine.rounds_per_request"] = \
            (eng.get("rounds_sequential", 0) + eng.get("rounds_parallel", 0)) / requests
        m["engine.events_fed_per_request"] = eng.get("events_fed", 0) / requests
    return m


def run_workload(workload, seed, seconds, scale, trace):
    """Runs one workload (twice with --trace); returns a result dict."""
    plain = run_e2e(workload, seed, seconds, scale, None)
    res = {"workload": workload, "seed": seed, "ok": False, "attempted": 0,
           "failed": 0, "failures": [], "e2e": {}, "layers": {}, "diag": {}}
    if plain is None:
        return res
    res["attempted"] = int(plain["attempted"])
    res["failed"] = int(plain["failed"])
    res["failures"] = plain["failures"]
    res["e2e"] = end_to_end(plain)
    res["diag"] = {"latency_samples": plain["latency_ms"]["samples"],
                   "latency_p95_ms": plain["latency_ms"]["p95"],
                   "latency_p99_ms": plain["latency_ms"]["p99"],
                   "latency_p999_ms": plain["latency_ms"]["p999"],
                   "lag_p99_us": plain["lag_us"]["p99"],
                   "rss_median_mb": plain["rss_median_mb"],
                   "setup_samples": len(plain["setup_s"])}
    ok = plain["exit"] == 0 and res["failed"] == 0 and res["attempted"] > 0
    if trace:
        trace_file = BUILD / "traces" / f"{workload}-seed{seed}.jsonl"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        traced = run_e2e(workload, seed, seconds, scale, trace_file)
        if traced is None or traced["exit"] != 0 or traced["failed"] != 0:
            ok = False
            if traced is not None:
                res["failures"] += traced["failures"]
                res["failed"] += int(traced["failed"])
        else:
            res["attempted"] += int(traced["attempted"])
            res["layers"] = per_layer(workload, plain, traced)
            res["spans"] = traced["trace"]
            res["trace_file"] = str(trace_file)
    res["ok"] = ok
    return res


def fmt(v):
    return f"{v:.6g}"


def print_result(res):
    w = res["workload"]
    status = "ok" if res["ok"] else "FAILED"
    print(f"== {w} (seed {res['seed']}): {status}, "
          f"{res['failed']} failed of {res['attempted']} attempted")
    for f in res["failures"]:
        print(f"   failure: {f}")
    for name, unit in END_TO_END.items():
        if name in res["e2e"]:
            print(f"   {name:34s} {fmt(res['e2e'][name]):>14s} {unit}")
    for name, v in res["diag"].items():
        print(f"   ({name}) {fmt(v)}")
    for name, unit in PER_LAYER.items():
        if name in res["layers"]:
            print(f"   {name:34s} {fmt(res['layers'][name]):>14s} {unit}")
    if "spans" in res:
        print("   span self time per occurrence (kept requests): p50 / p99 us, count")
        for name, s in sorted(res["spans"].items()):
            print(f"     {name:30s} {s['p50_ns'] / 1e3:12.3f} {s['p99_ns'] / 1e3:12.3f}"
                  f"  {int(s['count'])}")
        print(f"   trace: {res['trace_file']}")


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs):
    """{metric: {median, q1, q3, spread, values}} over repeated results."""
    out = {}
    for key in ("e2e", "layers", "diag"):
        names = sorted({n for r in runs for n in r[key]})
        for n in names:
            vals = [r[key][n] for r in runs if n in r[key]]
            q1, med, q3 = quartiles(vals)
            out[n] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / abs(med) if med else 0.0,
                      "values": vals}
    return out


def result_line(results, trace, single):
    """The result line: per-layer metrics when traced, end-to-end otherwise."""
    metrics = {}
    table = PER_LAYER if trace else END_TO_END
    for r in results:
        values = r["layers"] if trace else r["e2e"]
        for name, unit in table.items():
            if name in values:
                key = name if single else f"{r['workload']}.{name}"
                metrics[key] = {"value": values[name], "unit": unit}
    # A run that printed no report counts as one failed attempt.
    failed = sum(r["failed"] or (0 if r["ok"] else 1) for r in results)
    attempted = max(sum(r["attempted"] for r in results), failed, 1)
    correct = bool(results) and failed == 0 and all(r["ok"] for r in results)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out", default=str(BUILD / "repeat.json"),
                    help="where --repeat writes its medians and quartiles")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    if args.seconds is None:
        try:
            bench = json.loads((ROOT / "BENCHMARK.json").read_text())
            args.seconds = float(bench["run_seconds"])
        except (OSError, ValueError, KeyError) as e:
            log(f"run.py: no run length given and none in BENCHMARK.json: {e}")
            return 2
    if not build():
        return 2
    workloads = [args.workload] if args.workload else WORKLOADS
    scale, seconds = (QUICK_SCALE, QUICK_SECONDS) if args.quick else (1.0, args.seconds)
    trace = bool(args.trace) or args.quick

    results, summary = [], {}
    started = time.monotonic()
    for w in workloads:
        runs = []
        for i in range(max(args.repeat, 1)):
            res = run_workload(w, args.seed + i, seconds, scale, trace)
            print_result(res)
            runs.append(res)
        results.extend(runs)
        if args.repeat > 1:
            summary[w] = summarize(runs)
    if summary:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
        print(f"== medians and quartiles over {args.repeat} seeds -> {args.out}")
        for w, metrics in summary.items():
            for name, s in metrics.items():
                print(f"   {w:16s} {name:34s} median {fmt(s['median']):>12s}  "
                      f"q1 {fmt(s['q1']):>12s}  q3 {fmt(s['q3']):>12s}  "
                      f"spread {100 * s['spread']:.2f}%")
    if args.quick:
        print(f"== quick self-test took {time.monotonic() - started:.1f} s")
    line = result_line(results, bool(args.trace) and not args.quick,
                       single=len(workloads) == 1 and args.repeat == 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
