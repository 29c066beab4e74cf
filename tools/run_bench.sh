#!/usr/bin/env bash
# Runs the membership-engine benchmarks (bench_lincheck + bench_detection)
# and folds the results into BENCH_lincheck.json at the repo root, so the
# perf trajectory is tracked PR over PR.
#
# Usage: tools/run_bench.sh [build-dir] \
#            [--facet all|leveled_replay|multi_session|obs_overhead|closure_hot|ingest|enforced|abd_cluster] \
#            [--allow-non-release]
#
# Recorded numbers are only comparable between optimized builds, so the
# script configures/builds the bench binaries itself with
# CMAKE_BUILD_TYPE=Release and refuses to record from any other build type
# unless --allow-non-release is given (which tags every touched facet with
# "non_release_run": true so the gate and readers can discount it).  The
# same gate covers the benchmark *library*: the system libbenchmark is a
# Debian debug build (self-reported library_build_type=debug, unoptimized
# timing loops), so the script probes the binary's reported library build
# type and refuses to record against a non-release library unless
# --allow-non-release is given — configure with
# -DSELIN_BENCHMARK_FROM_SOURCE=ON (network required; CI's bench jobs do)
# to build the library in Release.  Facets recorded over a debug library
# carry "debug_benchmark_library": true; the recorded library_build_type is
# taken from the bench binaries' CMAKE_BUILD_TYPE (the thing being
# measured) and the library's own value is kept as
# benchmark_library_build_type.
#
# --facet leveled_replay re-runs only the leveled checker's rollback-storm
# benchmark (bench_leveled_replay) and replaces just the `leveled_replay`
# facet of BENCH_lincheck.json, leaving every other recorded number
# untouched; --facet multi_session does the same for the multi-tenant
# service sweep (bench_multi_session: aggregate events/sec by session
# count), and --facet obs_overhead for the observability
# tax facet (bench_obs_overhead: incremental-monitor throughput detached vs
# metrics vs metrics+trace; the ISSUE 7 budget is <= 2% with metrics
# attached), and --facet closure_hot for the closure hot-path facet
# (bench_closure_hot: dup-heavy/dup-light monitor runs with the dedup-probe
# prefetch on and off; raw run shape, gated by tools/bench_gate.py), and
# --facet ingest for the live-ingest facet (bench_ingest: binary wire decode
# vs text parse vs MPSC publish+drain; raw run shape, excluded from the
# gate — see BM_Ingest in tools/bench_gate.py), and --facet enforced for the
# enforcement A/B (bench_self_enforced's BM_EnforcedVerifiedOps: verified-op
# throughput of the coupled and the decoupled deployment; the facet stores
# per-mode items/s and the decoupled/coupled speedup), and
# --facet abd_cluster for the monitored-ABD-cluster sweep (bench_abd_cluster:
# hundreds-to-thousands of logical clients over reliable and lossy/reordered
# simulated links, every op runtime-verified; stores verified-ops/s plus
# protocol-message/drop/retransmit counters per (clients, loss) point).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="$repo_root/BENCH_lincheck.json"

facet="all"
build_dir="$repo_root/build"
allow_non_release=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --facet)
      [[ $# -ge 2 ]] || { echo "error: --facet needs a value" >&2; exit 2; }
      facet="$2"
      shift 2
      ;;
    --allow-non-release)
      allow_non_release=1
      shift
      ;;
    --*)
      echo "error: unknown flag $1" >&2
      exit 2
      ;;
    *)
      build_dir="$1"
      shift
      ;;
  esac
done
case "$facet" in
  all|leveled_replay|multi_session|obs_overhead|closure_hot|ingest|enforced|abd_cluster) ;;
  *) echo "error: unknown facet '$facet' (all | leveled_replay | multi_session | obs_overhead | closure_hot | ingest | enforced | abd_cluster)" >&2; exit 2 ;;
esac

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Release discipline: configure the build dir ourselves when it doesn't
# exist, always (re)build the bench binaries, and refuse to record numbers
# from a non-Release build unless explicitly overridden.
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")"
if [[ "$build_type" != "Release" ]]; then
  if [[ $allow_non_release -eq 0 ]]; then
    echo "error: $build_dir is CMAKE_BUILD_TYPE='$build_type', not Release;" >&2
    echo "       refusing to record non-comparable numbers" >&2
    echo "       (re-run with --allow-non-release to record them tagged)" >&2
    exit 1
  fi
  echo "WARNING: recording from a '$build_type' build; facets will carry" >&2
  echo "         non_release_run=true and must not be used as a baseline" >&2
fi
cmake --build "$build_dir" -j"$(nproc)"
export SELIN_BENCH_BUILD_TYPE="$build_type"

if [[ ! -x "$build_dir/bench_lincheck" ]]; then
  echo "error: benchmarks not built in $build_dir (cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

# Library half of the Release gate: probe the benchmark library's own build
# type from the context block of a sub-second run (a no-match filter writes
# no output file at all, so the probe runs the smallest lincheck workload).
# The system Debian package is a debug library whose timing loops are
# unoptimized, so recording against it needs the same explicit override as
# a non-Release build of our own code.
"$build_dir/bench_lincheck" \
    --benchmark_filter='^BM_OfflineCheckVsLength/0/16$' \
    --benchmark_min_time=0.001 \
    --benchmark_out="$tmp/probe.json" --benchmark_out_format=json \
    > /dev/null
lib_build_type="$(python3 -c \
    "import json, sys; print(str(json.load(open(sys.argv[1]))['context'].get('library_build_type', 'unknown')).lower())" \
    "$tmp/probe.json")"
export SELIN_BENCH_LIB_BUILD_TYPE="$lib_build_type"
if [[ "$lib_build_type" != "release" ]]; then
  if [[ $allow_non_release -eq 0 ]]; then
    echo "error: the benchmark library is a '$lib_build_type' build;" >&2
    echo "       configure with -DSELIN_BENCHMARK_FROM_SOURCE=ON to build" >&2
    echo "       it in Release (needs network), or re-run with" >&2
    echo "       --allow-non-release to record tagged numbers" >&2
    exit 1
  fi
  echo "WARNING: recording against a '$lib_build_type' benchmark library;" >&2
  echo "         facets will carry debug_benchmark_library=true" >&2
fi

if [[ "$facet" == "leveled_replay" ]]; then
  if [[ ! -x "$build_dir/bench_leveled_replay" ]]; then
    echo "error: bench_leveled_replay not built in $build_dir" >&2
    exit 1
  fi
  "$build_dir/bench_leveled_replay" \
      --benchmark_out="$tmp/leveled.json" --benchmark_out_format=json
elif [[ "$facet" == "multi_session" ]]; then
  if [[ ! -x "$build_dir/bench_multi_session" ]]; then
    echo "error: bench_multi_session not built in $build_dir" >&2
    exit 1
  fi
  "$build_dir/bench_multi_session" \
      --benchmark_out="$tmp/multi_session.json" --benchmark_out_format=json
elif [[ "$facet" == "obs_overhead" ]]; then
  if [[ ! -x "$build_dir/bench_obs_overhead" ]]; then
    echo "error: bench_obs_overhead not built in $build_dir" >&2
    exit 1
  fi
  # Repetitions + min-time damp single-run jitter: the facet stores the
  # best (min real_time) repetition per arm so a 2% budget is measurable.
  "$build_dir/bench_obs_overhead" \
      --benchmark_min_time=0.25 --benchmark_repetitions=5 \
      --benchmark_report_aggregates_only=false \
      --benchmark_out="$tmp/obs_overhead.json" --benchmark_out_format=json
elif [[ "$facet" == "closure_hot" ]]; then
  if [[ ! -x "$build_dir/bench_closure_hot" ]]; then
    echo "error: bench_closure_hot not built in $build_dir" >&2
    exit 1
  fi
  "$build_dir/bench_closure_hot" \
      --benchmark_min_time=0.1 --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=false \
      --benchmark_out="$tmp/closure_hot.json" --benchmark_out_format=json
elif [[ "$facet" == "ingest" ]]; then
  if [[ ! -x "$build_dir/bench_ingest" ]]; then
    echo "error: bench_ingest not built in $build_dir" >&2
    exit 1
  fi
  "$build_dir/bench_ingest" \
      --benchmark_min_time=0.1 --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=false \
      --benchmark_out="$tmp/ingest.json" --benchmark_out_format=json
elif [[ "$facet" == "enforced" ]]; then
  if [[ ! -x "$build_dir/bench_self_enforced" ]]; then
    echo "error: bench_self_enforced not built in $build_dir" >&2
    exit 1
  fi
  # Fixed-iteration A/B: repetitions damp scheduler jitter and the facet
  # stores the best repetition per mode, so the speedup ratio is stable
  # even on a loaded host.
  "$build_dir/bench_self_enforced" \
      --benchmark_filter='BM_EnforcedVerifiedOps' \
      --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=false \
      --benchmark_out="$tmp/enforced.json" --benchmark_out_format=json
elif [[ "$facet" == "abd_cluster" ]]; then
  if [[ ! -x "$build_dir/bench_abd_cluster" ]]; then
    echo "error: bench_abd_cluster not built in $build_dir" >&2
    exit 1
  fi
  "$build_dir/bench_abd_cluster" \
      --benchmark_out="$tmp/abd_cluster.json" --benchmark_out_format=json
else
  if [[ ! -x "$build_dir/bench_detection" ]]; then
    echo "error: benchmarks not built in $build_dir (cmake -B build -S . && cmake --build build -j)" >&2
    exit 1
  fi
  "$build_dir/bench_lincheck" \
      --benchmark_out="$tmp/lincheck.json" --benchmark_out_format=json
  "$build_dir/bench_detection" \
      --benchmark_out="$tmp/detection.json" --benchmark_out_format=json
  if [[ -x "$build_dir/bench_leveled_replay" ]]; then
    "$build_dir/bench_leveled_replay" \
        --benchmark_out="$tmp/leveled.json" --benchmark_out_format=json
  fi
  if [[ -x "$build_dir/bench_multi_session" ]]; then
    "$build_dir/bench_multi_session" \
        --benchmark_out="$tmp/multi_session.json" --benchmark_out_format=json
  fi
  if [[ -x "$build_dir/bench_obs_overhead" ]]; then
    "$build_dir/bench_obs_overhead" \
        --benchmark_min_time=0.25 --benchmark_repetitions=5 \
        --benchmark_report_aggregates_only=false \
        --benchmark_out="$tmp/obs_overhead.json" --benchmark_out_format=json
  fi
  if [[ -x "$build_dir/bench_closure_hot" ]]; then
    "$build_dir/bench_closure_hot" \
        --benchmark_min_time=0.1 --benchmark_repetitions=3 \
        --benchmark_report_aggregates_only=false \
        --benchmark_out="$tmp/closure_hot.json" --benchmark_out_format=json
  fi
  if [[ -x "$build_dir/bench_ingest" ]]; then
    "$build_dir/bench_ingest" \
        --benchmark_min_time=0.1 --benchmark_repetitions=3 \
        --benchmark_report_aggregates_only=false \
        --benchmark_out="$tmp/ingest.json" --benchmark_out_format=json
  fi
  if [[ -x "$build_dir/bench_self_enforced" ]]; then
    "$build_dir/bench_self_enforced" \
        --benchmark_filter='BM_EnforcedVerifiedOps' \
        --benchmark_repetitions=3 \
        --benchmark_report_aggregates_only=false \
        --benchmark_out="$tmp/enforced.json" --benchmark_out_format=json
  fi
  if [[ -x "$build_dir/bench_abd_cluster" ]]; then
    "$build_dir/bench_abd_cluster" \
        --benchmark_out="$tmp/abd_cluster.json" --benchmark_out_format=json
  fi
fi

python3 - "$facet" "$tmp/lincheck.json" "$tmp/detection.json" "$tmp/leveled.json" "$tmp/multi_session.json" "$tmp/obs_overhead.json" "$tmp/closure_hot.json" "$tmp/ingest.json" "$tmp/enforced.json" "$tmp/abd_cluster.json" "$out" <<'EOF'
import json, os, sys

(mode, lincheck, detection, leveled, multi_session,
 obs_overhead, closure_hot, ingest, enforced, abd_cluster,
 out) = sys.argv[1:12]

# The build type of the *bench binaries* (what run_bench.sh just built and
# measured); the benchmark library's own build type is recorded separately
# because the Debian package is a debug build and says so forever.
BUILD_TYPE = os.environ.get("SELIN_BENCH_BUILD_TYPE", "unknown").lower()
LIB_BUILD_TYPE = os.environ.get("SELIN_BENCH_LIB_BUILD_TYPE",
                                "unknown").lower()

def tag_non_release(d):
    if BUILD_TYPE != "release":
        d["non_release_run"] = True
    if LIB_BUILD_TYPE != "release":
        d["debug_benchmark_library"] = True
    return d

def load(path):
    with open(path) as f:
        data = json.load(f)
    ctx = {k: data["context"].get(k)
           for k in ("date", "host_name", "num_cpus", "mhz_per_cpu")}
    ctx["library_build_type"] = BUILD_TYPE
    ctx["benchmark_library_build_type"] = \
        data["context"].get("library_build_type")
    return tag_non_release({"context": ctx, "benchmarks": data["benchmarks"]})

def leveled_replay_facet(run):
    """Rollback-storm throughput of the leveled checker
    (BM_LeveledRollbackStorm: inline checkpoints at the default stride)."""
    rates = [b["items_per_second"] for b in run["benchmarks"]
             if b.get("name", "").startswith("BM_LeveledRollbackStorm")
             and b.get("run_type") != "aggregate"
             and "items_per_second" in b]
    if not rates:
        return None
    return tag_non_release({
        "workload": "rollback storm (88-level pqueue spine, 10 stragglers "
                    "=> 2^10-wide replay frontier, one rollback each)",
        "num_cpus": run["context"].get("num_cpus"),
        "items_per_second": max(rates),
    })

def multi_session_facet(run):
    """Aggregate verified-events/sec of the multi-tenant service by session
    count — BM_MultiSessionThroughput — plus the single-monitor batched-feed
    A/B (BM_BatchedFeedAmortization).  Excluded from the regression gate
    (tools/bench_gate.py)."""
    per_sessions, batch = {}, {}
    for b in run["benchmarks"]:
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or "items_per_second" not in b:
            continue
        if name.startswith("BM_MultiSessionThroughput/"):
            per_sessions[name.split("/")[1]] = b["items_per_second"]
        elif name.startswith("BM_BatchedFeedAmortization/"):
            arg = name.split("/")[1]
            arm = "per-event" if arg == "0" else f"batch={arg}"
            batch[arm] = b["items_per_second"]
    if not per_sessions:
        return None
    return tag_non_release({
        "workload": "N independent linearizable sessions (256 ops each, "
                    "mixed specs) drained in turn by one service; key = "
                    "sessions",
        "num_cpus": run["context"].get("num_cpus"),
        "events_per_second_by_sessions": per_sessions,
        "batched_feed_events_per_second": batch or None,
    })

def obs_overhead_facet(run):
    """Observability tax on the incremental monitor's feed hot path
    (bench_obs_overhead — BM_ObsOverhead/0 detached, /1 metrics attached,
    /2 metrics + RingRecorder trace).  Stores each arm's best-repetition
    throughput and the relative overhead vs the detached arm; the ISSUE 7
    budget is overhead_pct.metrics <= 2.  Single-threaded and
    deterministic, but excluded from the wall-time regression gate
    (tools/bench_gate.py): the quantity gated here is the *ratio* between
    arms, which this facet records directly."""
    arms = {"0": "detached", "1": "metrics", "2": "metrics+trace"}
    per_arm = {}
    for b in run["benchmarks"]:
        name = b.get("name", "")
        if (not name.startswith("BM_ObsOverhead/")
                or b.get("run_type") == "aggregate"
                or "items_per_second" not in b):
            continue
        arm = arms.get(name.split("/")[1])
        if arm is None:
            continue
        # min real_time across repetitions == max items_per_second
        cur = per_arm.get(arm)
        if cur is None or b["items_per_second"] > cur:
            per_arm[arm] = b["items_per_second"]
    if "detached" not in per_arm:
        return None
    base = per_arm["detached"]
    return tag_non_release({
        "workload": "incremental queue monitor, 512-op linearizable "
                    "history (concurrency window 2), one feed per "
                    "iteration; best of 5 repetitions per arm",
        "events_per_second_by_arm": per_arm,
        "overhead_pct_vs_detached": {
            a: (base / v - 1.0) * 100.0
            for a, v in per_arm.items() if a != "detached"
        },
        "budget_pct": 2.0,
    })

def enforced_facet(run):
    """The enforcement A/B (bench_self_enforced's BM_EnforcedVerifiedOps):
    verified-op throughput of the coupled deployment (mode 0, Figure 11)
    vs the batched decoupled one (mode 1, Figure 12), one driver thread,
    identical op stream.  Stores the best repetition per mode plus the
    decoupled/coupled speedup.  Excluded from the wall-time gate
    (tools/bench_gate.py): the tracked quantity is the ratio between arms,
    recorded here directly."""
    arms = {"0": "coupled", "1": "decoupled"}
    per_arm = {}
    for b in run["benchmarks"]:
        name = b.get("name", "")
        if (not name.startswith("BM_EnforcedVerifiedOps/")
                or b.get("run_type") == "aggregate"
                or "items_per_second" not in b):
            continue
        arm = arms.get(name.split("/")[1])
        if arm is None:
            continue
        cur = per_arm.get(arm)
        if cur is None or b["items_per_second"] > cur:
            per_arm[arm] = b["items_per_second"]
    if "coupled" not in per_arm:
        return None
    base = per_arm["coupled"]
    return tag_non_release({
        "workload": "16 process slots, single driver, random queue ops; "
                    "every op verified (decoupled arm: one shared verifier "
                    "pass per 256 applies); best of 3 repetitions per arm",
        "verified_ops_per_second_by_arm": per_arm,
        "speedup_vs_coupled": {
            a: (v / base if base else None)
            for a, v in per_arm.items() if a != "coupled"
        },
    })

def abd_cluster_facet(run):
    """The monitored-ABD-cluster sweep (bench_abd_cluster): logical clients
    multiplexed over 4 driver threads against a 3-replica simulated ABD
    register cluster, every operation runtime-verified through per-key
    MonitorService sessions; reliable and lossy+reordered link arms.  Key =
    clients@dropN (permille).  all_ok must be 1.0 everywhere — the cluster
    is correct, loss only widens op intervals."""
    rows = {}
    for b in run["benchmarks"]:
        name = b.get("name", "")
        if (not name.startswith("BM_AbdClusterVerifiedOps/")
                or b.get("run_type") == "aggregate"
                or "items_per_second" not in b):
            continue
        parts = name.split("/")
        key = f"{parts[1]}@drop{parts[2]}"
        row = {"verified_ops_per_second": b["items_per_second"]}
        for k in ("msgs_per_op", "dropped", "retransmits", "events_fed",
                  "all_ok"):
            if k in b:
                row[k] = b[k]
        rows[key] = row
    if not rows:
        return None
    return tag_non_release({
        "workload": "3-replica simulated ABD cluster, 4 keys, 4 driver "
                    "threads x N logical clients, 50/50 read/write; lossy "
                    "arms drop 2% of messages and deliver reordered, "
                    "clients retransmit; key = clients@drop_permille",
        "num_cpus": run["context"].get("num_cpus"),
        "per_arm": rows,
    })

# The single-binary facet modes run one bench alone, so no lincheck.json
# exists to load — handle them before touching the other runs.
if mode == "closure_hot":
    # Stored run-shaped (raw context + benchmarks), like bench_lincheck:
    # tools/bench_gate.py gates on its real_time rows via stable_rows().
    facet = load(closure_hot)
    if not facet.get("benchmarks"):
        sys.exit("error: no BM_ClosureHot results in this run")
    try:
        with open(out) as f:
            result = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        sys.exit(f"error: {out} missing or unreadable; run the full suite first")
    result["closure_hot"] = facet
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"updated closure_hot facet of {out}")
    sys.exit(0)

if mode == "ingest":
    # Run-shaped like closure_hot; excluded from the wall-time gate
    # (BM_Ingest in tools/bench_gate.py UNSTABLE_PREFIXES) — the facet
    # tracks the wire-vs-text ratio, not absolute times.
    facet = load(ingest)
    if not facet.get("benchmarks"):
        sys.exit("error: no BM_Ingest results in this run")
    try:
        with open(out) as f:
            result = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        sys.exit(f"error: {out} missing or unreadable; run the full suite first")
    result["ingest"] = facet
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"updated ingest facet of {out}")
    sys.exit(0)

if mode == "enforced":
    with open(enforced) as f:
        facet = enforced_facet(json.load(f))
    if facet is None:
        sys.exit("error: no BM_EnforcedVerifiedOps results in this run")
    try:
        with open(out) as f:
            result = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        sys.exit(f"error: {out} missing or unreadable; run the full suite first")
    result["enforced"] = facet
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"updated enforced facet of {out}")
    sys.exit(0)

if mode == "abd_cluster":
    with open(abd_cluster) as f:
        facet = abd_cluster_facet(json.load(f))
    if facet is None:
        sys.exit("error: no BM_AbdClusterVerifiedOps results in this run")
    try:
        with open(out) as f:
            result = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        sys.exit(f"error: {out} missing or unreadable; run the full suite first")
    result["abd_cluster"] = facet
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"updated abd_cluster facet of {out}")
    sys.exit(0)

if mode == "obs_overhead":
    with open(obs_overhead) as f:
        facet = obs_overhead_facet(json.load(f))
    if facet is None:
        sys.exit("error: no BM_ObsOverhead results in this run")
    try:
        with open(out) as f:
            result = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        sys.exit(f"error: {out} missing or unreadable; run the full suite first")
    result["obs_overhead"] = facet
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"updated obs_overhead facet of {out}")
    sys.exit(0)

if mode == "multi_session":
    facet = multi_session_facet(load(multi_session))
    if facet is None:
        sys.exit("error: no BM_MultiSessionThroughput results in this run")
    try:
        with open(out) as f:
            result = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        sys.exit(f"error: {out} missing or unreadable; run the full suite first")
    result["multi_session"] = facet
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"updated multi_session facet of {out}")
    sys.exit(0)

if mode == "leveled_replay":
    facet = leveled_replay_facet(load(leveled))
    if facet is None:
        sys.exit("error: no BM_LeveledRollbackStorm results in this run")
    try:
        with open(out) as f:
            result = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        sys.exit(f"error: {out} missing or unreadable; run the full suite first")
    result["leveled_replay"] = facet
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"updated leveled_replay facet of {out}")
    sys.exit(0)

result = {"bench_lincheck": load(lincheck), "bench_detection": load(detection)}
try:
    leveled_facet = leveled_replay_facet(load(leveled))
except FileNotFoundError:
    leveled_facet = None
if leveled_facet is not None:
    result["leveled_replay"] = leveled_facet
try:
    session_facet = multi_session_facet(load(multi_session))
except FileNotFoundError:
    session_facet = None
if session_facet is not None:
    result["multi_session"] = session_facet
try:
    with open(obs_overhead) as f:
        obs_facet = obs_overhead_facet(json.load(f))
except FileNotFoundError:
    obs_facet = None
if obs_facet is not None:
    result["obs_overhead"] = obs_facet
try:
    closure_facet = load(closure_hot)
except FileNotFoundError:
    closure_facet = None
if closure_facet is not None and closure_facet.get("benchmarks"):
    result["closure_hot"] = closure_facet
try:
    ingest_facet = load(ingest)
except FileNotFoundError:
    ingest_facet = None
if ingest_facet is not None and ingest_facet.get("benchmarks"):
    result["ingest"] = ingest_facet
try:
    with open(enforced) as f:
        enforced_data = enforced_facet(json.load(f))
except FileNotFoundError:
    enforced_data = None
if enforced_data is not None:
    result["enforced"] = enforced_data
try:
    with open(abd_cluster) as f:
        abd_facet = abd_cluster_facet(json.load(f))
except FileNotFoundError:
    abd_facet = None
if abd_facet is not None:
    result["abd_cluster"] = abd_facet

# Preserve facets recorded by earlier PRs/other hosts when this run did not
# produce them (baseline_string_key is PR 1's string-key engine baseline;
# leveled_replay/multi_session go missing when their benches weren't built).
try:
    with open(out) as f:
        prev = json.load(f)
    for key in ("baseline_string_key", "leveled_replay",
                "multi_session", "obs_overhead",
                "closure_hot", "ingest", "enforced", "abd_cluster"):
        if key in prev and key not in result:
            result[key] = prev[key]
except (FileNotFoundError, json.JSONDecodeError):
    pass

with open(out, "w") as f:
    json.dump(result, f, indent=1)
print(f"wrote {out}")
EOF
