#!/usr/bin/env bash
# Exit-code and output contract of selin_check, single- and multi-history
# modes (registered as ctest target selin_check_cli).
#
#   single: 0 linearizable | 1 not | 2 usage/parse | 3 overflow
#   multi:  0 all ok | 1 any violation | 2 usage | 3 any overflow
#           | 4 any session error (unreadable/malformed file)
#
# Usage: selin_check_cli_test.sh <path-to-selin_check> <path-to-gen-script>
set -u

bin="$1"
gen="$2"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
fails=0

expect() {
  local want="$1"; shift
  "$@" > "$tmp/out" 2> "$tmp/err"
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: exit $got (want $want): $*" >&2
    sed 's/^/  out: /' "$tmp/out" >&2
    sed 's/^/  err: /' "$tmp/err" >&2
    fails=$((fails + 1))
  else
    echo "ok: exit $got: $*"
  fi
}

expect_grep() {
  local pattern="$1"
  if ! grep -Eq "$pattern" "$tmp/out"; then
    echo "FAIL: output missing /$pattern/" >&2
    sed 's/^/  out: /' "$tmp/out" >&2
    fails=$((fails + 1))
  else
    echo "ok: output has /$pattern/"
  fi
}

bash "$gen" "$tmp/hists" --with-broken

ok_files=("$tmp"/hists/ok_*.hist)

# Overflow sample: 6 concurrently open enqueues, then a response forcing a
# closure far past selin_check's budget is impossible at 2^18 — instead
# craft one with sustained width 20 (frontier 20! >> 2^18 on the closure).
overflow="$tmp/overflow.hist"
: > "$overflow"
for p in $(seq 0 19); do
  echo "inv $p 0 Enqueue $((p + 1))" >> "$overflow"
done
echo "res 0 0 Enqueue 1 true" >> "$overflow"

# ---- single-history mode ---------------------------------------------------
expect 0 "$bin" queue "${ok_files[0]}"
expect 0 "$bin" queue "${ok_files[0]}" --witness --stats
expect 1 "$bin" queue "$tmp/hists/bad_fifo.hist"
expect 2 "$bin" queue "$tmp/hists/broken.hist"
expect 2 "$bin" queue "$tmp/does-not-exist.hist"
expect 2 "$bin" frobnicator "${ok_files[0]}"
expect 2 "$bin" queue "${ok_files[0]}" --bogus-flag
expect 3 "$bin" queue "$overflow"
# A pid of 2^32 is a parse error: read through a narrowing cast it once
# became pid 0 and merged two processes of the trace.
pid_wrap="$tmp/pid_wrap.hist"
printf 'inv 4294967296 0 Dequeue\n' > "$pid_wrap"
expect 2 "$bin" queue "$pid_wrap"

# ---- multi-history mode ----------------------------------------------------
# All accepting: 0, and the summary table lists every file as OK.
expect 0 "$bin" queue "${ok_files[@]}"
expect_grep '^file +verdict +events$'
expect_grep 'ok_1\.hist +OK +10'

# Any violation: 1, named in the table.
expect 1 "$bin" queue "${ok_files[@]}" "$tmp/hists/bad_fifo.hist"
expect_grep 'bad_fifo\.hist +VIOLATION'

# Any overflow outranks violations: 3.
expect 3 "$bin" queue "${ok_files[@]}" "$tmp/hists/bad_fifo.hist" \
  "$overflow"
expect_grep 'overflow\.hist +OVERFLOW'

# Any session error (malformed or unreadable) outranks everything: 4.
expect 4 "$bin" queue "${ok_files[@]}" "$tmp/hists/broken.hist"
expect_grep 'broken\.hist +ERROR'
expect 4 "$bin" queue "${ok_files[0]}" "$tmp/does-not-exist.hist"
# A directory opens but never reads: a dead stream is an ERROR, not EOF/OK.
expect 4 "$bin" queue "${ok_files[0]}" "$tmp/hists"

# --quiet multi prints only non-OK rows.
expect 1 "$bin" queue "${ok_files[@]}" "$tmp/hists/bad_fifo.hist" --quiet
expect_grep 'bad_fifo\.hist +VIOLATION'
if grep -q "ok_1.hist" "$tmp/out"; then
  echo "FAIL: --quiet printed an OK row" >&2
  fails=$((fails + 1))
fi
# Usage errors in multi mode: stdin and --witness are single-only.
expect 2 "$bin" queue "${ok_files[0]}" -
expect 2 "$bin" queue "${ok_files[@]}" --witness
# Files are checked one after another: --jobs is an unknown flag.
expect 2 "$bin" queue "${ok_files[@]}" --jobs 2

# ---- observability outputs -------------------------------------------------
# A JSON round-trip helper: parses stdin as JSON, checks that a
# dot-separated key path exists, fails loudly otherwise.
json_has() {
  local file="$1"; shift
  if ! python3 - "$file" "$@" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for path in sys.argv[2:]:
    node = doc
    for part in path.split('.'):
        node = node[part]
sys.exit(0)
PY
  then
    echo "FAIL: JSON contract violated ($*) in $file" >&2
    sed 's/^/  out: /' "$file" >&2
    fails=$((fails + 1))
  else
    echo "ok: JSON contract $*"
  fi
}

# The stable EngineStats key set of --stats-json, exactly: a missing or an
# extra top-level key fails the row.
stats_keys=(events_fed rounds_sequential peak_frontier dedup_probes dedup_hits
            states_recycled probe_batches prefetch_batches
            filter_in_place_rounds)
json_keys_are() {
  local file="$1"; shift
  if ! python3 - "$file" "$@" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
sys.exit(0 if sorted(doc) == sorted(sys.argv[2:]) else 1)
PY
  then
    echo "FAIL: JSON keys differ from ($*) in $file" >&2
    sed 's/^/  out: /' "$file" >&2
    fails=$((fails + 1))
  else
    echo "ok: JSON keys are $*"
  fi
}

# --stats-json: one JSON object with the stable EngineStats keys; the
# verdict exit code is unchanged.
expect 0 "$bin" queue "${ok_files[0]}" --quiet --stats-json
json_keys_are "$tmp/out" "${stats_keys[@]}"

# --metrics -: stdout is a single JSON document that round-trips through a
# parser (the ISSUE acceptance contract), even when attached to a run that
# also traces; verdict exit codes survive.
expect 0 "$bin" queue "${ok_files[0]}" --metrics - --trace "$tmp/trace.jsonl"
json_has "$tmp/out" metrics
if ! python3 -c "
import json, sys
doc = json.load(open('$tmp/out'))
names = {m['name'] for m in doc['metrics']}
assert 'engine_round_ns' in names, names
assert 'engine_events_fed' in names, names
h = next(m for m in doc['metrics'] if m['name'] == 'engine_round_ns'
         and m['labels'].get('mode') == 'seq')
assert h['kind'] == 'histogram' and h['count'] > 0, h
"; then
  echo "FAIL: --metrics - snapshot missing engine instruments" >&2
  fails=$((fails + 1))
else
  echo "ok: --metrics - carries engine instruments"
fi
# Every trace line is itself JSON with the span fields.
if ! python3 -c "
import json
lines = [json.loads(l) for l in open('$tmp/trace.jsonl')]
assert lines, 'empty trace'
for ev in lines:
    for k in ('seq', 'kind', 'session', 't_ns', 'dur_ns', 'p0'):
        assert k in ev, (k, ev)
assert any(ev['kind'] == 'feed_round' for ev in lines)
"; then
  echo "FAIL: --trace output is not well-formed JSONL" >&2
  fails=$((fails + 1))
else
  echo "ok: --trace emits well-formed JSONL spans"
fi

# Exit codes pass through --metrics: a violating history still exits 1 and
# still emits a parseable document.
expect 1 "$bin" queue "$tmp/hists/bad_fifo.hist" --metrics -
json_has "$tmp/out" metrics
# An unwritable metrics target is a usage error.
expect 2 "$bin" queue "${ok_files[0]}" --metrics "$tmp/no-such-dir/m.json"
expect 2 "$bin" queue "${ok_files[0]}" --trace "$tmp/no-such-dir/t.jsonl"

# Multi mode: --metrics - suppresses the table, merges per-session
# registries (session labels) with service drain-round instruments.
expect 1 "$bin" queue "${ok_files[@]}" "$tmp/hists/bad_fifo.hist" \
  --metrics -
if ! python3 -c "
import json
doc = json.load(open('$tmp/out'))
names = {m['name'] for m in doc['metrics']}
assert 'service_drain_sessions' in names, names
assert 'service_events_drained_total' in names, names
sessions = {m['labels']['session'] for m in doc['metrics']
            if 'session' in m['labels']}
assert len(sessions) == $((${#ok_files[@]} + 1)), sessions
"; then
  echo "FAIL: multi-mode metrics document wrong" >&2
  sed 's/^/  out: /' "$tmp/out" >&2
  fails=$((fails + 1))
else
  echo "ok: multi-mode --metrics - merges session + service registries"
fi
# ---- enforcement replay (--enforced) ---------------------------------------
# A good history re-runs the Figure 11 per-op path clean (exit 0); a
# violating one is flagged by some process's check (exit 1); the sustained-
# width sample blows a checker's budget (exit 3, verdict unknown).
expect 0 "$bin" queue "${ok_files[0]}" --enforced
expect_grep '^ENFORCED OK'
expect 1 "$bin" queue "$tmp/hists/bad_fifo.hist" --enforced
expect_grep '^FLAGGED'
expect 3 "$bin" queue "$overflow" --enforced
expect 2 "$bin" queue "$tmp/hists/broken.hist" --enforced
# Mode guards: --enforced is single-history only and excludes --witness.
expect 2 "$bin" queue "${ok_files[@]}" --enforced
expect 2 "$bin" queue "${ok_files[0]}" --enforced --witness
# --stats-json surfaces the aggregated checker EngineStats with the same
# pinned key set as membership mode (enforced objects are not opaque to the
# observability plane).
expect 0 "$bin" queue "${ok_files[0]}" --enforced --quiet --stats-json
json_keys_are "$tmp/out" "${stats_keys[@]}"
# --metrics -: a parseable document with engine instruments attached to the
# enforcement checkers; the verdict exit code passes through.
expect 0 "$bin" queue "${ok_files[0]}" --enforced --metrics -
json_has "$tmp/out" metrics
if ! python3 -c "
import json
doc = json.load(open('$tmp/out'))
names = {m['name'] for m in doc['metrics']}
assert 'engine_events_fed' in names, names
"; then
  echo "FAIL: --enforced --metrics - missing engine instruments" >&2
  sed 's/^/  out: /' "$tmp/out" >&2
  fails=$((fails + 1))
else
  echo "ok: --enforced --metrics - carries engine instruments"
fi
expect 1 "$bin" queue "$tmp/hists/bad_fifo.hist" --enforced --metrics -
json_has "$tmp/out" metrics

# Multi-mode --stats-json: one {file, stats} line per session.
expect 0 "$bin" queue "${ok_files[@]}" --quiet --stats-json
if ! python3 -c "
import json
lines = [json.loads(l) for l in open('$tmp/out')]
assert len(lines) == ${#ok_files[@]}, lines
for obj in lines:
    assert 'file' in obj and 'stats' in obj, obj
    assert 'events_fed' in obj['stats'], obj
"; then
  echo "FAIL: multi-mode --stats-json lines wrong" >&2
  sed 's/^/  out: /' "$tmp/out" >&2
  fails=$((fails + 1))
else
  echo "ok: multi-mode --stats-json emits one line per session"
fi

# ---- replay golden ---------------------------------------------------------
# The exact stats line and exit code of a replay, in membership and
# enforcement mode.  Fingerprints decide every dedup and recycling count, so
# a change to how a state hashes or how a closure is seeded must print these
# byte for byte.
expect_exact() {
  local want_rc="$1" want_out="$2"; shift 2
  "$@" > "$tmp/out" 2> "$tmp/err"
  local got=$?
  if [[ "$got" != "$want_rc" || "$(cat "$tmp/out")" != "$want_out" \
        || -s "$tmp/err" ]]; then
    echo "FAIL: replay differs (exit $got, want $want_rc): $*" >&2
    echo "  want: $want_out" >&2
    sed 's/^/  out: /' "$tmp/out" >&2
    sed 's/^/  err: /' "$tmp/err" >&2
    fails=$((fails + 1))
  else
    echo "ok: replay exit $got and stats as recorded: $*"
  fi
}

# Width swing: nine overlapping push pairs (frontier 2^9), pushes and pops
# on the wide base, then pops that resolve every pair, then an empty pop.
swing="$tmp/swing.hist"
{
  v=100
  for k in $(seq 0 8); do
    echo "inv 0 $k Push $v"
    echo "inv 1 $k Push $((v + 1))"
    echo "res 0 $k Push $v true"
    echo "res 1 $k Push $((v + 1)) true"
    v=$((v + 2))
  done
  for i in 0 1 2 3; do
    echo "inv 2 $i Push $v"
    echo "inv 3 $i Pop"
    echo "res 2 $i Push $v true"
    echo "res 3 $i Pop $v"
    v=$((v + 1))
  done
  s=0
  for k in $(seq 8 -1 0); do
    for popped in $((101 + 2 * k)) $((100 + 2 * k)); do
      echo "inv 4 $s Pop"
      echo "res 4 $s Pop $popped"
      s=$((s + 1))
    done
  done
  echo "inv 4 $s Pop"
  echo "res 4 $s Pop empty"
} > "$swing"

ok_stats='{"events_fed":10,"rounds_sequential":5,"peak_frontier":2,"dedup_probes":20,"dedup_hits":2,"states_recycled":4,"probe_batches":17,"prefetch_batches":3,"filter_in_place_rounds":5}'
ok_enf='{"events_fed":13,"rounds_sequential":5,"peak_frontier":2,"dedup_probes":24,"dedup_hits":2,"states_recycled":6,"probe_batches":20,"prefetch_batches":4,"filter_in_place_rounds":6}'
bad_stats='{"events_fed":4,"rounds_sequential":2,"peak_frontier":1,"dedup_probes":5,"dedup_hits":0,"states_recycled":1,"probe_batches":5,"prefetch_batches":0,"filter_in_place_rounds":2}'
swing_stats='{"events_fed":90,"rounds_sequential":45,"peak_frontier":1536,"dedup_probes":37869,"dedup_hits":2559,"states_recycled":11770,"probe_batches":12176,"prefetch_batches":2959,"filter_in_place_rounds":45}'
swing_enf='{"events_fed":129,"rounds_sequential":45,"peak_frontier":1536,"dedup_probes":48105,"dedup_hits":0,"states_recycled":14909,"probe_batches":17339,"prefetch_batches":5562,"filter_in_place_rounds":58}'
for i in 1 2 3; do
  expect_exact 0 "$ok_stats" \
    "$bin" queue "$tmp/hists/ok_$i.hist" --quiet --stats-json
  expect_exact 0 "$ok_enf" \
    "$bin" queue "$tmp/hists/ok_$i.hist" --enforced --quiet --stats-json
done
expect_exact 1 "$bad_stats" \
  "$bin" queue "$tmp/hists/bad_fifo.hist" --quiet --stats-json
expect_exact 1 "$bad_stats" \
  "$bin" queue "$tmp/hists/bad_fifo.hist" --enforced --quiet --stats-json
expect_exact 0 "$swing_stats" "$bin" stack "$swing" --quiet --stats-json
expect_exact 0 "$swing_enf" \
  "$bin" stack "$swing" --enforced --quiet --stats-json

if [[ "$fails" -ne 0 ]]; then
  echo "$fails check(s) failed" >&2
  exit 1
fi
echo "all selin_check CLI checks passed"
