#!/usr/bin/env bash
# CLI contract of selin_ingestd (registered as ctest target
# selin_ingestd_cli):
#
#   exit 0 = clean shutdown | 2 = usage error | 3 = startup failure
#
# plus the startup/shutdown protocol harnesses rely on: one "READY
# uds=<path>" / "READY tcp=<port>" line per listener on stdout (flushed
# before serving), graceful SIGTERM stop, and a final "STATS <json>" line.
# The happy paths run the soak driver end to end over UDS and an ephemeral
# TCP port, and scrape the HTTP stats endpoint.
#
# Usage: selin_ingestd_cli_test.sh <path-to-selin_ingestd> <path-to-soak>
set -u

daemon="$1"
soak="$2"
tmp="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null
  [[ -n "$daemon_pid" ]] && wait "$daemon_pid" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT
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

check() {  # check <description> <command...>
  local what="$1"; shift
  if "$@"; then
    echo "ok: $what"
  else
    echo "FAIL: $what" >&2
    fails=$((fails + 1))
  fi
}

# Waits until $1 appears in $2 (the daemon's stdout) or 10s elapse.
await_line() {
  local pattern="$1" file="$2"
  for _ in $(seq 1 200); do
    grep -q "$pattern" "$file" 2>/dev/null && return 0
    sleep 0.05
  done
  return 1
}

# Starts the daemon with the given flags, stdout to $tmp/daemon.out; sets
# daemon_pid.  Fails the suite if no READY line shows up.
start_daemon() {
  : > "$tmp/daemon.out"
  "$daemon" "$@" > "$tmp/daemon.out" 2> "$tmp/daemon.err" &
  daemon_pid=$!
  if ! await_line "^READY " "$tmp/daemon.out"; then
    echo "FAIL: daemon never printed READY ($*)" >&2
    sed 's/^/  err: /' "$tmp/daemon.err" >&2
    fails=$((fails + 1))
    return 1
  fi
}

# SIGTERMs the daemon and checks clean exit + the STATS line.
stop_daemon() {
  kill -TERM "$daemon_pid"
  local code=0
  wait "$daemon_pid" || code=$?
  daemon_pid=""
  if [[ "$code" != 0 ]]; then
    echo "FAIL: daemon exit $code after SIGTERM (want 0)" >&2
    fails=$((fails + 1))
  else
    echo "ok: daemon exits 0 on SIGTERM"
  fi
  check "daemon prints a final STATS json line" \
    grep -q '^STATS {' "$tmp/daemon.out"
}

# ---- usage errors (exit 2) -------------------------------------------------

expect 0 "$daemon" --help
check "--help prints usage on stdout" grep -q '^usage: selin_ingestd' "$tmp/out"
expect 2 "$daemon"                        # no listener configured
expect 2 "$daemon" --uds                  # missing value
expect 2 "$daemon" --tcp 99999            # port out of range
expect 2 "$daemon" --tcp notaport
expect 2 "$daemon" --uds "$tmp/x.sock" --batch-limit 0
expect 2 "$daemon" --uds "$tmp/x.sock" --bogus-flag
# Out-of-range sizes are usage errors, not a READY daemon that aborts on
# its first session.  Batch limit and inbox capacity must fit the hello
# ack's 32-bit fields.  `timeout` turns a daemon that wrongly starts serving
# into a failed row instead of a hung suite.
expect 2 timeout 10 "$daemon" --uds "$tmp/x.sock" --batch-limit 4294967296
expect 2 timeout 10 "$daemon" --uds "$tmp/x.sock" --inbox-capacity 4294967296
# Sizes are whole tokens of decimal digits: no sign, no leading space,
# nothing strtoull would negate into range.
expect 2 timeout 10 "$daemon" --uds "$tmp/x.sock" \
  --batch-limit -18446744073709551615
expect 2 timeout 10 "$daemon" --uds "$tmp/x.sock" --batch-limit +4
expect 2 timeout 10 "$daemon" --uds "$tmp/x.sock" --batch-limit ' 4'
# The drain thread feeds sessions in turn: --lanes is an unknown flag.
expect 2 timeout 10 "$daemon" --uds "$tmp/x.sock" --lanes 2
expect 2 "$soak"                          # soak needs a target too
expect 2 "$soak" --uds "$tmp/x.sock" --width 3

# ---- startup failure (exit 3) ----------------------------------------------

expect 3 "$daemon" --uds "$tmp/no-such-dir/ig.sock"
check "startup failure names the socket error" grep -q 'selin_ingestd' "$tmp/err"

# ---- UDS happy path --------------------------------------------------------

sock="$tmp/ig.sock"
if start_daemon --uds "$sock" --idle-timeout-ms 30000; then
  check "READY names the socket path" \
    grep -q "^READY uds=$sock\$" "$tmp/daemon.out"

  expect 0 "$soak" --uds "$sock" --sessions 4 --events 200 --threads 2 \
    --no-http-check
  check "soak reports all sessions ok" grep -q '^SOAK ok' "$tmp/out"

  # A second run against the same daemon: sessions are evicted on bye, so
  # capacity is reusable.
  expect 0 "$soak" --uds "$sock" --sessions 2 --events 100 --threads 1 \
    --no-http-check

  # HTTP-ish stats over the same socket (python3 speaks AF_UNIX portably).
  # Totals pin the two runs above: 4*200 + 2*100 events, 6 sessions.
  check "/stats answers 200 with server totals over UDS" \
    python3 -c "
import json, socket
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect('$sock')
s.sendall(b'GET /stats HTTP/1.0\r\n\r\n')
raw = b''
while chunk := s.recv(4096):
    raw += chunk
head, _, body = raw.partition(b'\r\n\r\n')
assert b'200 OK' in head.split(b'\r\n')[0], head
doc = json.loads(body)
assert doc['server']['events'] == 1000, doc
assert doc['server']['sessions_opened'] == 6, doc
"

  stop_daemon
  check "STATS line parses as JSON with the soak's totals" \
    python3 -c "
import json
line = next(l for l in open('$tmp/daemon.out') if l.startswith('STATS '))
doc = json.loads(line[len('STATS '):])
assert doc['server']['sessions_opened'] == 6, doc
assert doc['server']['sessions_closed'] >= 1, doc
"
  check "daemon unlinks its socket on shutdown" test ! -e "$sock"
fi

# ---- mixed verdicts ---------------------------------------------------------

# --reject-every makes some sessions end REJECTED, so both verdicts travel
# the daemon path.
sock="$tmp/mixed.sock"
if start_daemon --uds "$sock"; then
  expect 0 "$soak" --uds "$sock" --sessions 6 --events 200 --threads 2 \
    --width 2 --reject-every 3
  check "mixed-verdict soak reports all verdicts as expected" \
    grep -q '^SOAK ok' "$tmp/out"
  stop_daemon
fi

# ---- TCP ephemeral port ----------------------------------------------------

if start_daemon --tcp 0; then
  port="$(sed -n 's/^READY tcp=//p' "$tmp/daemon.out" | head -1)"
  if [[ -z "$port" || "$port" -le 0 ]]; then
    echo "FAIL: no usable ephemeral port in READY line" >&2
    fails=$((fails + 1))
  else
    echo "ok: ephemeral port $port advertised"
    expect 0 "$soak" --tcp "$port" --sessions 2 --events 100 --threads 2 \
      --no-http-check
    check "tcp soak ok" grep -q '^SOAK ok' "$tmp/out"
  fi
  stop_daemon
fi

if [[ "$fails" -ne 0 ]]; then
  echo "$fails check(s) failed" >&2
  exit 1
fi
echo "all selin_ingestd CLI checks passed"
