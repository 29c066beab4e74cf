#!/usr/bin/env bash
# Generates a directory of sample queue histories for smoke-testing
# selin_check's multi-history mode: several accepting traces, one
# non-linearizable trace, and (with --with-broken) one malformed trace.
#
# Usage: tools/gen_sample_histories.sh <dir> [--with-broken]
#
# CI drives `selin_check queue <dir>/*.hist` over the output; with
# only ok_*.hist files the expected exit code is 0, with the rejecting trace
# included it is 1, and with --with-broken it is 4 (any-session-error).
set -euo pipefail

[[ $# -ge 1 ]] || { echo "usage: $0 <dir> [--with-broken]" >&2; exit 2; }
dir="$1"
with_broken=false
[[ "${2:-}" == "--with-broken" ]] && with_broken=true
mkdir -p "$dir"

# Accepting: overlapped enqueue/dequeue pairs with FIFO-consistent results.
for i in 1 2 3; do
  cat > "$dir/ok_$i.hist" <<EOF
# accepting queue trace $i
inv 0 0 Enqueue $((i * 10))
res 0 0 Enqueue $((i * 10)) true
inv 1 0 Enqueue $((i * 10 + 1))
inv 2 0 Dequeue
res 1 0 Enqueue $((i * 10 + 1)) true
res 2 0 Dequeue $((i * 10))
inv 0 1 Dequeue
res 0 1 Dequeue $((i * 10 + 1))
inv 1 1 Dequeue
res 1 1 Dequeue empty
EOF
done

# Rejecting: a dequeue returns a value never enqueued.
cat > "$dir/bad_fifo.hist" <<EOF
# non-linearizable queue trace (dequeues a phantom value)
inv 0 0 Enqueue 1
res 0 0 Enqueue 1 true
inv 1 0 Dequeue
res 1 0 Dequeue 99
EOF

if $with_broken; then
  # Malformed: response without a pending invocation.
  cat > "$dir/broken.hist" <<EOF
res 0 0 Dequeue empty
EOF
fi

echo "wrote $(ls "$dir" | wc -l) histories to $dir"
