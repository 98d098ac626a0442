#!/usr/bin/env bash
# Four-mode identity: one checkpointed sweep (--checkpoint-every) run
#   1. in-process,
#   2. under --isolate process,
#   3. dispatched (--dispatch-port) to two --connect workers,
#   4. dispatched with --isolate process local workers plus one
#      --connect worker,
# each at --jobs 1 and 4, must leave byte-identical manifest.dcc files
# (checkpoint counters included) and --report-json documents, and a
# directory that --fsck calls clean with no checkpoint container left.
#
# Usage: dispatch_identity.sh <path-to-dftmsn_cli> [workdir]
set -u

CLI="${1:?usage: dispatch_identity.sh <dftmsn_cli> [workdir]}"
WORK="${2:-dispatch_identity.tmp}"

rm -rf "$WORK"
mkdir -p "$WORK"

ARGS=(--protocol OPT --reps 8 --checkpoint-every 300
      scenario.seed=11 scenario.num_sensors=15 scenario.duration_s=3000)

fail() { echo "FAIL: $*" >&2; exit 1; }

# Runs the sweep named $1 with extra flags $2...; a dispatched run gets
# $CONNECTS --connect workers once its port is announced.
run_mode() {
  local name="$1"; shift
  "$CLI" "${ARGS[@]}" "$@" --checkpoint-dir "$WORK/$name" \
      --report-json "$WORK/$name.json" > "$WORK/$name.txt" 2>&1 &
  local parent=$!
  local workers=()
  if [ "${CONNECTS:-0}" -gt 0 ]; then
    local port=""
    for _ in $(seq 1 200); do
      port=$(sed -n 's/^dispatch: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
             "$WORK/$name.txt" 2>/dev/null | head -n1)
      [ -n "$port" ] && break
      kill -0 "$parent" 2>/dev/null || break
      sleep 0.05
    done
    [ -n "$port" ] || fail "$name never announced its dispatch port: $(cat "$WORK/$name.txt")"
    for k in $(seq 1 "$CONNECTS"); do
      "$CLI" --connect "127.0.0.1:$port" > "$WORK/$name.w$k.txt" 2>&1 &
      workers+=($!)
    done
  fi
  wait "$parent" || fail "$name exited $?: $(cat "$WORK/$name.txt")"
  # Local worker processes can finish a mixed sweep before a --connect
  # worker reaches the listener; being refused then is not a failure.
  local k=0
  for w in "${workers[@]}"; do
    k=$((k + 1))
    wait "$w" || grep -q 'Connection refused' "$WORK/$name.w$k.txt" \
      || fail "$name worker $k exited: $(cat "$WORK/$name.w$k.txt")"
  done
  if [ "$name" != ref ]; then
    cmp "$WORK/ref/manifest.dcc" "$WORK/$name/manifest.dcc" \
      || fail "$name manifest differs from the in-process reference"
    cmp "$WORK/ref.json" "$WORK/$name.json" \
      || fail "$name report differs from the in-process reference"
  fi
}

CONNECTS=0 run_mode ref --jobs 1
grep -Eq '"checkpoints": 0([^0-9]|$)' "$WORK/ref.json" \
  && fail "the reference sweep wrote no checkpoints"
for jobs in 1 4; do
  CONNECTS=0 run_mode "inproc$jobs" --jobs "$jobs"
  CONNECTS=0 run_mode "process$jobs" --jobs "$jobs" --isolate process
  CONNECTS=2 run_mode "dispatch$jobs" --jobs "$jobs" --dispatch-port 0
  CONNECTS=1 run_mode "mixed$jobs" --jobs "$jobs" --dispatch-port 0 \
      --isolate process
done

# Only the supervisor writes checkpoints.dcc, and it removes the file
# once the last spec's entry is erased.
for dir in "$WORK"/*/; do
  name=$(basename "$dir")
  [ -e "$dir/checkpoints.dcc" ] \
    && fail "$name left a checkpoint container behind"
  "$CLI" --fsck "$dir" > "$WORK/$name.fsck" 2>&1 \
    || fail "$name: fsck exited $? (want 0): $(cat "$WORK/$name.fsck")"
done

echo "PASS: four execution modes byte-identical at --jobs 1 and 4"
rm -rf "$WORK"
