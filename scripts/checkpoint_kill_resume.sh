#!/usr/bin/env bash
# End-to-end crash-safety check: SIGKILL a supervised sweep mid-run, then
# resume it and require the resumed Summary to be bit-identical to an
# uninterrupted run of the same sweep.
#
# SIGKILL (unlike SIGINT/SIGTERM) gives the process no chance to flush a
# final checkpoint, so this exercises the worst case: recovery must work
# from whatever periodic checkpoints and incremental manifest rewrites
# made it to disk before the kill.
#
# Usage: checkpoint_kill_resume.sh <path-to-dftmsn_cli> [workdir]
set -u

CLI="${1:?usage: checkpoint_kill_resume.sh <dftmsn_cli> [workdir]}"
WORK="${2:-kill_resume_e2e.tmp}"

rm -rf "$WORK"
mkdir -p "$WORK"

ARGS=(--protocol OPT --reps 4 --jobs 2
      scenario.seed=31337 scenario.num_sensors=15 scenario.num_sinks=2
      scenario.field_m=150 scenario.duration_s=4000)

fail() { echo "FAIL: $*" >&2; exit 1; }

# Reference: the same sweep, unsupervised and uninterrupted.
"$CLI" "${ARGS[@]}" > "$WORK/reference.txt" \
  || fail "reference run exited $?"

# Victim: supervised with frequent checkpoints, SIGKILLed mid-run. Wait
# until at least one checkpoint exists so the kill lands mid-sweep, not
# before the first slice.
"$CLI" "${ARGS[@]}" --checkpoint-dir "$WORK/ckpt" --checkpoint-every 200 \
  > "$WORK/victim.txt" 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  if [ -s "$WORK/ckpt/checkpoints.dcc" ]; then break; fi
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "$PID" 2>/dev/null; then
  kill -KILL "$PID"
  wait "$PID" 2>/dev/null
  KILLED=1
else
  # The sweep finished before we could kill it (very fast machine);
  # the resume below then just reloads the manifest, which still
  # exercises the bit-identity check.
  wait "$PID"
  KILLED=0
fi
[ -f "$WORK/ckpt/manifest.dcc" ] || fail "no manifest survived the kill"

# Resume and compare. Filter to the per-replication result lines and the
# aggregate block; timing/progress chatter may legitimately differ.
"$CLI" "${ARGS[@]}" --checkpoint-dir "$WORK/ckpt" --resume \
  > "$WORK/resumed.txt" || fail "resume exited $?"

grep -v -e '^rep ' -e '^manifest:' -e '^over ' "$WORK/resumed.txt" \
  > "$WORK/resumed_summary.txt"
if ! diff -u "$WORK/reference.txt" "$WORK/resumed_summary.txt"; then
  fail "resumed summary differs from uninterrupted run"
fi

# Part 2: kill a WORKER, not the parent. Under --isolate process each
# replication attempt is a spawned child; SIGKILLing one mid-run must be
# absorbed by the supervising parent (retry from the last checkpoint),
# and the finished sweep must still match the uninterrupted reference.
"$CLI" "${ARGS[@]}" --isolate process --checkpoint-dir "$WORK/iso_ckpt" \
  --checkpoint-every 200 > "$WORK/iso.txt" 2>&1 &
PID=$!
WKILLED=0
for _ in $(seq 1 400); do
  # Workers are children of the supervising CLI running `--worker`.
  WORKER=$(pgrep -P "$PID" -f -- "--worker" 2>/dev/null | head -n1)
  if [ -n "${WORKER:-}" ]; then
    kill -KILL "$WORKER" 2>/dev/null && WKILLED=1
    break
  fi
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.05
done
wait "$PID"
RC=$?
[ "$RC" -eq 0 ] || fail "isolated sweep exited $RC after worker kill"

grep -v -e '^rep ' -e '^manifest:' -e '^over ' "$WORK/iso.txt" \
  > "$WORK/iso_summary.txt"
if ! diff -u "$WORK/reference.txt" "$WORK/iso_summary.txt"; then
  fail "worker-killed sweep differs from uninterrupted run"
fi

# Part 3: the same SIGKILL/resume drill with trace-driven mobility (a
# scenario-library world). The checkpoint stores only each node's replay
# cursor; the resume re-materializes the trace file (deterministic, so
# byte-identical) and must still finish bit-identically.
SARGS=(--scenario convoy --scenario-dir "$WORK" --protocol OPT
       --reps 4 --jobs 2 scenario.duration_s=1500)

"$CLI" "${SARGS[@]}" > "$WORK/trace_reference.txt" \
  || fail "trace reference run exited $?"

"$CLI" "${SARGS[@]}" --checkpoint-dir "$WORK/trace_ckpt" \
  --checkpoint-every 200 > "$WORK/trace_victim.txt" 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  if [ -s "$WORK/trace_ckpt/checkpoints.dcc" ]; then break; fi
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.05
done
TKILLED=0
if kill -0 "$PID" 2>/dev/null; then
  kill -KILL "$PID"
  wait "$PID" 2>/dev/null
  TKILLED=1
else
  wait "$PID"
fi
[ -f "$WORK/trace_ckpt/manifest.dcc" ] || fail "no trace manifest survived"

"$CLI" "${SARGS[@]}" --checkpoint-dir "$WORK/trace_ckpt" --resume \
  > "$WORK/trace_resumed.txt" || fail "trace resume exited $?"

grep -v -e '^rep ' -e '^manifest:' -e '^over ' "$WORK/trace_resumed.txt" \
  > "$WORK/trace_resumed_summary.txt"
if ! diff -u "$WORK/trace_reference.txt" "$WORK/trace_resumed_summary.txt"; then
  fail "resumed trace-mobility summary differs from uninterrupted run"
fi

echo "OK: killed=$KILLED worker_killed=$WKILLED trace_killed=$TKILLED," \
     "resumed + worker-killed sweeps bit-identical to reference"
rm -rf "$WORK"
