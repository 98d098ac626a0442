#!/bin/bash
# Regenerates bench_output.txt: every reproduced table/figure in sequence.
cd "$(dirname "$0")"
{
  for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      echo "===== $(basename "$b") ====="
      "$b" 2>&1
      echo
    fi
  done
  echo "BENCH_SUITE_DONE"
} > bench_output.txt 2>&1

# Scheduler scaling trajectory: the machine-readable events/sec and
# memory curve (format: docs/performance.md) next to the human-readable
# table that the loop above already dropped into bench_output.txt.
# --check flags a World build above 5 KB of resident memory per node.
if [ -x build/bench/scheduler_scale ]; then
  build/bench/scheduler_scale --check --out BENCH_scheduler.json \
      > /dev/null ||
    echo "scheduler_scale: World build above the KB/node budget" >&2
fi

# Checkpoint container op latency at 1/4/16 live records (format:
# docs/performance.md). --check flags any op whose 16-record median
# exceeds 3x its 1-record median.
if [ -x build/bench/container_ops ]; then
  build/bench/container_ops --check --out BENCH_container_ops.json \
      > /dev/null ||
    echo "container_ops: 16/1-record latency ratio above 3" >&2
fi

# Cross-scenario protocol rankings (format: docs/scenarios.md); trace
# files land in a scratch dir so reruns stay tidy.
if [ -x build/bench/scenario_sweep ]; then
  mkdir -p build/scenario_traces
  build/bench/scenario_sweep --dir build/scenario_traces \
      --out BENCH_scenarios.json > /dev/null
fi
