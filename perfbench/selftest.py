#!/usr/bin/env python3
"""Self-test of the sweep benchmark at toy size (about two minutes).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * the untraced pass prints every end-to-end metric and the traced pass
    every per-layer metric, by name, with BENCHMARK.json's unit and a
    finite value, as the last stdout line with exactly the four result keys;
  * the outputs check out (correct, no failed specs);
  * two back-to-back traced runs give identical deterministic counts.
Then checks that the benchmark exits non-zero, without a result line, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exit 0 when everything holds, 1 with a message otherwise.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are counts of deterministic simulation work: they
# must repeat exactly for one seed, on any host.
DETERMINISTIC = ["sim.events", "mobility.ticks", "phy.channel_scans",
                 "protocol.mac_calls", "protocol.handshake_yield",
                 "protocol.rts_collision_ratio",
                 "snapshot.image_kb_per_node"]


def run(workload, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(proc, expected, what):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: outputs failed their checks\n"
                             f"{proc.stdout[-3000:]}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        raise AssertionError(f"{what}: metrics {sorted(metrics)}")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(
                got["value"], (int, float)) or not math.isfinite(
                    got["value"]):
            raise AssertionError(f"{what}: {m['name']} = {got}")
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        check_result(run(w, 0), bench["end_to_end"], f"{w} untraced")
        first = check_result(run(w, 1), bench["per_layer"], f"{w} traced")
        second = check_result(run(w, 1), bench["per_layer"], f"{w} traced")
        for name in DETERMINISTIC:
            if first[name]["value"] != second[name]["value"]:
                raise AssertionError(
                    f"{w}: {name} {first[name]['value']} then "
                    f"{second[name]['value']}")
        print(f"ok  {w}")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("benchmark ran without the repository sources")
    print("ok  refuses to run without the repository sources")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
