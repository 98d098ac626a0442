#!/usr/bin/env python3
"""Sweep benchmark of record for the dftmsn simulator.

Runs one workload through dftmsn_cli exactly as a user would, checks the
outputs, and prints one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
(lifecycle spans, the layer probe, registry counters) and reports the
per-layer metrics. See perfbench/README.md for the workloads and metrics.

The script builds the CLI and the layer probe from the checkout it sits in
(into .bench_build/) and writes every run artefact under .bench_build/runs/.
Standard library only.
"""
import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CLI = os.path.join(BUILD, "dftmsn", "apps", "dftmsn_cli")
PROBE = os.path.join(BUILD, "perfbench_probe")
VALIDATOR = os.path.join(ROOT, "scripts", "validate_report.py")
RUNS = os.path.join(ROOT, ".bench_build", "runs")

JOBS = 4
PROTOCOLS = ["OPT", "NOOPT", "NOSLEEP", "ZBR"]
# A run (after the build) ends within --seconds plus this many seconds
# even if a call hangs: the call is killed and counts as failed. The
# margin covers set-up and the traced pass's probe and profiled calls.
BUDGET_MARGIN_S = 135.0
DEADLINE = math.inf
# How often run_call samples the memory of a call's processes.
RSS_POLL_S = 0.01
PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024.0

# Workload shapes. "full" is the benchmark of record; "toy" is the
# self-test size (same code paths, seconds instead of minutes).
SCALES = {
    "full": {"reps": 8, "duration": 300, "city_sensors": 100000,
             "city_sinks": 3000, "city_field": 4743.4, "city_duration": 20,
             "setup_passes": {"paper": 10, "city": 1}, "puts": 10},
    "toy": {"reps": 2, "duration": 150, "city_sensors": 2000,
            "city_sinks": 60, "city_field": 670.8, "city_duration": 10,
            "setup_passes": {"paper": 2, "city": 1}, "puts": 2},
}
WORKLOADS = ["paper-sweep", "durable-sweep", "city-100k"]


class BenchError(Exception):
    """The benchmark itself cannot run (build failure, bad arguments)."""


# --------------------------------------------------------------- spans --

class Spans:
    """In-memory span log, written once at exit as Perfetto-viewable JSON."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # dicts: id, name, start, end (s), parent, spec

    def now(self):
        return time.perf_counter() - self.t0

    def add(self, name, start, end, parent=None, spec=None):
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end, "parent": parent,
                           "spec": spec})
        return len(self.spans) - 1

    def open(self, name, parent=None):
        return self.add(name, self.now(), None, parent)

    def close(self, sid):
        self.spans[sid]["end"] = self.now()

    def write_perfetto(self, path):
        events = []
        for s in self.spans:
            if s["end"] is None:
                continue
            events.append({
                "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": max(0.0, s["end"] - s["start"]) * 1e6,
                "pid": 1, "tid": 0 if s["spec"] is None else s["spec"] + 1,
                "args": {"id": s["id"], "parent": s["parent"],
                         "spec": s["spec"]}})
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)

    def self_times(self):
        """Per span name: calls, total seconds, self seconds (duration
        minus the union of its children's intervals)."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                children.setdefault(s["parent"], []).append(s)
        table = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            dur = s["end"] - s["start"]
            covered, cursor = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []),
                            key=lambda c: c["start"]):
                lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = table.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += max(0.0, dur - covered)
        return table


# --------------------------------------------------------------- build --

def build():
    """Configures (once) and builds the CLI and probe from this checkout.
    A tree configured for another source location is rebuilt from
    scratch once."""
    for fresh in (False, True):
        if fresh:
            shutil.rmtree(BUILD, ignore_errors=True)
        os.makedirs(BUILD, exist_ok=True)
        log_path = os.path.join(BUILD, "build.log")
        with open(log_path, "a") as log:
            rc = 0
            if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
                cmd = ["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    cmd += ["-G", "Ninja"]
                rc = subprocess.call(cmd, stdout=log, stderr=log)
            if rc == 0:
                rc = subprocess.call(
                    ["cmake", "--build", BUILD, "-j", str(JOBS)],
                    stdout=log, stderr=log)
        if rc == 0 and os.path.exists(CLI) and os.path.exists(PROBE):
            return
    raise BenchError(f"build failed (see {log_path})")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc, llc_level = "unknown", -1
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(
            cache_dir) else []:
        try:
            with open(os.path.join(cache_dir, entry, "level")) as f:
                level = int(f.read())
            with open(os.path.join(cache_dir, entry, "size")) as f:
                size = f.read().strip()
        except (OSError, ValueError):
            continue
        if level > llc_level:
            llc, llc_level = size, level
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = ""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = git.stdout.split()
        # Only this checkout's own repository, not one that encloses it.
        if git.returncode == 0 and os.path.realpath(lines[0]) == \
                os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, IndexError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc": f"L{llc_level} {llc}",
        "compiler": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": commit or "unavailable",
        "source_digest": source_digest(),
    }


def source_digest():
    """SHA-256 over the sources the benchmark builds (stands in for the
    commit when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "apps", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


# ------------------------------------------------------------ commands --

def scenario_seed(seed):
    """The CLI's scenario.seed for a benchmark seed (same for every
    workload, so durable-sweep and paper-sweep run identical specs)."""
    return random.Random(seed).randrange(1, 1 << 31)


def invocations(workload, scale, seed):
    """The workload as a list of (name, spec count, CLI argv tail)."""
    s = SCALES[scale]
    keys = [f"scenario.seed={scenario_seed(seed)}"]
    if workload == "city-100k":
        keys += [f"scenario.num_sensors={s['city_sensors']}",
                 f"scenario.num_sinks={s['city_sinks']}",
                 f"scenario.field_m={s['city_field']}",
                 f"scenario.duration_s={s['city_duration']}"]
        return [("OPT", 1, ["--preset", "paper", "--protocol", "OPT",
                            "--reps", "1", "--jobs", "1"] + keys)]
    keys.append(f"scenario.duration_s={s['duration']}")
    extra = []
    if workload == "durable-sweep":
        extra = ["--checkpoint-every", "100", "--isolate", "process"]
    return [(p, s["reps"], ["--preset", "paper", "--protocol", p, "--reps",
                            str(s["reps"]), "--jobs", str(JOBS)] + extra +
             keys) for p in PROTOCOLS]


def probe_world_keys(workload, scale, seed):
    """Config keys for the probe: the workload's worlds as the CLI builds
    them, where --report-json turns the instrument registry on."""
    return [a for a in invocations(workload, scale, seed)[0][2]
            if "=" in a] + ["telemetry.enabled=true"]


def world_set(workload, scale):
    """The workload's worlds: (comma-separated protocols, replications)."""
    if workload == "city-100k":
        return "OPT", 1
    return ",".join(PROTOCOLS), SCALES[scale]["reps"]


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop_group(pgid):
    """Kills what is left of a call's process group and waits until the
    group is empty (workers of a crashed CLI are not our children)."""
    kill_group(pgid)
    try:
        for _ in range(500):
            os.killpg(pgid, 0)  # raises once the group is empty
            time.sleep(0.01)
    except ProcessLookupError:
        return
    raise BenchError(f"process group {pgid} did not stop")


class GroupRss:
    """Samples the summed resident memory of one process group."""

    def __init__(self, pgid):
        self.pgid = pgid
        # Pids seen outside the group are skipped from then on: the
        # kernel does not reuse a pid within one call.
        self.others = set()
        self.peak_kb = 0.0

    def sample(self):
        pages = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit() or entry in self.others:
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as f:
                    # Fields after the command name: state, ppid, pgrp,
                    # ...; rss (pages) is the 22nd.
                    fields = f.read().rsplit(b")", 1)[1].split()
            except OSError:
                continue  # the process exited while we looked
            if int(fields[2]) != self.pgid:
                self.others.add(entry)
                continue
            pages += int(fields[21])
        self.peak_kb = max(self.peak_kb, pages * PAGE_KB)


def run_call(argv, out_path):
    """Runs argv in its own process group with stdout+stderr to out_path.
    Returns (exit code, wall seconds, peak resident MB of the call's
    process tree). The peak is the larger of the largest member's
    ru_maxrss (exact for a one-process call) and the largest summed RSS
    of the group, sampled every RSS_POLL_S (concurrent workers)."""
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(1.0, DEADLINE - start), kill_group,
                                [proc.pid])
        timer.start()
        rss = GroupRss(proc.pid)
        done = threading.Event()

        def sample():
            while not done.wait(RSS_POLL_S):
                rss.sample()

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
            done.set()
            sampler.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stop_group(proc.pid)
    peak_kb = max(usage.ru_maxrss, rss.peak_kb)
    return proc.returncode, wall, peak_kb / 1024.0


def canonical(report):
    """The report's results: everything but what legitimately differs
    between execution modes: the supervisor section (checkpoint counts),
    the profile section (wall clock), and the telemetry.profile key with
    the config digest that covers it (the config is compared key by
    key)."""
    doc = {k: v for k, v in report.items()
           if k not in ("supervisor", "profile", "config_digest")}
    doc["config"] = {k: v for k, v in doc["config"].items()
                     if k != "telemetry.profile"}
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------- iteration --

class Checker:
    """Output checks shared by all iterations of one run."""

    def __init__(self):
        self.validated = set()
        self.expected = {}   # invocation name -> canonical results
        self.errors = []

    def validate(self, report_path):
        with open(report_path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        if digest in self.validated:
            return True
        rc = subprocess.run([sys.executable, VALIDATOR, report_path],
                            capture_output=True, text=True)
        if rc.returncode != 0:
            self.errors.append(rc.stderr.strip() or rc.stdout.strip())
            return False
        self.validated.add(digest)
        return True

    def same_as(self, name, results, what):
        """First call pins `name`'s results; later calls must match."""
        pinned = self.expected.setdefault(name, results)
        if pinned != results:
            self.errors.append(f"{name}: results differ from {what}")
            return False
        return True


def run_iteration(workload, scale, seed, workdir, checker, traced, spans,
                  parent):
    """Runs the workload's CLI invocations once. Returns a dict of timings
    and counts; failed specs are counted, never timed."""
    os.makedirs(workdir, exist_ok=True)
    it = {"wall": 0.0, "events": 0, "rss": 0.0, "specs": 0, "failed": 0,
          "attempts": [], "spawns": [], "busy": 0.0, "capacity": 0.0,
          "data_tx": 0, "tx_attempts": 0, "rts_tx": 0, "rts_coll": 0}
    for name, nspecs, tail in invocations(workload, scale, seed):
        ckpt = os.path.join(workdir, name)
        shutil.rmtree(ckpt, ignore_errors=True)
        # Start every call from a quiet disk: the durable workload's
        # fsync cost should not include earlier calls' writeback.
        os.sync()
        report = os.path.join(workdir, name + ".json")
        trace_path = os.path.join(workdir, name + ".trace")
        argv = [CLI] + tail + ["--checkpoint-dir", ckpt,
                               "--report-json", report]
        if traced:
            argv += ["--trace-out", trace_path]
        if os.path.exists(report):
            os.remove(report)
        sid = spans.open("experiment.cli", parent)
        launch = spans.spans[sid]["start"]
        rc, wall, rss_mb = run_call(argv,
                                    os.path.join(workdir, name + ".out"))
        spans.close(sid)
        it["specs"] += nspecs
        failed = nspecs
        if rc == 0 and os.path.exists(report) and checker.validate(report):
            with open(report) as f:
                doc = json.load(f)
            # One seed per run: every iteration, traced or not, repeats the
            # results (for durable-sweep, pinned to paper-sweep's). A
            # mismatch fails every spec of the call.
            if checker.same_as(name, canonical(doc),
                               "earlier results"):
                failed = nspecs - doc["supervisor"]["completed"]
                if failed:
                    checker.errors.append(f"{workload}/{name}: {failed} "
                                          "specs quarantined or interrupted")
        else:
            checker.errors.append(f"{workload}/{name}: exit {rc}, see "
                                  f"{os.path.join(workdir, name + '.out')}")
        if failed:
            it["failed"] += failed
            it["failed_call"] = True
            continue
        shutil.rmtree(ckpt)  # kept only for a failed call
        it["wall"] += wall
        it["rss"] = max(it["rss"], rss_mb)
        totals = doc["totals"]
        counters = doc["telemetry"]["counters"]
        it["events"] += totals["events_executed"]
        it["data_tx"] += totals["data_transmissions"]
        it["tx_attempts"] += totals["attempts"]
        it["rts_tx"] += counters.get("mac.rts_tx", 0)
        it["rts_coll"] += counters.get("mac.rts_collisions", 0)
        if traced:
            read_lifecycle(trace_path, launch, sid, spans, it)
            jobs = int(tail[tail.index("--jobs") + 1])
            it["capacity"] += jobs * wall
    return it


def read_lifecycle(path, launch, parent, spans, it):
    """Folds the CLI's --trace-out spans into the in-memory span log."""
    open_attempts = {}
    with open(path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if not line.startswith("{"):
                continue
            ev = json.loads(line)
            spec, ts = ev["tid"], ev["ts"] * 1e-6
            if ev["ph"] == "B" and ev["name"] == "attempt":
                open_attempts[spec] = ts
            elif ev["ph"] == "E" and spec in open_attempts:
                begin = open_attempts.pop(spec)
                spans.add("experiment.attempt", launch + begin, launch + ts,
                          parent, spec)
                it["attempts"].append(ts - begin)
                it["busy"] += ts - begin
            elif ev["ph"] == "i":
                if ev["name"] == "worker_spawn" and spec in open_attempts:
                    it["spawns"].append(ts - open_attempts[spec])
                spans.add("experiment." + ev["name"], launch + ts,
                          launch + ts, parent, spec)


# ---------------------------------------------------------------- probe --

def run_probe(args, workdir, label, spans, parent):
    out_path = os.path.join(workdir, label + ".out")
    sid = spans.open("experiment.probe." + label, parent)
    launch = spans.spans[sid]["start"]
    rc, _, _ = run_call([PROBE] + args, out_path)
    spans.close(sid)
    result = None
    with open(out_path) as f:
        for line in f:
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "span" in doc:
                spans.add(doc["span"], launch + doc["start_us"] * 1e-6,
                          launch + doc["end_us"] * 1e-6, sid,
                          doc["spec"] if doc["spec"] >= 0 else None)
            elif "result" in doc:
                result = doc["result"]
    if rc != 0 or result is None:
        raise BenchError(f"probe {label} failed (exit {rc}, see {out_path})")
    return result


def setup_passes(workload, scale, seed, workdir, spans, parent):
    """A few passes of set-up: each is the summed World-constructor time
    of the workload's worlds (every protocol x replication seed)."""
    protocols, reps = world_set(workload, scale)
    passes = SCALES[scale]["setup_passes"][
        "city" if workload == "city-100k" else "paper"]
    result = run_probe(["setup", "--protocols", protocols, "--reps",
                        str(reps), "--repeat", str(passes)] +
                       probe_world_keys(workload, scale, seed),
                       workdir, "setup", spans, parent)
    return result["setup_s"]


def run_profiled(workload, scale, seed, workdir, checker, spans, parent):
    """The CLI's own --profile subsystem split for the workload's worlds.
    A supervised call carries no profile section, so these calls run the
    same specs unsupervised. They run one job at a time, like the layer
    probe, so that sim.queue_s subtracts serial times from serial times.
    Returns the summed profile plus the calls' spec counts."""
    sim_workload = "paper-sweep" if workload == "durable-sweep" else workload
    prof = {"specs": 0, "failed": 0}
    for name, nspecs, tail in invocations(sim_workload, scale, seed):
        tail = list(tail)
        tail[tail.index("--jobs") + 1] = "1"
        report = os.path.join(workdir, f"profile-{name}.json")
        out = os.path.join(workdir, f"profile-{name}.out")
        sid = spans.open("experiment.cli_profiled", parent)
        rc, _, _ = run_call([CLI] + tail + ["--report-json", report,
                                            "--profile"], out)
        spans.close(sid)
        prof["specs"] += nspecs
        doc = None
        if rc == 0 and os.path.exists(report) and checker.validate(report):
            with open(report) as f:
                doc = json.load(f)
        if doc is not None and doc["replications"] == nspecs and \
                "profile" in doc and checker.same_as(
                    name, canonical(doc), "the profiled call's"):
            for sub, st in doc["profile"].items():
                acc = prof.setdefault(sub, {"calls": 0, "total_s": 0.0})
                acc["calls"] += st["calls"]
                acc["total_s"] += st["total_s"]
        else:
            checker.errors.append(f"{workload}/profile-{name}: exit {rc}, "
                                  f"see {out}")
            prof["failed"] += nspecs
    return prof


# ------------------------------------------------------------ workload --

def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def interquartile_mean(values):
    """Mean of the middle half: as robust to outliers as the median, but
    not stuck on the 50 ms steps the supervisor's exit poll puts into
    every CLI wall time (see README)."""
    if not values:
        return 0.0
    v = sorted(values)
    k = len(v) // 4
    mid = v[k:len(v) - k]
    return sum(mid) / len(mid)


def quantile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_benchmark(workload, scale, seed, seconds, traced):
    spans = Spans()
    workdir = os.path.join(RUNS, f"{workload}-{scale}-seed{seed}-"
                                 f"trace{int(traced)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    root = spans.open(f"bench.{workload}")
    checker = Checker()

    # Set-up (not part of the measured seconds): durable-sweep's
    # paper-sweep reference pins the results every durable call must
    # equal; its specs count as attempted, not timed.
    reference = []
    if workload == "durable-sweep":
        reference.append(run_iteration(
            "paper-sweep", scale, seed, os.path.join(workdir, "reference"),
            checker, False, spans, root))

    iters = {False: [], True: []}
    setup = []
    start = time.perf_counter()
    n = 0
    while True:
        # setup_s is sampled once a round, so that its passes spread over
        # the measured seconds like the iterations: the host's speed
        # drifts in bursts of seconds, and one block of passes would sit
        # inside a single burst.
        if not traced:
            setup += setup_passes(workload, scale, seed, workdir, spans,
                                  root)
        # Traced pass: alternate untraced and traced iterations so the
        # overhead ratio compares neighbours; untraced pass: untraced only.
        order = [False, True] if n % 2 == 0 else [True, False]
        for tr in (order if traced else [False]):
            sid = spans.open("bench.iteration", root)
            iters[tr].append(run_iteration(
                workload, scale, seed, os.path.join(workdir, f"it{n}"),
                checker, tr, spans, sid))
            spans.close(sid)
        n += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / n
        if elapsed + per_round > seconds:
            break

    probe = snap = None
    profiled = {"specs": 0, "failed": 0}
    if traced:
        protocols, reps = world_set(workload, scale)
        probe = run_probe(["layers", "--protocols", protocols, "--reps",
                           str(reps)] +
                          probe_world_keys(workload, scale, seed) +
                          ["telemetry.profile=true"],
                          workdir, "layers", spans, root)
        profiled = run_profiled(workload, scale, seed, workdir, checker,
                                spans, root)
        # Snapshot calls always run on the 100-node paper world: a city
        # image would be ~2 GB (see README).
        snap_keys = [k for k in probe_world_keys("paper-sweep", scale, seed)
                     if not k.startswith("scenario.duration_s")]
        snap_dir = os.path.join(workdir, "snapshot")
        os.makedirs(snap_dir)
        snap = run_probe(["snapshot", "--dir", snap_dir, "--puts",
                          str(SCALES[scale]["puts"])] + snap_keys,
                         workdir, "snapshot", spans, root)
        # The probe builds the CLI's worlds, so it runs their events.
        cli_events = [i["events"] for i in iters[True]
                      if not i.get("failed_call")]
        if cli_events and probe["events"] != cli_events[0]:
            checker.errors.append(
                f"{workload}: the layer probe ran {probe['events']} events, "
                f"the CLI {cli_events[0]}")
    spans.close(root)

    all_iters = reference + iters[False] + iters[True] + [profiled]
    attempted = sum(i["specs"] for i in all_iters)
    failed = sum(i["failed"] for i in all_iters)
    good = [i for i in iters[False] if not i.get("failed_call")]
    metrics = {
        "wall_s": interquartile_mean([i["wall"] for i in good]),
        "events_per_s": interquartile_mean([i["events"] / i["wall"]
                                            for i in good]),
        "setup_s": median_or_zero(setup),
        # The run's peak: how far concurrent workers' peaks overlap varies
        # between iterations, and sampling can miss a peak but never
        # overshoot one.
        "peak_rss_mb": max((i["rss"] for i in good), default=0.0),
        "spec_success_ratio": 1.0 - failed / attempted,
    }
    info = {"iterations": {"untraced": len(iters[False]),
                           "traced": len(iters[True])},
            "failed_spec_ratio": failed / attempted,
            "samples": {"wall_s": [i["wall"] for i in good],
                        "peak_rss_mb": [i["rss"] for i in good]},
            "errors": checker.errors}
    if traced:
        metrics = layer_metrics(iters, probe, profiled, snap)
    return {"correct": failed == 0 and not checker.errors,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "info": info, "spans": spans, "workdir": workdir}


def layer_metrics(iters, probe, profiled, snap):
    good_t = [i for i in iters[True] if not i.get("failed_call")]
    good_u = [i for i in iters[False] if not i.get("failed_call")]
    if not good_t or not good_u:
        raise BenchError("no successful traced/untraced iteration")
    t = good_t[0]
    attempts = [a for i in good_t for a in i["attempts"]]
    spawns = [s for i in good_t for s in i["spawns"]]

    def sub(name):  # a subsystem of the CLI's --profile section
        return profiled.get(name, {"calls": 0, "total_s": 0.0})

    dispatch_s = sub("event_dispatch")["total_s"]
    channel, mobility, mac = (sub("channel_scan"), sub("mobility_update"),
                              sub("mac_handshake"))
    return {
        "experiment.world_build_s": probe["build_s"] / probe["worlds"],
        "experiment.world_build_kb_per_node":
            probe["build_kb"] / probe["nodes"],
        "experiment.attempt_p50_s": quantile(attempts, 0.5),
        "experiment.attempt_p90_s": quantile(attempts, 0.9),
        "experiment.spawn_s": median_or_zero(spawns),
        "experiment.pool_utilization":
            sum(i["busy"] for i in good_t) /
            sum(i["capacity"] for i in good_t),
        "sim.rng_stream_us": probe["rng_stream_us"],
        "sim.run_s": probe["run_s"],
        "sim.ns_per_event": probe["run_s"] / probe["events"] * 1e9,
        "sim.dispatch_s": dispatch_s,
        "sim.queue_s": probe["run_s"] - dispatch_s,
        "sim.unattributed_s": dispatch_s - channel["total_s"] -
            mobility["total_s"] - mac["total_s"],
        "sim.events": t["events"],
        "mobility.tick_s": mobility["total_s"],
        "mobility.ticks": mobility["calls"],
        "phy.channel_scan_s": channel["total_s"],
        "phy.channel_scans": channel["calls"],
        "protocol.mac_s": mac["total_s"],
        "protocol.mac_calls": mac["calls"],
        "protocol.handshake_yield": t["data_tx"] / t["tx_attempts"],
        "protocol.rts_collision_ratio": t["rts_coll"] / t["rts_tx"],
        "snapshot.serialize_s": snap["serialize_s"],
        "snapshot.make_checkpoint_s": snap["make_checkpoint_s"],
        "snapshot.digest_s": snap["make_checkpoint_s"] - snap["serialize_s"],
        "snapshot.image_kb_per_node":
            snap["image_bytes"] / 1024.0 / snap["nodes"],
        "snapshot.container_put_p50_s": snap["container_put_p50_s"],
        "snapshot.container_put_p90_s": snap["container_put_p90_s"],
        "snapshot.resume_s": snap["resume_s"],
        "trace.overhead_ratio":
            statistics.median(i["wall"] for i in good_t) /
            statistics.median(i["wall"] for i in good_u),
    }


def print_self_time_table(spans):
    print("per-layer self time (traced pass):")
    print(f"  {'span':34s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    table = spans.self_times()
    for name in sorted(table):
        calls, total, self_s = table[name]
        print(f"  {name:34s} {calls:7d} {total:10.4f} {self_s:10.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="toy: the self-test size")
    args = ap.parse_args()
    global DEADLINE
    try:
        build()
        DEADLINE = time.perf_counter() + args.seconds + BUDGET_MARGIN_S
        host = host_fingerprint()
        res = run_benchmark(args.workload, args.scale, args.seed,
                            args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(res["metrics"]):
        print(f"perfbench: metrics {sorted(res['metrics'])} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {k: {"value": res["metrics"][k], "unit": units[k]}
               for k in units}
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    if args.trace:
        res["spans"].write_perfetto(os.path.join(res["workdir"],
                                                 "trace.json"))
        print_self_time_table(res["spans"])
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} "
          f"scenario.seed={scenario_seed(args.seed)} "
          f"iterations={json.dumps(res['info']['iterations'])} "
          f"failed_spec_ratio={res['info']['failed_spec_ratio']:.4f}")
    for err in res["info"]["errors"]:
        print("check failed: " + err)
    for k, m in metrics.items():
        print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(res["workdir"], "result.json"), "w") as f:
        json.dump({"host": host, "info": res["info"], **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
