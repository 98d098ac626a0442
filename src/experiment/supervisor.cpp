#include "experiment/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/thread_pool.hpp"
#include "experiment/dispatch.hpp"
#include "experiment/worker.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"
#include "snapshot/snapshot_io.hpp"
#include "telemetry/lifecycle_trace.hpp"
#include "telemetry/status.hpp"
#include "telemetry/status_server.hpp"

extern char** environ;

namespace dftmsn {
namespace {

using Clock = std::chrono::steady_clock;

/// Manifest record format. v5: each spec's record is one binary entry of
/// a DFTMSNCC container, keyed by spec index (v4 was the line-oriented
/// manifest.txt). The version leads every payload, so a checkpoint image
/// is never read as a manifest record.
constexpr std::uint32_t kManifestVersion = 5;

std::vector<std::uint8_t> encode_spec_record(const SpecRecord& r,
                                             std::size_t num_specs) {
  snapshot::Writer w;
  w.u32(kManifestVersion);
  w.begin_section("spec_record");
  w.size(num_specs);
  w.u8(static_cast<std::uint8_t>(r.status));
  w.i64(r.retries);
  w.u64(r.checkpoints);
  w.u64(r.config_digest);
  w.str(r.detail);
  save_run_result(r.result, w);
  r.registry.save_state(w);
  w.end_section();
  return w.bytes();
}

/// Decodes one manifest record; *num_specs receives the sweep size it
/// was written for.
SpecRecord decode_spec_record(const std::vector<std::uint8_t>& payload,
                              std::size_t* num_specs) {
  snapshot::Reader rd(payload);
  const std::uint32_t version = rd.u32();
  if (version != kManifestVersion)
    throw snapshot::SnapshotError(
        "record format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kManifestVersion) +
        ")");
  SpecRecord r;
  rd.begin_section("spec_record");
  *num_specs = rd.size();
  const std::uint8_t status = rd.u8();
  if (status > static_cast<std::uint8_t>(SpecStatus::kInterrupted))
    throw snapshot::SnapshotError("bad status " + std::to_string(status));
  r.status = static_cast<SpecStatus>(status);
  const std::int64_t retries = rd.i64();
  if (retries < 0 || retries > std::numeric_limits<int>::max())
    throw snapshot::SnapshotError("retries out of range");
  r.retries = static_cast<int>(retries);
  r.checkpoints = rd.u64();
  r.config_digest = rd.u64();
  r.detail = rd.str();
  load_run_result(r.result, rd);
  r.registry.load_state(rd);
  rd.end_section();
  if (!rd.at_end()) throw snapshot::SnapshotError("trailing bytes");
  return r;
}

/// Per-spec supervision state shared between the thread running the spec
/// and the watchdog and status-sampler threads. The atomics are the
/// cross-thread surface; the trailing fields are watchdog-thread scratch.
struct Slot {
  /// The current attempt's progress: written by its simulator in-thread,
  /// mirrored from heartbeats for a worker process.
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> sim_time_bits{0};
  std::atomic<std::uint64_t> ckpt_seq{0};
  std::atomic<bool> abort{false};
  std::atomic<bool> active{false};
  std::atomic<bool> watchdog_fired{false};
  /// Process isolation: the spawned worker's pid while one is running
  /// (-1 otherwise) — a hung or stopped worker cannot honor the abort
  /// flag, so the watchdog SIGKILLs it instead.
  std::atomic<long> child_pid{-1};

  bool seen = false;
  std::uint64_t last_progress = 0;
  Clock::time_point last_change{};
  /// Watchdog-thread scratch: last pid a SIGKILL was traced for, so the
  /// repeated kill of one stubborn child logs a single sigkill event.
  long last_killed_pid = -1;
};

/// The board's view of a completed spec, fresh or carried over by a
/// resume.
void board_done(telemetry::StatusBoard& board, std::size_t i,
                const SpecRecord& rec, double horizon) {
  board.update_progress(i, rec.result.events_executed, horizon);
  board.sync_checkpoints(i, rec.checkpoints);
  board.mark_done(i);
  board.absorb_registry(rec.registry);
}

/// Lifecycle transitions of a spec, shared by the local retry loop and
/// the dispatch callbacks: each updates the SpecRecord, the status board
/// and the lifecycle trace together. The board and trace pointers are
/// null when the observability plane is off.
struct Obs {
  telemetry::StatusBoard* board = nullptr;
  telemetry::LifecycleTrace* trace = nullptr;

  void running(std::size_t i, int attempt) const {
    if (board) board->mark_running(i, attempt);
    if (trace)
      trace->begin(i, "attempt", {{"attempt", std::to_string(attempt)}});
  }

  /// The attempt replayed (or ran) the whole trajectory from event 0, so
  /// its registry covers the full run: one merge, no double-counted
  /// retry prefixes.
  void completed(SpecRecord& rec, std::size_t i, int attempt,
                 WorkerResult&& w, double horizon) const {
    rec.status = SpecStatus::kCompleted;
    rec.retries = attempt;
    rec.detail.clear();
    rec.result = w.result;
    rec.registry.merge(w.registry);
    if (board) board_done(*board, i, rec, horizon);
    if (trace) trace->end(i, "attempt");
  }

  /// `attempt` is the next attempt's number.
  void retrying(SpecRecord& rec, std::size_t i, int attempt,
                const std::string& detail) const {
    rec.retries = attempt;
    rec.detail = detail;
    if (board) board->mark_retrying(i, attempt, detail);
    if (trace) {
      trace->end(i, "attempt");
      trace->instant(i, "retry",
                     {{"attempt", std::to_string(attempt - 1)},
                      {"reason", detail}});
    }
  }

  void quarantined(SpecRecord& rec, std::size_t i, int attempt,
                   const std::string& detail) const {
    rec.status = SpecStatus::kQuarantined;
    rec.retries = attempt;
    rec.detail = detail;
    if (board) board->mark_quarantined(i, detail);
    if (trace) {
      trace->end(i, "attempt");
      trace->instant(i, "quarantine",
                     {{"attempt", std::to_string(std::max(0, attempt - 1))},
                      {"reason", detail}});
    }
  }

  /// Empty `detail`: the spec was stopped between attempts, so it keeps
  /// its last failure detail (or says it never started).
  void interrupted(SpecRecord& rec, std::size_t i,
                   const std::string& detail) const {
    rec.status = SpecStatus::kInterrupted;
    if (!detail.empty())
      rec.detail = detail;
    else if (rec.detail.empty())
      rec.detail = "stopped before start";
    if (board) {
      board->sync_checkpoints(i, rec.checkpoints);
      board->mark_interrupted(i, rec.detail);
    }
    if (trace) {
      if (!detail.empty()) trace->end(i, "attempt");
      trace->instant(i, "interrupted", {{"reason", rec.detail}});
    }
  }
};

/// Spawns `exe --worker 3` on a fresh socketpair whose other end goes to
/// *link. Both ends are close-on-exec, and the child gets its end only
/// through the dup2 onto descriptor 3: no sibling worker holds a copy, so
/// the parent sees EOF the moment this worker dies. Returns the pid.
pid_t spawn_worker(const std::string& exe, int* link) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw std::runtime_error(std::string("socketpair: ") +
                             std::strerror(errno));
  if (sv[1] == kWorkerLinkFd) {
    // dup2 onto itself would leave close-on-exec set.
    const int moved = ::fcntl(sv[1], F_DUPFD_CLOEXEC, kWorkerLinkFd + 1);
    ::close(sv[1]);
    sv[1] = moved;
  }
  int rc = sv[1] < 0 ? errno : 0;
  pid_t pid = -1;
  if (rc == 0) {
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, sv[1], kWorkerLinkFd);
    const std::string fd = std::to_string(kWorkerLinkFd);
    std::vector<char*> argv = {const_cast<char*>(exe.c_str()),
                               const_cast<char*>("--worker"),
                               const_cast<char*>(fd.c_str()), nullptr};
    rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(),
                       environ);
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(sv[1]);
  }
  if (rc != 0) {
    ::close(sv[0]);
    throw std::runtime_error("cannot spawn worker " + exe + ": " +
                             std::strerror(rc));
  }
  *link = sv[0];
  return pid;
}

/// One attempt in a spawned worker process (`worker_exe --worker 3`)
/// talking over a socketpair: the parent serves it one grant, mirrors its
/// heartbeats into the slot's progress sinks, reaps it with waitpid and
/// judges it by exit status + result-frame state.
WorkerResult run_process_attempt(const WorkerRequest& req,
                                 const SupervisorOptions& opts,
                                 const AttemptSinks& sinks, Slot& slot,
                                 const Obs& obs) {
  WorkerResult res;
  try {
    GrantItem item;
    item.spec = req.checkpoint_spec;
    item.attempt = req.attempt;
    item.request = encode_worker_request(req);
    int link = -1;
    const pid_t pid = spawn_worker(opts.worker_exe, &link);

    slot.child_pid.store(pid);
    slot.active.store(true);
    if (obs.board) obs.board->mark_worker_spawn(item.spec);
    if (obs.trace)
      obs.trace->instant(item.spec, "worker_spawn",
                         {{"pid", std::to_string(pid)},
                          {"attempt", std::to_string(req.attempt)}});
    // An abort that raced the pid publication (external stop between
    // spawn and store) could not kill the child — honor it here. The
    // symmetric watchdog-side race (pid read just before a worker exits
    // and the pid is reused) is accepted: the window is one poll
    // interval and the stray SIGKILL would need a same-pid recycle
    // within it.
    if (slot.abort.load()) ::kill(pid, SIGKILL);

    // Heartbeats every quarter watchdog window, so a live worker never
    // looks stalled; without a watchdog they only feed the status plane.
    const double lease = opts.watchdog_secs > 0.0 ? opts.watchdog_secs : 1.0;
    const ResultFrameState frame =
        serve_worker_link(link, item, lease, sinks, &res);
    ::close(link);

    int status = 0;
    pid_t waited = -1;
    do {
      waited = ::waitpid(pid, &status, 0);
    } while (waited < 0 && errno == EINTR);
    slot.active.store(false);
    slot.child_pid.store(-1);
    if (waited != pid)
      throw std::runtime_error(std::string("waitpid: ") +
                               std::strerror(errno));

    // Checkpoint counts come only from decoded results; a SIGKILLed
    // worker's partial writes are simply not counted.
    if (frame != ResultFrameState::kOk && frame != ResultFrameState::kError)
      res.checkpoints_written = 0;
    const WorkerExitDecision verdict =
        decode_worker_exit(status, frame, res.error);
    res.ok = verdict.accept;
    res.error = verdict.detail;
    if (!res.ok && !slot.watchdog_fired.load() && opts.stop &&
        opts.stop->load()) {
      // External stop: the watchdog SIGKILLed the worker, so its last
      // periodic checkpoint (no final one can be flushed) keeps the spec
      // resumable.
      res.interrupted = true;
      res.error = "interrupted (worker stopped)";
    }
  } catch (const std::exception& e) {
    slot.active.store(false);
    slot.child_pid.store(-1);
    res = WorkerResult();
    res.error = e.what();
  }
  return res;
}

/// One spec through the retry/backoff/quarantine loop, each attempt in
/// this thread or in a spawned worker process per opts.isolate.
void run_spec(const RunSpec& spec, std::size_t index,
              const SupervisorOptions& opts, Slot& slot, const Obs& obs,
              SpecRecord& rec) {
  const bool isolated = opts.isolate == IsolationMode::kProcess;
  WorkerRequest req;
  req.config = spec.config;
  req.kind = spec.kind;
  req.checkpoint_spec = index;
  req.checkpoint_every_s = opts.checkpoint_every_s;
  req.verify_on_resume = opts.verify_on_resume;
  if (!opts.checkpoint_dir.empty())
    req.checkpoint_path = checkpoint_container_path(opts.checkpoint_dir);

  // In-thread, the last good checkpoint is kept in memory: a retry must
  // not depend on re-reading an entry a torn write may have damaged. A
  // worker process starts empty-handed each attempt, so there the
  // container entry is the last good image — and a non-resume sweep must
  // clear leftovers the in-thread path simply ignores.
  std::vector<std::uint8_t> retained;
  if (!req.checkpoint_path.empty()) {
    try {
      if (isolated && !opts.resume) {
        snapshot::container_erase(req.checkpoint_path, index);
      } else if (!isolated && opts.resume) {
        auto entry = snapshot::container_get(req.checkpoint_path, index);
        if (entry) retained = std::move(*entry);
      }
    } catch (const std::exception&) {
      // Missing, torn or foreign: the spec starts from scratch (fsck owns
      // the damage).
    }
  }

  AttemptSinks sinks;
  sinks.events = &slot.progress;
  sinks.sim_time_bits = &slot.sim_time_bits;
  sinks.checkpoint_seq = &slot.ckpt_seq;
  sinks.active = &slot.active;
  sinks.abort = &slot.abort;
  sinks.stop = opts.stop;
  sinks.retained = &retained;
  sinks.stop_after_checkpoints = opts.stop_after_checkpoints;

  for (int attempt = 0;;) {
    if (opts.stop && opts.stop->load()) {
      obs.interrupted(rec, index, "");
      return;
    }
    req.attempt = attempt;
    slot.watchdog_fired.store(false);
    slot.abort.store(false);
    slot.progress.store(0);
    slot.sim_time_bits.store(0);
    slot.ckpt_seq.store(0);
    obs.running(index, attempt);

    WorkerResult res = isolated
                           ? run_process_attempt(req, opts, sinks, slot, obs)
                           : execute_attempt(req, sinks);
    rec.checkpoints += res.checkpoints_written;
    if (!res.resume_rejected.empty()) {
      const std::string why = sanitize(res.resume_rejected);
      std::fprintf(stderr, "spec %zu: checkpoint not resumed (%s)\n", index,
                   why.c_str());
      if (obs.trace)
        obs.trace->instant(index, "resume_rejected", {{"reason", why}});
    }
    if (res.ok) {
      if (!req.checkpoint_path.empty()) {
        try {
          snapshot::container_erase(req.checkpoint_path, index);
        } catch (const std::exception&) {
          // The result is already accepted; a failed cleanup of the
          // spent checkpoint entry must not turn into a retry.
        }
      }
      obs.completed(rec, index, attempt, std::move(res),
                    spec.config.scenario.duration_s);
      return;
    }
    if (res.interrupted) {
      obs.interrupted(rec, index, res.error);
      return;
    }

    // A watchdog abort (or SIGKILL) surfaces as an ordinary failure; keep
    // its own diagnosis inside the watchdog message.
    std::string fail = res.error;
    if (slot.watchdog_fired.load())
      fail = "watchdog: no event progress for " +
             std::to_string(opts.watchdog_secs) + "s wall (" + fail + ")";
    const std::string detail =
        sanitize("attempt " + std::to_string(attempt) + ": " + fail);
    ++attempt;
    if (attempt > opts.max_retries) {
      obs.quarantined(rec, index, attempt, detail);
      return;
    }
    obs.retrying(rec, index, attempt, detail);
    const double backoff = std::min(
        5.0, opts.retry_backoff_s * std::pow(2.0, attempt - 1));
    if (backoff > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

}  // namespace

const char* spec_status_name(SpecStatus s) {
  switch (s) {
    case SpecStatus::kPending: return "pending";
    case SpecStatus::kCompleted: return "completed";
    case SpecStatus::kQuarantined: return "quarantined";
    case SpecStatus::kInterrupted: return "interrupted";
  }
  return "?";
}

int SweepManifest::count(SpecStatus s) const {
  int n = 0;
  for (const SpecRecord& r : specs) n += (r.status == s) ? 1 : 0;
  return n;
}

int SweepManifest::retried() const {
  int n = 0;
  for (const SpecRecord& r : specs) n += (r.retries > 0) ? 1 : 0;
  return n;
}

std::uint64_t SweepManifest::total_checkpoints() const {
  std::uint64_t n = 0;
  for (const SpecRecord& r : specs) n += r.checkpoints;
  return n;
}

std::string manifest_path(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/manifest.dcc";
}

std::string checkpoint_container_path(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/checkpoints.dcc";
}

std::string legacy_manifest_path(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/manifest.txt";
}

void write_manifest(const std::string& path, const SweepManifest& manifest) {
  std::vector<std::vector<std::uint8_t>> records;
  records.reserve(manifest.specs.size());
  for (const SpecRecord& r : manifest.specs)
    records.push_back(encode_spec_record(r, manifest.specs.size()));
  snapshot::container_write_fresh(path, records);
}

bool load_manifest(const std::string& path, SweepManifest* out) {
  if (!std::filesystem::exists(path)) return false;
  const auto bad = [&path](const std::string& what) {
    throw std::runtime_error("manifest " + path + ": " + what);
  };
  // The container scan and reads step over a torn tail or a damaged
  // record exactly as for checkpoints; the specs whose records they cut
  // load as pending with config digest 0.
  SweepManifest m;
  bool any = false;
  for (const snapshot::ContainerEntry& e :
       snapshot::container_scan(path).entries) {
    const auto payload = snapshot::container_get(path, e.spec);
    if (!payload) continue;
    std::size_t n = 0;
    SpecRecord r;
    try {
      r = decode_spec_record(*payload, &n);
    } catch (const std::exception& ex) {
      bad("spec " + std::to_string(e.spec) + ": " + ex.what());
    }
    if (!any) m.specs.resize(n);
    any = true;
    if (n != m.specs.size() || e.spec >= n)
      bad("spec " + std::to_string(e.spec) + " belongs to a sweep of " +
          std::to_string(n) + " specs, not " + std::to_string(m.specs.size()));
    m.specs[e.spec] = std::move(r);
  }
  if (!any) return false;
  *out = std::move(m);
  return true;
}

StreamStats run_specs_streamed(const std::vector<RunSpec>& specs,
                               const SupervisorOptions& opts,
                               const SpecSink& sink) {
  const bool dispatched = opts.dispatch.enabled();
  if (dispatched && opts.isolate == IsolationMode::kProcess)
    throw std::runtime_error(
        "supervisor: dispatch mode runs specs on connected workers; "
        "process isolation is incompatible with --dispatch-port");

  std::vector<std::uint64_t> digests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    digests[i] = config_digest(specs[i].config, specs[i].kind);

  const bool use_dir = !opts.checkpoint_dir.empty();
  if (use_dir) std::filesystem::create_directories(opts.checkpoint_dir);
  if (opts.isolate == IsolationMode::kProcess && opts.worker_exe.empty())
    throw std::runtime_error(
        "supervisor: process isolation needs a worker executable");

  // Per-spec seed records. `carried[i]` starts as a fresh record holding
  // only the config digest; a resume fills in carried-over completions
  // (skip[i] = 1), which skip execution and re-emit through the reorder
  // buffer. Everything else reruns with a fresh retry budget (its
  // checkpoint, if any, is picked up by the worker).
  std::vector<SpecRecord> carried(specs.size());
  std::vector<char> skip(specs.size(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i)
    carried[i].config_digest = digests[i];
  if (opts.resume && use_dir) {
    const std::string legacy = legacy_manifest_path(opts.checkpoint_dir);
    if (std::filesystem::exists(legacy))
      throw std::runtime_error(
          "supervisor: " + legacy +
          " is a text manifest from a build before manifest format v5, "
          "which this build cannot read — finish the sweep with that "
          "build, or delete the file to re-run it — refusing to resume");
    SweepManifest prev;
    if (load_manifest(manifest_path(opts.checkpoint_dir), &prev)) {
      if (prev.specs.size() != specs.size())
        throw std::runtime_error(
            "supervisor: manifest holds " +
            std::to_string(prev.specs.size()) + " specs but this sweep has " +
            std::to_string(specs.size()) + " — refusing to resume");
      for (std::size_t i = 0; i < specs.size(); ++i) {
        // Digest 0: the record was cut by container recovery; the spec
        // re-runs.
        if (prev.specs[i].config_digest != 0 &&
            prev.specs[i].config_digest != digests[i])
          throw std::runtime_error(
              "supervisor: manifest was written by a different sweep "
              "(config digest mismatch at spec " + std::to_string(i) +
              ") — refusing to resume");
        if (prev.specs[i].status == SpecStatus::kCompleted) {
          carried[i] = std::move(prev.specs[i]);
          skip[i] = 1;
        }
      }
    }
  }

  // The streamed manifest: an all-pending scaffold, one atomic container
  // image written before any spec runs (a SIGKILL landing before the
  // first completion must still leave a resumable manifest), then one
  // container_put per terminal record.
  const std::string mpath = use_dir ? manifest_path(opts.checkpoint_dir) : "";
  if (use_dir) {
    SweepManifest scaffold;
    scaffold.specs.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      scaffold.specs[i].config_digest = digests[i];
    write_manifest(mpath, scaffold);
  }

  // Index-order reorder buffer: terminal records publish in completion
  // order but emit (manifest append + sink) in strict spec-index order,
  // so manifest bytes are identical at every jobs value and downstream
  // aggregation can fold incrementally. Peak memory is the out-of-order
  // window, not the whole sweep.
  StreamStats stats;
  std::mutex emit_mu;
  std::map<std::size_t, SpecRecord> buffered;
  std::size_t next_emit = 0;
  const auto publish = [&](std::size_t i, SpecRecord&& rec) {
    std::lock_guard<std::mutex> lock(emit_mu);
    buffered.emplace(i, std::move(rec));
    stats.peak_buffered = std::max(stats.peak_buffered, buffered.size());
    for (auto it = buffered.find(next_emit); it != buffered.end();
         it = buffered.find(next_emit)) {
      if (use_dir)
        snapshot::container_put(mpath, next_emit,
                                encode_spec_record(it->second, specs.size()));
      if (sink) sink(next_emit, std::move(it->second));
      buffered.erase(it);
      ++next_emit;
    }
  };

  std::vector<Slot> slots(specs.size());

  // --- observability plane (purely observational; see supervisor.hpp).
  // Declaration order matters: the server thread reads the board and is
  // a member declared last, so it is destroyed (and joined) first.
  std::unique_ptr<telemetry::StatusBoard> board;
  std::unique_ptr<telemetry::LifecycleTrace> ltrace;
  std::unique_ptr<telemetry::StatusServer> server;
  std::string status_dir;
  if (opts.obs.enabled()) {
    if (opts.obs.status_every_s > 0.0) {
      status_dir = opts.obs.status_dir.empty() ? opts.checkpoint_dir
                                               : opts.obs.status_dir;
      if (status_dir.empty())
        throw std::runtime_error(
            "supervisor: --status-every needs a status directory "
            "(or a checkpoint dir to default to)");
      std::filesystem::create_directories(status_dir);
    }
    board = std::make_unique<telemetry::StatusBoard>();
    std::vector<double> horizons(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      horizons[i] = specs[i].config.scenario.duration_s;
    board->reset(specs.size(), horizons);
    // Resume carry-over: completed specs never re-run, so the board
    // learns about them here or never.
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (carried[i].status == SpecStatus::kCompleted)
        board_done(*board, i, carried[i], horizons[i]);
    if (!opts.obs.trace_path.empty())
      ltrace = std::make_unique<telemetry::LifecycleTrace>(opts.obs.trace_path);
    if (opts.obs.status_port >= 0) {
      telemetry::StatusServer::Handlers handlers;
      telemetry::StatusBoard* b = board.get();
      handlers.status_json = [b] { return b->render_status_json(); };
      handlers.metrics_text = [b] { return b->render_prometheus(); };
      handlers.healthy = [b] { return b->healthy(); };
      server = std::make_unique<telemetry::StatusServer>(
          opts.obs.status_port, std::move(handlers));
      // Flushed eagerly: harnesses discover an ephemeral port by polling
      // this line, and a block-buffered redirect would starve them.
      if (opts.obs.announce)
        *opts.obs.announce << "status: listening on 127.0.0.1:"
                           << server->port() << std::endl;
    }
  }
  const Obs obs{board.get(), ltrace.get()};

  std::atomic<bool> watchdog_quit{false};
  std::thread watchdog;
  // Dispatch mode has no slots to watch and no children to kill: lease
  // expiry is its hang detector, and the dispatcher polls opts.stop
  // itself.
  if (!dispatched && (opts.watchdog_secs > 0.0 || opts.stop)) {
    const auto poll = std::chrono::duration<double>(
        opts.watchdog_secs > 0.0
            ? std::clamp(opts.watchdog_secs / 4.0, 0.01, 0.25)
            : 0.05);
    // `poll` by value: this block's scope ends while the thread runs.
    watchdog = std::thread([&, poll] {
      while (!watchdog_quit.load()) {
        const bool ext = opts.stop && opts.stop->load();
        const Clock::time_point now = Clock::now();
        for (std::size_t si = 0; si < slots.size(); ++si) {
          Slot& s = slots[si];
          // An isolated worker cannot observe the abort flag — SIGKILL
          // is the only lever the parent has on a hung or stopped child.
          // Repeated kills of one stubborn pid trace a single sigkill.
          const auto kill_child = [&s, si, &obs] {
            const long pid = s.child_pid.load();
            if (pid <= 0) return;
            ::kill(static_cast<pid_t>(pid), SIGKILL);
            if (pid == s.last_killed_pid) return;
            s.last_killed_pid = pid;
            if (obs.board) obs.board->mark_sigkill(si);
            if (obs.trace)
              obs.trace->instant(si, "sigkill",
                                 {{"pid", std::to_string(pid)}});
          };
          if (ext) {
            s.abort.store(true);
            kill_child();
            continue;
          }
          if (!s.active.load()) {
            s.seen = false;
            continue;
          }
          if (opts.watchdog_secs <= 0.0) continue;
          const std::uint64_t p = s.progress.load();
          if (!s.seen || p != s.last_progress) {
            s.seen = true;
            s.last_progress = p;
            s.last_change = now;
            continue;
          }
          if (std::chrono::duration<double>(now - s.last_change).count() >
              opts.watchdog_secs) {
            // exchange() gives the trip *edge*: the flag is re-armed by
            // the runner at each attempt start, so one stall counts once
            // no matter how many polls see it.
            if (!s.watchdog_fired.exchange(true)) {
              if (obs.board) obs.board->mark_watchdog(si);
              if (obs.trace)
                obs.trace->instant(
                    si, "watchdog",
                    {{"stalled_s", std::to_string(opts.watchdog_secs)}});
            }
            s.abort.store(true);
            kill_child();
          }
        }
        std::this_thread::sleep_for(poll);
      }
    });
  }

  // Status sampling thread: mirrors live progress counters (the same
  // ones the watchdog reads) onto the board, recomputes EMA/ETA, and
  // atomically rewrites status.json on its cadence. Read-only with
  // respect to the sweep.
  std::atomic<bool> status_quit{false};
  std::thread status_thread;
  if (board) {
    status_thread = std::thread([&] {
      const Clock::time_point t0 = Clock::now();
      std::vector<std::uint64_t> last_seq(specs.size(), 0);
      double next_write = 0.0;  // first rewrite happens immediately
      const double period = opts.obs.status_every_s;
      const auto poll = std::chrono::duration<double>(
          period > 0.0 ? std::clamp(period / 2.0, 0.01, 0.25) : 0.25);
      for (;;) {
        const bool quitting = status_quit.load();
        for (std::size_t i = 0; i < slots.size(); ++i) {
          Slot& s = slots[i];
          if (!s.active.load()) continue;
          const std::uint64_t seq = s.ckpt_seq.load();
          board->update_progress(i, s.progress.load(),
                                 bits_double(s.sim_time_bits.load()));
          if (seq > last_seq[i]) {
            board->mark_checkpoint(i, seq - last_seq[i]);
            if (obs.trace)
              obs.trace->instant(i, "checkpoint",
                                 {{"seq", std::to_string(seq)}});
          }
          last_seq[i] = seq;  // retries reset the sequence; track down too
        }
        const double wall =
            std::chrono::duration<double>(Clock::now() - t0).count();
        board->sample(wall);
        if (!status_dir.empty() && (quitting || wall >= next_write)) {
          const std::string doc = board->render_status_json();
          try {
            snapshot::write_file_atomic(
                status_dir + "/status.json",
                std::vector<std::uint8_t>(doc.begin(), doc.end()));
          } catch (const std::exception&) {
            // Status is best-effort; a full disk must not kill the sweep.
          }
          next_write = wall + period;
        }
        if (quitting) break;
        std::this_thread::sleep_for(poll);
      }
    });
  }

  // Seed carried-over completions into the reorder buffer: they emit
  // (in index order) without re-running.
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (skip[i]) publish(i, SpecRecord(carried[i]));

  const auto join_threads = [&] {
    status_quit.store(true);
    if (status_thread.joinable()) status_thread.join();
    watchdog_quit.store(true);
    if (watchdog.joinable()) watchdog.join();
  };

  try {
    if (dispatched) {
      // The dispatcher event loop drives the same lifecycle the local
      // loops do, through callbacks that mirror their manifest/board/
      // trace conventions exactly — a clean dispatched sweep is
      // byte-identical to an in-process one.
      DispatchPolicy policy;
      policy.max_retries = opts.max_retries;
      policy.retry_backoff_s = opts.retry_backoff_s;
      policy.stop = opts.stop;

      DispatchCallbacks cb;
      cb.make_request = [&](std::size_t i, int attempt) {
        WorkerRequest req;
        req.config = specs[i].config;
        req.kind = specs[i].kind;
        req.attempt = attempt;
        req.verify_on_resume = opts.verify_on_resume;
        return encode_worker_request(req);
      };
      cb.on_started = [&](std::size_t i, int attempt) {
        obs.running(i, attempt);
      };
      cb.on_completed = [&](std::size_t i, int attempt, WorkerResult&& w) {
        obs.completed(carried[i], i, attempt, std::move(w),
                      specs[i].config.scenario.duration_s);
        publish(i, std::move(carried[i]));
      };
      cb.on_quarantined = [&](std::size_t i, int attempt,
                              const std::string& detail) {
        obs.quarantined(carried[i], i, attempt, detail);
        publish(i, std::move(carried[i]));
      };
      cb.on_interrupted = [&](std::size_t i, const std::string& detail) {
        obs.interrupted(carried[i], i, detail);
        publish(i, std::move(carried[i]));
      };
      cb.on_retrying = [&](std::size_t i, int attempt,
                           const std::string& detail) {
        obs.retrying(carried[i], i, attempt, detail);
      };
      cb.on_requeued = [&](std::size_t i, int count,
                           const std::string& reason) {
        if (obs.trace)
          obs.trace->instant(i, "requeue",
                             {{"count", std::to_string(count)},
                              {"reason", sanitize(reason)}});
      };
      cb.on_progress = [&](std::size_t i, std::uint64_t events, double t) {
        if (obs.board) obs.board->update_progress(i, events, t);
      };
      cb.announce = [&](const std::string& line) {
        if (opts.obs.announce) *opts.obs.announce << line << std::endl;
      };
      run_dispatch_queue(specs.size(), skip, opts.dispatch, policy,
                         board.get(), std::move(cb));
    } else {
      parallel_for(specs.size(), resolve_jobs(opts.jobs), [&](std::size_t i) {
        if (skip[i]) return;  // resumed as done, already seeded
        SpecRecord rec = carried[i];
        run_spec(specs[i], i, opts, slots[i], obs, rec);
        publish(i, std::move(rec));
      });
    }
  } catch (...) {
    join_threads();
    throw;
  }

  join_threads();
  return stats;
}

SweepManifest run_specs_supervised(const std::vector<RunSpec>& specs,
                                   const SupervisorOptions& opts) {
  SweepManifest manifest;
  manifest.specs.resize(specs.size());
  run_specs_streamed(specs, opts,
                     [&manifest](std::size_t i, SpecRecord&& rec) {
                       manifest.specs[i] = std::move(rec);
                     });
  return manifest;
}

std::vector<RunResult> completed_results(const SweepManifest& manifest) {
  std::vector<RunResult> out;
  for (const SpecRecord& r : manifest.specs)
    if (r.status == SpecStatus::kCompleted) out.push_back(r.result);
  return out;
}

SupervisedSweep run_sweep_supervised(const std::vector<SweepPoint>& points,
                                     int replications,
                                     const SupervisorOptions& opts) {
  if (replications < 0) replications = 0;
  std::vector<RunSpec> specs;
  specs.reserve(points.size() * static_cast<std::size_t>(replications));
  for (const SweepPoint& p : points) {
    const std::uint64_t base_seed = p.config.scenario.seed;
    for (int rep = 0; rep < replications; ++rep) {
      RunSpec s = p;
      s.config.scenario.seed = base_seed + static_cast<std::uint64_t>(rep);
      specs.push_back(std::move(s));
    }
  }

  SupervisedSweep out;
  out.manifest.specs.resize(specs.size());
  out.points.reserve(points.size());
  const std::size_t reps = static_cast<std::size_t>(replications);
  // Streaming aggregation: records arrive in strict spec-index order
  // (replication order within each point), so a point's aggregate folds
  // the moment its last replication emits — the fold only ever holds
  // one point's completed results, and is bit-identical to aggregating
  // after the fact (reduce_results folds in input order either way).
  std::vector<RunResult> fold;
  run_specs_streamed(specs, opts, [&](std::size_t i, SpecRecord&& rec) {
    if (rec.status == SpecStatus::kCompleted) fold.push_back(rec.result);
    out.manifest.specs[i] = std::move(rec);
    if (reps != 0 && (i + 1) % reps == 0) {
      out.points.push_back(reduce_results(fold));
      fold.clear();
    }
  });
  // replications == 0: no specs ran, every point aggregates over nothing.
  while (out.points.size() < points.size())
    out.points.push_back(reduce_results(std::vector<RunResult>()));
  return out;
}

}  // namespace dftmsn
