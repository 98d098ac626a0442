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
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
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

#include "common/net_util.hpp"
#include "common/thread_pool.hpp"
#include "experiment/dispatch.hpp"
#include "experiment/spec_queue.hpp"
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

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// A fresh socketpair, both ends close-on-exec: *parent gets one end,
/// the other is returned.
int link_pair(int* parent) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw std::runtime_error(std::string("socketpair: ") +
                             std::strerror(errno));
  *parent = sv[0];
  return sv[1];
}

/// Spawns `exe --worker 3` on a fresh socketpair whose other end goes to
/// *link. The child gets its end only through the dup2 onto descriptor
/// 3: no sibling worker holds a copy, so the parent sees EOF the moment
/// this worker dies. Returns the pid.
pid_t spawn_worker(const std::string& exe, int* link) {
  int child = link_pair(link);
  if (child == kWorkerLinkFd) {
    // dup2 onto itself would leave close-on-exec set.
    const int moved = ::fcntl(child, F_DUPFD_CLOEXEC, kWorkerLinkFd + 1);
    ::close(child);
    child = moved;
  }
  int rc = child < 0 ? errno : 0;
  pid_t pid = -1;
  if (rc == 0) {
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, child, kWorkerLinkFd);
    const std::string fd = std::to_string(kWorkerLinkFd);
    std::vector<char*> argv = {const_cast<char*>(exe.c_str()),
                               const_cast<char*>("--worker"),
                               const_cast<char*>(fd.c_str()), nullptr};
    rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(),
                       environ);
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(child);
  }
  if (rc != 0) {
    ::close(*link);
    *link = -1;
    throw std::runtime_error("cannot spawn worker " + exe + ": " +
                             std::strerror(rc));
  }
  return pid;
}

/// In-thread executors: a FIFO of attempts served by n-1 threads of its
/// own plus the one that calls serve(). The sweep's calling thread is an
/// executor so that a single-job sweep builds its world on the main
/// thread's malloc arena, as a plain run does: on a thread arena a
/// 100k-node world spent about 0.1 s more in the kernel.
class Executors {
 public:
  explicit Executors(int n) {
    for (int k = 1; k < n; ++k) threads_.emplace_back([this] { serve(); });
  }
  ~Executors() {
    close();
    for (std::thread& t : threads_) t.join();
  }
  Executors(const Executors&) = delete;
  Executors& operator=(const Executors&) = delete;

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
    }
    ready_.notify_one();
  }

  /// Runs tasks until close() was called and none is left. Tasks must
  /// not throw.
  void serve() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_.wait(lock, [this] { return closed_ || !tasks_.empty(); });
        if (tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> tasks_;
  bool closed_ = false;
  std::vector<std::thread> threads_;
};

/// One end of a frame stream: a `--jobs` slot's socketpair or a TCP
/// worker's connection.
struct Link {
  int fd = -1;
  std::string name;               ///< from the hello; empty before it
  std::vector<std::uint8_t> buf;  ///< received, not yet a whole frame
  std::vector<std::uint8_t> out;  ///< to send, from byte `sent` on
  std::size_t sent = 0;
  ImageParts parts;
  std::vector<std::uint64_t> leases;  ///< TCP: leases it may still hold
};

/// A `--jobs` slot: each attempt runs the worker loop (run_worker_link)
/// on a fresh socketpair, on an executor thread or, under --isolate
/// process, in a spawned `--worker` child.
struct Slot {
  Link link;
  pid_t pid = -1;  ///< the worker process; -1 for an executor thread
  bool busy = false;
  std::uint64_t lease = 0;
  std::size_t spec = 0;
  std::atomic<bool> abort{false};  ///< an executor thread's lever
  ResultFrameState frame = ResultFrameState::kMissing;
  WorkerResult result;
  std::string broken;  ///< why its stream was cut
  bool killed = false;
};

/// The sweep's event loop, on the supervisor thread: drives the SpecQueue
/// from its clients over one poll set — `--jobs` executor threads or
/// spawned worker processes, plus TCP workers when dispatching. Every
/// client speaks the same frames through the same path into the queue;
/// only how a local attempt is aborted differs (a flag for a thread,
/// SIGKILL for a process). The loop never blocks on a client: what a
/// link cannot take now waits in Link::out until poll reports room.
class Scheduler {
 public:
  Scheduler(const std::vector<RunSpec>& specs, const SupervisorOptions& opts,
            SpecQueue& q, const Obs& obs)
      : specs_(specs),
        opts_(opts),
        q_(q),
        obs_(obs),
        isolated_(opts.isolate == IsolationMode::kProcess) {
    if (opts.dispatch.enabled()) {
      listen_fd_ = net::listen_tcp(opts.dispatch.bind, opts.dispatch.port,
                                   /*backlog=*/16);
      const int port = net::bound_port(listen_fd_);
      if (opts.dispatch.port_out != nullptr) opts.dispatch.port_out->store(port);
      announce("dispatch: listening on " + opts.dispatch.bind + ":" +
               std::to_string(port));
      if (obs_.board) obs_.board->dispatch_enable();
    }
    if (opts.watchdog_secs > 0.0) local_lease_ = opts.watchdog_secs;
    // Dispatch without process isolation stays remote-only: an in-thread
    // segfault would take down the dispatcher the remote workers need.
    const int local =
        opts.dispatch.enabled() && !isolated_ ? 0 : resolve_jobs(opts.jobs);
    for (int k = 0; k < local; ++k) slots_.push_back(std::make_unique<Slot>());
    if (local > 0 && !isolated_) pool_ = std::make_unique<Executors>(local);
  }

  ~Scheduler() {
    hang_up();
    pool_.reset();  // joins the executors
    for (auto& s : slots_) {
      if (s->pid > 0) ::waitpid(s->pid, nullptr, 0);
      if (s->link.fd >= 0) ::close(s->link.fd);
    }
    // Sweep over (or failed): tell every worker, even one still in the
    // listen backlog, and give each a moment to hang up first, so none
    // is reset before it reads that.
    if (listen_fd_ >= 0) {
      ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
      for (int fd; (fd = accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_CLOEXEC)) >= 0;)
        conns_[fd].fd = fd;
      ::close(listen_fd_);
    }
    const auto bye = encode_nowork_frame(true);
    for (auto& [fd, link] : conns_) {
      // Not after a partly sent frame: it would arrive torn.
      if (link.out.empty())
        (void)!net::send_some(fd, bye.data(), bye.size());
      ::shutdown(fd, SHUT_WR);
      row(link, false);
    }
    for (const double end = now_s() + 1.0; !conns_.empty() && now_s() < end;) {
      std::vector<pollfd> pfds;
      for (const auto& [fd, link] : conns_) pfds.push_back({fd, POLLIN, 0});
      net::poll_retry(pfds.data(), pfds.size(), /*timeout_ms=*/50);
      std::uint8_t sink[4096];
      for (const pollfd& p : pfds)
        if (p.revents != 0 && net::recv_some(p.fd, sink, sizeof(sink)) <= 0) {
          ::close(p.fd);
          conns_.erase(p.fd);
        }
    }
    for (const auto& [fd, link] : conns_) ::close(fd);
  }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Returns once every spec is terminal and no local attempt runs.
  void run() {
    if (!pool_) return loop();
    // In-thread attempts: the caller serves as an executor while a helper
    // thread runs the event loop.
    std::exception_ptr failed;
    std::thread events([this, &failed] {
      try {
        loop();
      } catch (...) {
        failed = std::current_exception();
        hang_up();  // unblocks the executors, so serve() returns
      }
      pool_->close();
    });
    pool_->serve();
    events.join();
    if (failed) std::rethrow_exception(failed);
  }

 private:
  void loop() {
    // Each round reads what its clients sent before the queue consults
    // the clock, so a lease never lapses on a heartbeat still unread.
    for (int wait_ms = 0;; wait_ms = 50) {
      poll_once(wait_ms);
      const double now = now_s();
      if (opts_.stop != nullptr && opts_.stop->load() && !q_.stopping())
        for (const std::uint64_t lease : q_.stop()) abort(lease);
      for (const std::uint64_t lease : q_.tick(now)) abort(lease);
      std::vector<Granted> g;
      for (auto& s : slots_) {
        if (s->busy) continue;
        // Idle local slots take the next ready specs.
        const std::uint64_t lease =
            q_.grant(ClientKind::kLocal, 1, local_lease_, now, &g);
        if (lease != 0) start(*s, lease, g[0], now);
      }
      if (obs_.board && listen_fd_ >= 0)
        obs_.board->dispatch_update(q_.counters());
      if (q_.done() && busy_ == 0) return;
    }
  }

  /// Ends every local attempt: SIGKILL for a process, the abort flag for
  /// a thread, and a shut-down link for either.
  void hang_up() {
    for (auto& s : slots_) {
      if (s->pid > 0) ::kill(s->pid, SIGKILL);
      s->abort.store(true);
      // An executor blocked on its link fails instead.
      if (s->link.fd >= 0) ::shutdown(s->link.fd, SHUT_RDWR);
    }
  }

  void announce(const std::string& line) const {
    // Flushed eagerly: harnesses discover an ephemeral port by polling.
    if (opts_.obs.announce) *opts_.obs.announce << line << std::endl;
  }

  /// The one request builder.
  WorkerRequest request(const Granted& g) const {
    WorkerRequest req;
    req.config = specs_[g.spec].config;
    req.kind = specs_[g.spec].kind;
    req.attempt = g.attempt;
    if (!opts_.checkpoint_dir.empty())
      req.checkpoint_every_s = opts_.checkpoint_every_s;
    req.verify_on_resume = opts_.verify_on_resume;
    return req;
  }

  /// A grant as frames: each resume image, then the grant itself.
  std::vector<std::uint8_t> grant_frames(std::uint64_t lease, double secs,
                                         const std::vector<Granted>& g) const {
    std::vector<std::uint8_t> out;
    std::vector<GrantItem> items;
    for (const Granted& x : g) {
      if (x.image) {
        const auto frames = encode_checkpoint_frames(lease, x.spec, *x.image);
        out.insert(out.end(), frames.begin(), frames.end());
      }
      items.push_back({x.spec, x.attempt, encode_worker_request(request(x))});
    }
    const auto grant = encode_grant_frame(lease, secs, items);
    out.insert(out.end(), grant.begin(), grant.end());
    return out;
  }

  /// Queues `bytes` on link `l` and sends what the socket takes now.
  static void send(Link& l, const std::vector<std::uint8_t>& bytes) {
    l.out.insert(l.out.end(), bytes.begin(), bytes.end());
    flush(l);
  }

  /// Sends what link `l` can take of its queued bytes without blocking.
  /// Throws net::NetError when the peer is gone.
  static void flush(Link& l) {
    while (l.sent < l.out.size()) {
      const ssize_t n = net::send_some(l.fd, l.out.data() + l.sent,
                                       l.out.size() - l.sent);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0)
        throw net::NetError(std::string("send: ") + std::strerror(errno));
      l.sent += static_cast<std::size_t>(n);
    }
    l.out = {};  // a resume image's bytes are not kept for the next grant
    l.sent = 0;
  }

  /// Starts slot `s`'s attempt of granted spec `g`: the worker loop on an
  /// executor thread, or in a spawned worker process. The grant goes
  /// first, then the word that the sweep is over for this worker: its
  /// next request reads it.
  void start(Slot& s, std::uint64_t lease, const Granted& g, double now) {
    s.busy = true;
    ++busy_;
    s.lease = lease;
    s.spec = g.spec;
    s.link = Link();
    s.killed = false;
    s.frame = ResultFrameState::kMissing;
    s.result = WorkerResult();
    s.broken.clear();
    s.abort.store(false);
    try {
      if (isolated_) {
        s.pid = spawn_worker(opts_.worker_exe, &s.link.fd);
      } else {
        const int peer = link_pair(&s.link.fd);
        pool_->submit([this, &s, peer] {
          AttemptSinks local;
          local.abort = &s.abort;
          local.stop = opts_.stop;
          local.stop_after_checkpoints = opts_.stop_after_checkpoints;
          run_worker_link(peer, local);
        });
      }
    } catch (const std::exception& e) {
      WorkerResult res;
      res.error = e.what();
      return finish(s, std::move(res), now);
    }
    if (s.pid > 0) {
      if (obs_.board) obs_.board->mark_worker_spawn(s.spec);
      obs_.instant(s.spec, "worker_spawn",
                   {{"pid", std::to_string(s.pid)},
                    {"attempt", std::to_string(g.attempt)}});
    }
    // Heartbeats every quarter watchdog window, so a live worker never
    // looks stalled; without a watchdog they only feed the status plane.
    auto frames = grant_frames(
        lease, opts_.watchdog_secs > 0.0 ? opts_.watchdog_secs : 1.0, {g});
    const auto bye = encode_nowork_frame(true);
    frames.insert(frames.end(), bye.begin(), bye.end());
    try {
      send(s.link, frames);
    } catch (const net::NetError&) {
      // The worker is already gone; its link's end says how.
    }
  }

  void finish(Slot& s, WorkerResult&& res, double now) {
    s.busy = false;
    --busy_;
    q_.finish(s.spec, std::move(res), now);
  }

  /// The watchdog's or the stop's lever on a local attempt.
  void abort(std::uint64_t lease) {
    for (auto& s : slots_) {
      if (!s->busy || s->lease != lease) continue;
      s->abort.store(true);
      kill(*s);
    }
  }

  /// A hung or stopped worker cannot honor an abort flag: SIGKILL is the
  /// only lever the parent has.
  void kill(Slot& s) {
    if (s.pid <= 0) return;
    ::kill(s.pid, SIGKILL);
    if (s.killed) return;
    s.killed = true;
    if (obs_.board) obs_.board->mark_sigkill(s.spec);
    obs_.instant(s.spec, "sigkill", {{"pid", std::to_string(s.pid)}});
  }

  /// Slot `s`'s link ended: the attempt is judged by the result frame it
  /// sent and, for a worker process, by its exit status.
  void reap(Slot& s, double now) {
    ::close(s.link.fd);
    s.link.fd = -1;
    WorkerResult res = std::move(s.result);
    int status = 0;
    pid_t waited = 0;
    if (s.pid > 0) {
      do {
        waited = ::waitpid(s.pid, &status, 0);
      } while (waited < 0 && errno == EINTR);
      s.pid = -1;
    }
    if (waited < 0) {
      res = WorkerResult();
      res.error = std::string("waitpid: ") + std::strerror(errno);
    } else if (!s.broken.empty()) {
      res = WorkerResult();
      res.error = "worker link: " + s.broken;
    } else {
      // An executor thread's loop ends like a worker process that exited
      // 0; its abort flag, unlike a SIGKILL, lets it report first.
      const WorkerExitDecision verdict =
          decode_worker_exit(waited > 0 ? status : 0, s.frame, res.error);
      res.ok = verdict.accept;
      res.error = verdict.detail;
    }
    finish(s, std::move(res), now);
  }

  /// One frame after the hello from link `l`, whose other end is local
  /// slot `s`, or a TCP worker when `s` is null.
  void on_frame(Link& l, Slot* s, WireFrame&& f, const std::string& ctx,
                double now) {
    switch (f.type) {
      case FrameType::kRequest: {
        if (s != nullptr) break;  // a slot's grant is already on its way
        std::vector<Granted> g;
        const std::uint64_t lease = q_.grant(
            ClientKind::kRemote,
            static_cast<std::size_t>(std::max(1, opts_.dispatch.batch_size)),
            opts_.dispatch.lease_secs, now, &g);
        if (lease != 0) l.leases.push_back(lease);
        send(l, lease != 0 ? grant_frames(lease, opts_.dispatch.lease_secs, g)
                           : encode_nowork_frame(q_.done() || q_.stopping()));
        break;
      }
      case FrameType::kResult: {
        if (f.spec >= specs_.size() ||
            (s != nullptr && (f.lease_id != s->lease || f.spec != s->spec)))
          throw snapshot::SnapshotError(ctx + ": result for ungranted spec " +
                                        std::to_string(f.spec));
        WorkerResult res;
        try {
          res = decode_worker_result(f.result);
        } catch (const std::exception& e) {
          throw snapshot::SnapshotError(
              ctx + ": undecodable result image for spec " +
              std::to_string(f.spec) + ": " + e.what());
        }
        if (s == nullptr) {
          q_.finish(f.spec, std::move(res), now);
        } else {
          // A local attempt is judged once its link ends (reap).
          s->frame =
              res.ok ? ResultFrameState::kOk : ResultFrameState::kError;
          s->result = std::move(res);
        }
        break;
      }
      case FrameType::kHeartbeat:
        q_.heartbeat(f.lease_id, f.spec, f.events,
                     bits_double(f.sim_time_bits), now);
        break;
      case FrameType::kCheckpoint: {
        const std::uint64_t lease = f.lease_id;
        const std::uint64_t spec = f.spec;
        // An image from a lease that lost its spec is not buffered.
        const bool keep = q_.holds(lease, spec);
        if (auto image = l.parts.add(std::move(f), ctx, keep))
          q_.checkpoint(lease, spec, std::move(*image));
        break;
      }
      default:
        throw snapshot::SnapshotError(
            ctx + ": unexpected frame type " +
            std::to_string(static_cast<int>(f.type)) + " from a worker");
    }
    if (s == nullptr) row(l, true);
  }

  /// Services link `l` after poll reported `revents` on it: sends what it
  /// can of its queued bytes, reads, and handles every whole frame. A
  /// local attempt is judged when its link ends; a TCP worker's
  /// connection is dropped, its leases lost.
  void on_link(Link& l, Slot* s, short revents, double now) {
    ssize_t got = 1;  // nothing read is not an end of stream
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      std::uint8_t chunk[64 * 1024];
      got = net::recv_some(l.fd, chunk, sizeof(chunk));
      if (got > 0) l.buf.insert(l.buf.end(), chunk, chunk + got);
    }
    const std::string ctx =
        s != nullptr ? "worker link"
                     : "dispatch connection '" +
                           (l.name.empty() ? "fd" + std::to_string(l.fd)
                                           : l.name) + "'";
    try {
      flush(l);
      for (;;) {
        WireFrame f;
        const std::size_t used =
            try_extract_frame(l.buf.data(), l.buf.size(), ctx, &f);
        if (used == 0) break;
        l.buf.erase(l.buf.begin(),
                    l.buf.begin() + static_cast<std::ptrdiff_t>(used));
        if (!l.name.empty()) {
          on_frame(l, s, std::move(f), ctx, now);
          continue;
        }
        check_hello(f, ctx);
        l.name = f.worker_name.empty() ? "fd" + std::to_string(l.fd)
                                       : sanitize(f.worker_name);
      }
    } catch (const net::NetError& e) {
      // Gone mid-write; a worker process's exit status says how.
      return s != nullptr ? reap(*s, now) : drop(l.fd, e.what(), now);
    } catch (const std::exception& e) {
      if (s != nullptr && s->pid < 0) throw;  // an executor's own frames
      // Torn/corrupt/hostile frame: named rejection, link dropped,
      // leases requeued. Never a crash, never a wrong accept.
      if (s != nullptr) {
        s->broken = e.what();
        kill(*s);
        return reap(*s, now);
      }
      announce(std::string("dispatch: dropping connection: ") + e.what());
      return drop(l.fd, e.what(), now);
    }
    if (got <= 0)
      return s != nullptr ? reap(*s, now)
                          : drop(l.fd, "connection closed", now);
  }

  void drop(int fd, const std::string& why, double now) {
    Link& l = conns_.at(fd);
    row(l, false);
    for (const std::uint64_t lease : l.leases) q_.lost(lease, why, now);
    ::close(fd);
    conns_.erase(fd);
  }

  /// The status board's row for a TCP worker. Forgets the leases the
  /// queue no longer counts, so a long-lived connection keeps only live
  /// ones.
  void row(Link& l, bool connected) const {
    l.leases.erase(std::remove_if(l.leases.begin(), l.leases.end(),
                                  [this](std::uint64_t lease) {
                                    return q_.held(lease) == 0;
                                  }),
                   l.leases.end());
    if (obs_.board == nullptr || l.name.empty()) return;
    std::uint64_t active = 0;
    for (const std::uint64_t lease : l.leases) active += q_.held(lease);
    obs_.board->dispatch_worker(l.name, connected, connected ? active : 0);
  }

  void poll_once(int timeout_ms) {
    std::vector<pollfd> pfds;
    const auto want = [&pfds](const Link& l) {
      pfds.push_back({l.fd, static_cast<short>(
                                POLLIN | (l.out.empty() ? 0 : POLLOUT)),
                      0});
    };
    if (listen_fd_ >= 0) pfds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& s : slots_)
      if (s->busy && s->link.fd >= 0) want(s->link);
    for (const auto& [fd, link] : conns_) want(link);
    net::poll_retry(pfds.data(), pfds.size(), timeout_ms);
    const double now = now_s();
    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      if (p.fd == listen_fd_) {
        const int fd = net::accept_retry(listen_fd_);
        if (fd >= 0) conns_[fd].fd = fd;
      } else if (conns_.count(p.fd) != 0) {
        on_link(conns_.at(p.fd), nullptr, p.revents, now);
      } else {
        for (auto& s : slots_)
          if (s->busy && s->link.fd == p.fd)
            on_link(s->link, s.get(), p.revents, now);
      }
    }
  }

  const std::vector<RunSpec>& specs_;
  const SupervisorOptions& opts_;
  SpecQueue& q_;
  const Obs& obs_;
  const bool isolated_;
  double local_lease_ = SpecQueue::kForever;
  int busy_ = 0;  ///< local attempts running
  int listen_fd_ = -1;
  std::map<int, Link> conns_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unique_ptr<Executors> pool_;  // after the slots its tasks touch
};

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
  std::vector<std::uint64_t> digests(specs.size());
  std::vector<double> horizons(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    digests[i] = config_digest(specs[i].config, specs[i].kind);
    horizons[i] = specs[i].config.scenario.duration_s;
  }

  const bool use_dir = !opts.checkpoint_dir.empty();
  if (use_dir) std::filesystem::create_directories(opts.checkpoint_dir);
  if (opts.isolate == IsolationMode::kProcess && opts.worker_exe.empty())
    throw std::runtime_error(
        "supervisor: process isolation needs a worker executable");

  // Per-spec seed records. `carried[i]` starts as a fresh record holding
  // only the config digest; a resume fills in carried-over completions,
  // which skip execution and re-emit through the reorder buffer.
  // Everything else reruns with a fresh retry budget, from its
  // checkpoint if the container holds one.
  std::vector<SpecRecord> carried(specs.size());
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
        if (prev.specs[i].status == SpecStatus::kCompleted)
          carried[i] = std::move(prev.specs[i]);
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

  // --- observability plane (purely observational; see supervisor.hpp).
  // Declaration order matters: the server thread reads the board and is
  // declared last, so it is destroyed (and joined) first.
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
    board->reset(specs.size(), horizons);
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

  // Status sampling thread: recomputes EMA/ETA from the progress the
  // scheduler posts on the board, and atomically rewrites status.json on
  // its cadence. Read-only with respect to the sweep.
  std::atomic<bool> status_quit{false};
  std::thread status_thread;
  if (board) {
    status_thread = std::thread([&] {
      const Clock::time_point t0 = Clock::now();
      double next_write = 0.0;  // first rewrite happens immediately
      const double period = opts.obs.status_every_s;
      const auto poll = std::chrono::duration<double>(
          period > 0.0 ? std::clamp(period / 2.0, 0.01, 0.25) : 0.25);
      for (;;) {
        const bool quitting = status_quit.load();
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

  // Index-order reorder buffer, run on the writer thread: terminal
  // records publish in completion order but emit (manifest put + sink) in
  // strict spec-index order, so manifest bytes are identical at every
  // jobs value and downstream aggregation can fold incrementally. Peak
  // memory is the out-of-order window, not the whole sweep.
  StreamStats stats;
  std::map<std::size_t, SpecRecord> buffered;
  std::size_t next_emit = 0;
  const auto emit = [&](std::size_t i, SpecRecord&& rec) {
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

  // Only this process writes checkpoints.dcc, from the writer thread. It
  // is read on --resume alone, once per spec, when the spec is first
  // granted. A finished sweep leaves no container behind. An image waits
  // for the writer in `unwritten`, where a newer one of its spec replaces
  // it: a disk slower than the images costs superseded puts, not memory.
  const std::string cpath =
      use_dir ? checkpoint_container_path(opts.checkpoint_dir) : "";
  std::mutex unwritten_mu;
  std::map<std::size_t, Image> unwritten;
  ThreadPool writer(1);  // after what its tasks touch
  ImageStore store;
  if (use_dir) {
    store.put = [&](std::size_t i, const Image& image) {
      {
        std::lock_guard<std::mutex> lock(unwritten_mu);
        Image& slot = unwritten[i];
        const bool queued = slot != nullptr;
        slot = image;
        if (queued) return;
      }
      writer.submit([&, i] {
        Image newest;
        {
          std::lock_guard<std::mutex> lock(unwritten_mu);
          const auto it = unwritten.find(i);
          if (it == unwritten.end()) return;  // the spec completed first
          newest = std::move(it->second);
          unwritten.erase(it);
        }
        try {
          snapshot::container_put(cpath, i, *newest);
        } catch (const snapshot::SnapshotError& e) {
          // The in-memory image still serves retries; only a later
          // --resume loses this one.
          std::fprintf(stderr, "spec %zu: checkpoint not saved (%s)\n", i,
                       sanitize(e.what()).c_str());
        }
      });
    };
    store.erase = [&](std::size_t i) {
      {
        std::lock_guard<std::mutex> lock(unwritten_mu);
        unwritten.erase(i);
      }
      writer.submit([&cpath, i] {
        try {
          if (snapshot::container_erase(cpath, i) == 0)
            std::filesystem::remove(cpath);
        } catch (const std::exception&) {
          // The result is already accepted; a failed cleanup of the
          // spent entry must not fail the sweep.
        }
      });
    };
    if (opts.resume)
      store.load = [&](std::size_t i) -> Image {
        try {
          if (auto entry = snapshot::container_get(cpath, i))
            return std::make_shared<const std::vector<std::uint8_t>>(
                std::move(*entry));
        } catch (const std::exception&) {
          // Missing, torn or foreign: the spec starts from scratch (fsck
          // owns the damage).
        }
        return nullptr;
      };
  }

  const auto join_status = [&] {
    status_quit.store(true);
    if (status_thread.joinable()) status_thread.join();
  };
  try {
    RetryPolicy policy;
    policy.max_retries = opts.max_retries;
    policy.retry_backoff_s = opts.retry_backoff_s;
    policy.watchdog_secs = opts.watchdog_secs;
    SpecQueue queue(
        std::move(carried), horizons, policy, obs,
        [&](std::size_t i, SpecRecord&& rec) {
          writer.submit([&emit, i, rec = std::move(rec)]() mutable {
            emit(i, std::move(rec));
          });
        },
        store);
    Scheduler(specs, opts, queue, obs).run();
    writer.wait_idle();  // rethrows a failed manifest put
  } catch (...) {
    join_status();
    throw;
  }
  join_status();
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
