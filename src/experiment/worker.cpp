#include "experiment/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/net_util.hpp"
#include "experiment/world.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"

namespace dftmsn {
namespace {

void store(std::atomic<std::uint64_t>* sink, std::uint64_t v) {
  if (sink != nullptr) sink->store(v, std::memory_order_relaxed);
}

void set_active(const AttemptSinks& sinks, bool on) {
  if (sinks.active != nullptr) sinks.active->store(on);
}

/// The one checkpoint-adoption rule. The last good image (the caller's
/// retained copy, else the container entry) seeds the attempt only if it
/// belongs to this (config, protocol, seed) and its replay verifies.
/// Otherwise it is dropped — the retained copy cleared, the container
/// entry erased — and the attempt starts fresh. Returns nullptr for a
/// fresh start; *rejected gets the error of an image that belonged to
/// the run but failed to decode or to replay identically.
std::unique_ptr<World> adopt_checkpoint(const WorkerRequest& req,
                                        const Config& cfg,
                                        const AttemptSinks& sinks,
                                        std::string* rejected) {
  if (req.checkpoint_path.empty()) return nullptr;
  std::vector<std::uint8_t> image;
  if (sinks.retained != nullptr) {
    image = *sinks.retained;
  } else {
    try {
      auto entry =
          snapshot::container_get(req.checkpoint_path, req.checkpoint_spec);
      if (entry) image = std::move(*entry);
    } catch (const std::exception&) {
      // Unreadable container: the attempt starts fresh.
    }
  }
  if (image.empty()) return nullptr;
  try {
    const CheckpointMeta meta = read_checkpoint_meta(image);
    if (meta.config_digest == config_digest(req.config, req.kind) &&
        meta.seed == cfg.scenario.seed) {
      set_active(sinks, true);  // replay is watchdog-monitored too
      return resume_world(cfg, req.kind, image, req.verify_on_resume,
                          sinks.abort, sinks.events);
    }
  } catch (const snapshot::SnapshotMismatch& e) {
    *rejected = e.what();  // the replay is nondeterministic
  } catch (const snapshot::SnapshotError& e) {
    *rejected = e.what();
  }
  set_active(sinks, false);
  if (sinks.retained != nullptr) {
    sinks.retained->clear();
  } else {
    try {
      snapshot::container_erase(req.checkpoint_path, req.checkpoint_spec);
    } catch (const std::exception&) {
      // Best effort; the next container_put supersedes it anyway.
    }
  }
  return nullptr;
}

/// Runs one granted spec while a heartbeat thread streams its live
/// progress back every quarter lease. A frozen event counter (SIGSTOP, a
/// wedged sim) keeps frames flowing but stops extending the lease.
WorkerResult run_granted(
    const GrantItem& item, std::uint64_t lease_id, double lease_secs,
    const std::function<void(const std::vector<std::uint8_t>&)>& send) {
  WorkerRequest req;
  try {
    req = decode_worker_request(item.request);
    req.config.validate();
  } catch (const std::exception& e) {
    WorkerResult res;
    res.error = std::string("bad request image: ") + e.what();
    return res;
  }

  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> time_bits{0};
  std::atomic<std::uint64_t> seq{0};
  std::atomic<bool> hb_stop{false};
  const double period = std::clamp(lease_secs / 4.0, 0.01, 5.0);
  std::thread heartbeat([&] {
    for (;;) {
      // Sleep in short slices so shutdown is prompt.
      for (double waited = 0.0; waited < period && !hb_stop.load();
           waited += 0.01)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (hb_stop.load()) return;
      try {
        send(encode_heartbeat_frame(lease_id, item.spec, events.load(),
                                    time_bits.load(), seq.load()));
      } catch (const std::exception&) {
        return;  // link gone; the main loop will notice on its own
      }
    }
  });

  AttemptSinks sinks;
  sinks.events = &events;
  sinks.sim_time_bits = &time_bits;
  sinks.checkpoint_seq = &seq;
  WorkerResult res = execute_attempt(req, sinks);
  hb_stop.store(true);
  heartbeat.join();
  return res;
}

}  // namespace

WorkerResult execute_attempt(const WorkerRequest& req,
                             const AttemptSinks& sinks) {
  WorkerResult res;
  std::unique_ptr<World> world;
  try {
    Config cfg = req.config;
    // The only knob a retry turns: gates `attempts=`-qualified fault
    // events (see FaultInjector) without touching event or rng streams.
    cfg.faults.attempt = req.attempt;
    world = adopt_checkpoint(req, cfg, sinks, &res.resume_rejected);
    if (!world) {
      world = std::make_unique<World>(cfg, req.kind);
      world->sim().set_abort_flag(sinks.abort);
      world->sim().set_progress_counter(sinks.events);
      set_active(sinks, true);
    }

    // Checkpoints land on multiples k*step of the period, so a resumed
    // attempt hits the same boundaries an uninterrupted one would.
    // Without them the run still advances in sixteenths of the horizon
    // so the sim-time sink moves; slicing never changes the trajectory.
    // k counts up: re-derived from fl(k*step)/step, which can round to
    // just below k, a boundary could stop passing now().
    const double horizon = cfg.scenario.duration_s;
    const bool periodic =
        !req.checkpoint_path.empty() && req.checkpoint_every_s > 0.0;
    const double step = periodic ? req.checkpoint_every_s : horizon / 16.0;
    double k = std::floor(world->sim().now() / step) + 1.0;
    if (k * step <= world->sim().now()) k += 1.0;
    for (; world->sim().now() < horizon; k += 1.0) {
      world->run_until(std::min(horizon, k * step));
      store(sinks.sim_time_bits, double_bits(world->sim().now()));
      if (!periodic || world->sim().now() >= horizon) continue;
      std::vector<std::uint8_t> image = make_checkpoint(*world);
      snapshot::container_put(req.checkpoint_path, req.checkpoint_spec, image);
      store(sinks.checkpoint_seq, ++res.checkpoints_written);
      if (sinks.retained != nullptr) *sinks.retained = std::move(image);
      if (sinks.stop_after_checkpoints > 0 &&
          res.checkpoints_written >=
              static_cast<std::uint64_t>(sinks.stop_after_checkpoints)) {
        res.interrupted = true;
        res.error = "test hook: stopped after " +
                    std::to_string(res.checkpoints_written) + " checkpoints";
        break;
      }
    }
    set_active(sinks, false);
    if (!res.interrupted) {
      res.ok = true;
      res.result = reduce_world(*world);
      if (world->registry() != nullptr) res.registry.merge(*world->registry());
    }
  } catch (const RunAborted& e) {
    set_active(sinks, false);
    res.error = e.what();
    if (sinks.stop != nullptr && sinks.stop->load()) {
      // External stop: the abort unwound at a clean event boundary, so
      // flush one final checkpoint and leave the spec resumable.
      if (world && !req.checkpoint_path.empty()) {
        try {
          snapshot::container_put(req.checkpoint_path, req.checkpoint_spec,
                                  make_checkpoint(*world));
          ++res.checkpoints_written;
        } catch (const std::exception&) {
          // Keep whatever checkpoint was already on disk.
        }
      }
      res.interrupted = true;
      res.error = "interrupted at t=" + std::to_string(e.at);
    }
  } catch (const std::exception& e) {
    // SimulatedCrash, InvariantViolation, snapshot errors, bad fault
    // plans, ...
    set_active(sinks, false);
    res.error = e.what();
  }
  return res;
}

int run_worker_link(int fd) {
  // The heartbeat thread and the main loop share the link; frames must
  // not interleave mid-write.
  std::mutex send_mu;
  const auto send = [&](const std::vector<std::uint8_t>& bytes) {
    std::lock_guard<std::mutex> lock(send_mu);
    net::write_full(fd, bytes.data(), bytes.size());
  };

  // Chaos-test hook: sever the link (no goodbye, no flush beyond what
  // the transport already carried) after the Nth result frame.
  long drop_after = -1;
  if (const char* env = std::getenv("DFTMSN_DISPATCH_DROP_AFTER"))
    drop_after = std::atol(env);
  long results_sent = 0;

  std::vector<std::uint8_t> buf;
  try {
    send(encode_hello_frame("worker-" + std::to_string(::getpid())));
    for (;;) {
      send(encode_request_frame());
      WireFrame f;
      // The other end gone: the sweep is over for us.
      if (!read_frame(fd, buf, "dispatch stream", &f)) break;
      if (f.type == FrameType::kNoWork) {
        if (f.done) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (f.type != FrameType::kGrant)
        throw snapshot::SnapshotError(
            "dispatch stream: expected grant or nowork");
      for (const GrantItem& item : f.items) {
        const WorkerResult res =
            run_granted(item, f.lease_id, f.lease_secs, send);
        send(encode_result_frame(f.lease_id, item.spec, item.attempt,
                                 encode_worker_result(res)));
        ++results_sent;
        if (drop_after >= 0 && results_sent >= drop_after) {
          ::shutdown(fd, SHUT_RDWR);
          ::close(fd);
          return kWorkerExitOk;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: dispatch failure: %s\n", e.what());
    ::close(fd);
    return kWorkerExitBadRequest;
  }
  ::close(fd);
  return kWorkerExitOk;
}

int run_dispatch_worker(const std::string& host, int port) {
  try {
    return run_worker_link(net::connect_tcp(host, port));  // never throws
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: cannot connect to %s:%d: %s\n", host.c_str(),
                 port, e.what());
    return kWorkerExitBadRequest;
  }
}

ResultFrameState serve_worker_link(int fd, const GrantItem& item,
                                   double lease_secs,
                                   const AttemptSinks& sinks,
                                   WorkerResult* out) {
  const std::string ctx = "worker link";
  std::vector<std::uint8_t> buf;
  ResultFrameState state = ResultFrameState::kMissing;
  bool granted = false;
  try {
    WireFrame f;
    if (!read_frame(fd, buf, ctx, &f)) return state;
    check_hello(f, ctx);
    while (read_frame(fd, buf, ctx, &f)) {
      switch (f.type) {
        case FrameType::kRequest: {
          // One grant per spawned worker; its next request learns that
          // the sweep is over for it.
          const std::vector<std::uint8_t> reply =
              granted ? encode_nowork_frame(true)
                      : encode_grant_frame(1, lease_secs, {item});
          granted = true;
          net::write_full(fd, reply.data(), reply.size());
          break;
        }
        case FrameType::kHeartbeat:
          store(sinks.events, f.events);
          store(sinks.sim_time_bits, f.sim_time_bits);
          store(sinks.checkpoint_seq, f.checkpoint_seq);
          break;
        case FrameType::kResult:
          if (!granted || f.spec != item.spec || f.attempt != item.attempt)
            throw snapshot::SnapshotError(ctx +
                                          ": result for an ungranted spec");
          *out = decode_worker_result(f.result);
          state = out->ok ? ResultFrameState::kOk : ResultFrameState::kError;
          break;
        default:
          throw snapshot::SnapshotError(
              ctx + ": unexpected frame type " +
              std::to_string(static_cast<int>(f.type)) + " from a worker");
      }
    }
  } catch (const net::NetError&) {
    // The worker hung up mid-exchange: whatever arrived before stands.
  } catch (const std::exception&) {
    return ResultFrameState::kCorrupt;
  }
  return state;
}

}  // namespace dftmsn
