#include "experiment/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/net_util.hpp"
#include "experiment/world.hpp"
#include "snapshot/checkpoint.hpp"

namespace dftmsn {
namespace {

void store(std::atomic<std::uint64_t>* sink, std::uint64_t v) {
  if (sink != nullptr) sink->store(v, std::memory_order_relaxed);
}

/// The one checkpoint-adoption rule: `image` seeds the attempt only if it
/// belongs to this (config, protocol, seed) and its replay verifies.
/// Returns nullptr for a fresh start; *rejected gets the error of an
/// image that belonged to the run but failed to decode or to replay
/// identically (the supervisor then drops its copy).
std::unique_ptr<World> adopt_checkpoint(const WorkerRequest& req,
                                        const Config& cfg,
                                        const std::vector<std::uint8_t>& image,
                                        const AttemptSinks& sinks,
                                        std::string* rejected) {
  if (image.empty()) return nullptr;
  try {
    const CheckpointMeta meta = read_checkpoint_meta(image);
    if (meta.config_digest == config_digest(req.config, req.kind) &&
        meta.seed == cfg.scenario.seed)
      return resume_world(cfg, req.kind, image, req.verify_on_resume,
                          sinks.abort, sinks.events);
  } catch (const snapshot::SnapshotMismatch& e) {
    *rejected = e.what();  // the replay is nondeterministic
  } catch (const snapshot::SnapshotError& e) {
    *rejected = e.what();
  }
  return nullptr;
}

/// Runs one granted spec while a heartbeat thread streams its live
/// progress back every quarter lease, and each checkpoint image goes back
/// as checkpoint frames. A frozen event counter (SIGSTOP, a wedged sim)
/// keeps frames flowing but stops extending the lease.
WorkerResult run_granted(
    const GrantItem& item, const std::vector<std::uint8_t>& image,
    std::uint64_t lease_id, double lease_secs,
    const std::function<void(const std::vector<std::uint8_t>&)>& send,
    const AttemptSinks& local) {
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
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;  // guarded by hb_mu; the attempt's end wakes it
  const auto period = std::chrono::duration<double>(
      std::clamp(lease_secs / 4.0, 0.01, 5.0));
  std::thread heartbeat([&] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(hb_mu);
        if (hb_cv.wait_for(lock, period, [&] { return hb_stop; })) return;
      }
      try {
        send(encode_heartbeat_frame(lease_id, item.spec, events.load(),
                                    time_bits.load()));
      } catch (const std::exception&) {
        return;  // link gone; the main loop will notice on its own
      }
    }
  });

  AttemptSinks sinks = local;
  sinks.events = &events;
  sinks.sim_time_bits = &time_bits;
  sinks.checkpoint = [&](std::vector<std::uint8_t>&& ckpt) {
    send(encode_checkpoint_frames(lease_id, item.spec, ckpt));
  };
  WorkerResult res = execute_attempt(req, image, sinks);
  {
    std::lock_guard<std::mutex> lock(hb_mu);
    hb_stop = true;
  }
  hb_cv.notify_one();
  heartbeat.join();
  return res;
}

}  // namespace

WorkerResult execute_attempt(const WorkerRequest& req,
                             const std::vector<std::uint8_t>& image,
                             const AttemptSinks& sinks) {
  WorkerResult res;
  std::unique_ptr<World> world;
  try {
    Config cfg = req.config;
    // The only knob a retry turns: gates `attempts=`-qualified fault
    // events (see FaultInjector) without touching event or rng streams.
    cfg.faults.attempt = req.attempt;
    world = adopt_checkpoint(req, cfg, image, sinks, &res.resume_rejected);
    if (!world) {
      world = std::make_unique<World>(cfg, req.kind);
      world->sim().set_abort_flag(sinks.abort);
      world->sim().set_progress_counter(sinks.events);
    }

    // Checkpoints land on multiples k*step of the period, so a resumed
    // attempt hits the same boundaries an uninterrupted one would.
    // Without them the run still advances in sixteenths of the horizon
    // so the sim-time sink moves; slicing never changes the trajectory.
    // k counts up: re-derived from fl(k*step)/step, which can round to
    // just below k, a boundary could stop passing now().
    const double horizon = cfg.scenario.duration_s;
    const bool periodic = sinks.checkpoint && req.checkpoint_every_s > 0.0;
    const double step = periodic ? req.checkpoint_every_s : horizon / 16.0;
    double k = std::floor(world->sim().now() / step) + 1.0;
    if (k * step <= world->sim().now()) k += 1.0;
    int written = 0;
    for (; world->sim().now() < horizon; k += 1.0) {
      world->run_until(std::min(horizon, k * step));
      store(sinks.sim_time_bits, double_bits(world->sim().now()));
      if (!periodic || world->sim().now() >= horizon) continue;
      sinks.checkpoint(make_checkpoint(*world));
      if (++written == sinks.stop_after_checkpoints) {
        res.interrupted = true;
        res.error = "test hook: stopped after " + std::to_string(written) +
                    " checkpoints";
        break;
      }
    }
    if (!res.interrupted) {
      res.ok = true;
      res.result = reduce_world(*world);
      if (world->registry() != nullptr) res.registry.merge(*world->registry());
    }
  } catch (const RunAborted& e) {
    res.error = e.what();
    if (sinks.stop != nullptr && sinks.stop->load()) {
      // External stop: the abort unwound at a clean event boundary, so
      // hand over one final checkpoint and leave the spec resumable.
      if (world && sinks.checkpoint) {
        try {
          sinks.checkpoint(make_checkpoint(*world));
        } catch (const std::exception&) {
          // The last periodic image stands.
        }
      }
      res.interrupted = true;
      res.error = "interrupted at t=" + std::to_string(e.at);
    }
  } catch (const std::exception& e) {
    // SimulatedCrash, InvariantViolation, snapshot errors, bad fault
    // plans, ...
    res.error = e.what();
  }
  return res;
}

int run_worker_link(int fd, const AttemptSinks& local) {
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

  const std::string ctx = "dispatch stream";
  std::vector<std::uint8_t> buf;
  try {
    send(encode_hello_frame("worker-" + std::to_string(::getpid())));
    // Resume images of the next grant, by spec.
    ImageParts parts;
    std::map<std::uint64_t, std::vector<std::uint8_t>> images;
    for (;;) {
      send(encode_request_frame());
      WireFrame f;
      // The other end gone: the sweep is over for us.
      if (!read_frame(fd, buf, ctx, &f)) break;
      while (f.type == FrameType::kCheckpoint) {
        const std::uint64_t spec = f.spec;
        if (auto image = parts.add(std::move(f), ctx))
          images[spec] = std::move(*image);
        if (!read_frame(fd, buf, ctx, &f))
          throw snapshot::SnapshotError(ctx + ": hang-up after a checkpoint");
      }
      if (f.type == FrameType::kNoWork) {
        if (f.done) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (f.type != FrameType::kGrant)
        throw snapshot::SnapshotError(ctx + ": expected grant or nowork");
      for (const GrantItem& item : f.items) {
        const WorkerResult res = run_granted(
            item, images[item.spec], f.lease_id, f.lease_secs, send, local);
        images.erase(item.spec);
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

}  // namespace dftmsn
