// The one attempt executor, and the worker end of a link.
//
// execute_attempt runs one replication attempt described by a
// WorkerRequest, optionally resuming from a checkpoint image. Every
// execution mode calls it through the worker loop, once per granted
// spec, so a clean attempt produces
// bit-identical results and checkpoint images in every mode. It never
// touches a file: each checkpoint image goes to a sink, and the
// supervisor alone writes checkpoints.dcc.
//
// A worker link is a connected stream speaking the dispatch frames of
// experiment/dispatch.hpp: hello → request → [checkpoint] grant →
// heartbeats, checkpoints → result → request → nowork(done), over TCP
// for `--connect HOST:PORT`, and over a per-attempt socketpair for the
// supervisor's in-thread executors and the `--worker FD` children of
// `--isolate process`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "experiment/dispatch.hpp"
#include "experiment/worker_protocol.hpp"

namespace dftmsn {

/// Where an attempt publishes progress and checkpoint images, and what
/// can cut it short. Null members are skipped.
struct AttemptSinks {
  std::atomic<std::uint64_t>* events = nullptr;         ///< executed events
  std::atomic<std::uint64_t>* sim_time_bits = nullptr;  ///< double_bits(now)
  /// Cooperative abort, polled between events (the watchdog's lever).
  const std::atomic<bool>* abort = nullptr;
  /// External stop: an abort while this reads true ends the attempt
  /// interrupted, after one final checkpoint.
  const std::atomic<bool>* stop = nullptr;
  /// Receives every checkpoint image, periodic or final, in order. Null:
  /// the attempt writes none.
  std::function<void(std::vector<std::uint8_t>&&)> checkpoint;
  /// Test hook: end the attempt interrupted after this many periodic
  /// checkpoints (a kill at a checkpoint boundary, without signals).
  /// 0: off.
  int stop_after_checkpoints = 0;
};

/// Runs one attempt of `req`, resuming from `image` (the spec's last
/// checkpoint; empty: none) when it belongs to this run and its replay
/// verifies, else from scratch with the reason in resume_rejected. Never
/// throws: failures come back as ok=false with the error text.
WorkerResult execute_attempt(const WorkerRequest& req,
                             const std::vector<std::uint8_t>& image,
                             const AttemptSinks& sinks);

/// The descriptor number a spawned `--worker` child finds its link on.
inline constexpr int kWorkerLinkFd = 3;

/// Worker end of a link: says hello, then requests, runs and reports
/// granted specs until the other end says the sweep is done or hangs
/// up. `local` lends an in-thread executor's abort and stop levers and
/// test hook to each attempt; a worker process has none. Closes `fd`.
/// Returns a process exit code: kWorkerExitOk, or kWorkerExitBadRequest
/// on a transport or protocol failure.
int run_worker_link(int fd, const AttemptSinks& local = AttemptSinks());

}  // namespace dftmsn
