// The one attempt executor, and both ends of a worker link.
//
// execute_attempt runs one replication attempt described by a
// WorkerRequest. Every execution mode calls it — in-thread supervision
// directly, the worker loop for each spec it is granted — so a clean
// attempt produces bit-identical results and checkpoint counts in every
// mode.
//
// A worker link is a connected stream speaking the dispatch frames of
// experiment/dispatch.hpp: hello → request → grant → heartbeats →
// result → request → nowork(done), over TCP for `--connect HOST:PORT`
// and over a socketpair for the `--worker FD` children of
// `--isolate process`.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "experiment/dispatch.hpp"
#include "experiment/worker_protocol.hpp"

namespace dftmsn {

/// Where an attempt publishes progress and what can cut it short. Null
/// members are skipped; worker loops set only the progress counters.
struct AttemptSinks {
  std::atomic<std::uint64_t>* events = nullptr;         ///< executed events
  std::atomic<std::uint64_t>* sim_time_bits = nullptr;  ///< double_bits(now)
  std::atomic<std::uint64_t>* checkpoint_seq = nullptr;  ///< puts this attempt
  /// Raised while the world runs or replays (not while it is built), so
  /// a watchdog never counts world construction as a stall.
  std::atomic<bool>* active = nullptr;
  /// Cooperative abort, polled between events (the watchdog's lever).
  const std::atomic<bool>* abort = nullptr;
  /// External stop: an abort while this reads true ends the attempt
  /// interrupted, after one final checkpoint.
  const std::atomic<bool>* stop = nullptr;
  /// The spec's last good checkpoint image, kept in memory across
  /// attempts by the caller (updated on every put, cleared when dropped).
  /// Null: the container entry is the last good image.
  std::vector<std::uint8_t>* retained = nullptr;
  /// Test hook: end the attempt interrupted after this many periodic
  /// checkpoints (a kill at a checkpoint boundary, without signals).
  /// 0: off.
  int stop_after_checkpoints = 0;
};

/// Runs one attempt of `req`. Never throws: failures come back as
/// ok=false with the error text.
WorkerResult execute_attempt(const WorkerRequest& req,
                             const AttemptSinks& sinks);

/// The descriptor number a spawned `--worker` child finds its link on.
inline constexpr int kWorkerLinkFd = 3;

/// Worker end of a link: says hello, then requests, runs and reports
/// granted specs until the other end says the sweep is done or hangs
/// up. Closes `fd`. Returns a process exit code: kWorkerExitOk, or
/// kWorkerExitBadRequest on a transport or protocol failure.
int run_worker_link(int fd);

/// Parent end of a spawned worker's link: answers its first request
/// with one grant of `item` (lease `lease_secs`, which sets the
/// heartbeat period to a quarter of it), mirrors every heartbeat into
/// the progress counters of `sinks`, answers the next request with
/// nowork(done), and reads until the worker hangs up. *out receives the
/// decoded result. Never throws: a damaged stream is kCorrupt, a
/// hang-up before any result kMissing.
ResultFrameState serve_worker_link(int fd, const GrantItem& item,
                                   double lease_secs,
                                   const AttemptSinks& sinks,
                                   WorkerResult* out);

}  // namespace dftmsn
