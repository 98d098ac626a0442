// Dispatch-plane suite (docs/distributed_sweeps.md): the wire frame
// codec (round-trips, chunked checkpoint images, partial prefixes,
// damage rejection), the scheduler's lease queue on a scripted clock
// (expiry without progress, requeue, duplicate-result idempotency,
// heartbeat-gated extension, stale images, watchdog, stop), and over
// real loopback sockets the hello version check, a worker that stops
// reading its grant, and the headline robustness contract — a
// dispatched sweep's manifest is byte-identical to an in-process run of
// the same specs.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/net_util.hpp"
#include "experiment/dispatch.hpp"
#include "experiment/spec_queue.hpp"
#include "experiment/supervisor.hpp"
#include "experiment/worker_protocol.hpp"
#include "snapshot/ckpt_container.hpp"
#include "snapshot/snapshot_io.hpp"
#include "telemetry/status.hpp"

namespace dftmsn {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

Config small_config(std::uint64_t seed) {
  Config c;
  c.scenario.num_sensors = 6;
  c.scenario.num_sinks = 1;
  c.scenario.field_m = 100.0;
  c.scenario.duration_s = 150.0;
  c.scenario.speed_max_mps = 4.0;
  c.scenario.seed = seed;
  return c;
}

std::vector<RunSpec> make_specs(int n) {
  std::vector<RunSpec> specs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    specs[static_cast<std::size_t>(i)].config =
        small_config(40 + static_cast<std::uint64_t>(i));
    specs[static_cast<std::size_t>(i)].kind = ProtocolKind::kDirect;
  }
  return specs;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Spins until `pred` holds; fails the test (and stops spinning) after
/// `secs` of wall time so a dispatcher bug cannot hang the suite.
template <typename Pred>
void wait_for(const Pred& pred, double secs, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(secs);
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for " << what;
    sleep_ms(5);
  }
}

/// A digest-sealed frame of `type` around `w`'s bytes, built by hand to
/// carry fields the encoders never write.
std::vector<std::uint8_t> raw_frame(std::uint8_t type,
                                    const snapshot::Writer& w) {
  // Magic "DFW3", the type, then length, payload, digest.
  std::vector<std::uint8_t> out = {0x44, 0x46, 0x57, 0x33, type};
  const std::uint32_t len = static_cast<std::uint32_t>(w.bytes().size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  out.insert(out.end(), w.bytes().begin(), w.bytes().end());
  snapshot::StateHash h;
  h.update(out.data(), out.size());
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(h.value() >> (8 * i)));
  return out;
}

WireFrame extract(const std::vector<std::uint8_t>& bytes) {
  WireFrame f;
  EXPECT_EQ(try_extract_frame(bytes.data(), bytes.size(), "t", &f),
            bytes.size());
  return f;
}

// --- frame codec -------------------------------------------------------

TEST(DispatchFrames, RoundTripEveryType) {
  WireFrame f;

  const auto hello = encode_hello_frame("worker-a");
  ASSERT_EQ(try_extract_frame(hello.data(), hello.size(), "t", &f),
            hello.size());
  EXPECT_EQ(f.type, FrameType::kHello);
  EXPECT_EQ(f.version, kWorkerProtocolVersion);
  EXPECT_EQ(f.worker_name, "worker-a");

  const auto request = encode_request_frame();
  ASSERT_EQ(try_extract_frame(request.data(), request.size(), "t", &f),
            request.size());
  EXPECT_EQ(f.type, FrameType::kRequest);

  GrantItem item;
  item.spec = 5;
  item.attempt = -3;  // the i64 lane must survive negatives intact
  item.request = {1, 2, 3, 4, 5};
  GrantItem item2;
  item2.spec = 7;
  item2.attempt = 2;
  const auto grant = encode_grant_frame(9, 2.5, {item, item2});
  ASSERT_EQ(try_extract_frame(grant.data(), grant.size(), "t", &f),
            grant.size());
  EXPECT_EQ(f.type, FrameType::kGrant);
  EXPECT_EQ(f.lease_id, 9u);
  EXPECT_EQ(f.lease_secs, 2.5);
  ASSERT_EQ(f.items.size(), 2u);
  EXPECT_EQ(f.items[0].spec, 5u);
  EXPECT_EQ(f.items[0].attempt, -3);
  EXPECT_EQ(f.items[0].request, item.request);
  EXPECT_EQ(f.items[1].spec, 7u);
  EXPECT_TRUE(f.items[1].request.empty());

  for (const bool done : {false, true}) {
    const auto nowork = encode_nowork_frame(done);
    ASSERT_EQ(try_extract_frame(nowork.data(), nowork.size(), "t", &f),
              nowork.size());
    EXPECT_EQ(f.type, FrameType::kNoWork);
    EXPECT_EQ(f.done, done);
  }

  const std::vector<std::uint8_t> sealed = {9, 8, 7};
  const auto result = encode_result_frame(11, 5, 2, sealed);
  ASSERT_EQ(try_extract_frame(result.data(), result.size(), "t", &f),
            result.size());
  EXPECT_EQ(f.type, FrameType::kResult);
  EXPECT_EQ(f.lease_id, 11u);
  EXPECT_EQ(f.spec, 5u);
  EXPECT_EQ(f.attempt, 2);
  EXPECT_EQ(f.result, sealed);

  const auto hb = encode_heartbeat_frame(11, 5, 12345, 0x3ff0000000000000u);
  ASSERT_EQ(try_extract_frame(hb.data(), hb.size(), "t", &f), hb.size());
  EXPECT_EQ(f.type, FrameType::kHeartbeat);
  EXPECT_EQ(f.lease_id, 11u);
  EXPECT_EQ(f.spec, 5u);
  EXPECT_EQ(f.events, 12345u);
  EXPECT_EQ(f.sim_time_bits, 0x3ff0000000000000u);

  const std::vector<std::uint8_t> image = {4, 0, 2, 0xff};
  const auto ckpt = encode_checkpoint_frames(11, 5, image);
  ASSERT_EQ(try_extract_frame(ckpt.data(), ckpt.size(), "t", &f), ckpt.size());
  EXPECT_EQ(f.type, FrameType::kCheckpoint);
  EXPECT_EQ(f.lease_id, 11u);
  EXPECT_EQ(f.spec, 5u);
  EXPECT_EQ(f.offset, 0u);
  EXPECT_EQ(f.total, image.size());
  EXPECT_EQ(f.chunk, image);
  ImageParts parts;
  EXPECT_EQ(parts.add(std::move(f), "t"), image);
}

TEST(DispatchFrames, ImageLargerThanThePayloadCapCrossesChunked) {
  // A 100k-node world's checkpoint outgrows one frame's payload cap; it
  // crosses as a run of capped frames and reassembles byte for byte.
  std::vector<std::uint8_t> image(kMaxDispatchPayload + 4099);
  for (std::size_t i = 0; i < image.size(); ++i)
    image[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  const std::vector<std::uint8_t> stream =
      encode_checkpoint_frames(3, 8, image);
  ImageParts parts;
  std::optional<std::vector<std::uint8_t>> got;
  std::size_t off = 0;
  std::size_t frames = 0;
  while (off < stream.size()) {
    WireFrame f;
    const std::size_t used =
        try_extract_frame(stream.data() + off, stream.size() - off, "t", &f);
    ASSERT_GT(used, 0u);
    ASSERT_LE(used, kDispatchFrameHeader + kMaxDispatchPayload +
                        kDispatchFrameTrailer);
    off += used;
    ++frames;
    ASSERT_FALSE(got.has_value()) << "image complete before its last chunk";
    got = parts.add(std::move(f), "t");
  }
  EXPECT_GT(frames, 1u);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got == image);
}

TEST(DispatchFrames, EveryPartialPrefixAsksForMoreBytes) {
  GrantItem item;
  item.spec = 1;
  item.request = {42, 43, 44};
  const auto grant = encode_grant_frame(3, 1.0, {item});
  WireFrame f;
  for (std::size_t len = 0; len < grant.size(); ++len)
    EXPECT_EQ(try_extract_frame(grant.data(), len, "t", &f), 0u)
        << "prefix of " << len << " bytes";
}

TEST(DispatchFrames, ConcatenatedStreamExtractsInOrder) {
  std::vector<std::uint8_t> stream;
  for (const auto& frame :
       {encode_hello_frame("w"), encode_request_frame(),
        encode_heartbeat_frame(1, 2, 3, 4), encode_nowork_frame(true)})
    stream.insert(stream.end(), frame.begin(), frame.end());

  std::vector<FrameType> seen;
  std::size_t off = 0;
  while (off < stream.size()) {
    WireFrame f;
    const std::size_t used =
        try_extract_frame(stream.data() + off, stream.size() - off, "t", &f);
    ASSERT_GT(used, 0u);
    seen.push_back(f.type);
    off += used;
  }
  EXPECT_EQ(seen, (std::vector<FrameType>{FrameType::kHello,
                                          FrameType::kRequest,
                                          FrameType::kHeartbeat,
                                          FrameType::kNoWork}));
}

TEST(DispatchFrames, DamageIsRejectedNamingTheContext) {
  WireFrame f;
  const auto expect_throw = [&](std::vector<std::uint8_t> bytes,
                                const std::string& what) {
    try {
      try_extract_frame(bytes.data(), bytes.size(), "ctx", &f);
      ADD_FAILURE() << what << ": damage accepted";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("ctx"), std::string::npos)
          << what << ": error does not name the context: " << e.what();
    }
  };

  for (const auto& good : {encode_heartbeat_frame(1, 2, 3, 4),
                           encode_checkpoint_frames(1, 2, {9, 8, 7})}) {
    const std::string type = std::to_string(good[4]);
    auto bad_magic = good;
    bad_magic[0] ^= 0xff;
    expect_throw(bad_magic, "bad magic, type " + type);

    auto bad_type = good;
    bad_type[4] = 77;
    expect_throw(bad_type, "unknown type, type " + type);

    auto huge_len = good;
    huge_len[5] = 0xff;  // length field little-endian low byte
    huge_len[6] = 0xff;
    huge_len[7] = 0xff;
    huge_len[8] = 0xff;  // ~4 GiB: over the cap, rejected before allocating
    expect_throw(huge_len, "oversized length, type " + type);

    auto bad_digest = good;
    bad_digest.back() ^= 0x01;
    expect_throw(bad_digest, "digest flip, type " + type);

    auto torn_payload = good;
    torn_payload[kDispatchFrameHeader] ^= 0xa5;
    expect_throw(torn_payload, "payload flip, type " + type);
  }

  // A digest-clean chunk that does not continue the image in flight is
  // refused too: a gap would otherwise splice two images together.
  const std::vector<std::uint8_t> image(kCheckpointChunk + 10, 1);
  const auto frames = encode_checkpoint_frames(1, 2, image);
  WireFrame first;
  WireFrame second;
  const std::size_t used =
      try_extract_frame(frames.data(), frames.size(), "ctx", &first);
  ASSERT_EQ(try_extract_frame(frames.data() + used, frames.size() - used,
                              "ctx", &second),
            frames.size() - used);
  ImageParts parts;
  const auto expect_refused = [&parts](WireFrame&& chunk,
                                       const std::string& what) {
    try {
      parts.add(std::move(chunk), "ctx");
      ADD_FAILURE() << what << ": accepted";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("ctx"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_refused(std::move(second), "a chunk out of sequence");
  EXPECT_FALSE(parts.add(std::move(first), "ctx").has_value());
  // One image in flight per link: another spec's chunk cannot start a
  // second partial image beside it.
  expect_refused(extract(encode_checkpoint_frames(1, 3, {5})),
                 "another spec's chunk mid-image");

  // Sizes are checked before anything is buffered: an empty image, and
  // a declared total over the cap (memory a peer could otherwise claim
  // chunk by chunk).
  expect_refused(extract(encode_checkpoint_frames(1, 2, {})), "empty image");
  snapshot::Writer huge;
  huge.u64(1);
  huge.u64(2);
  huge.u64(0);
  huge.u64(kMaxCheckpointImage + 1);
  huge.str("x");
  expect_refused(extract(raw_frame(7, huge)), "total over the cap");

  // An image its receiver does not keep (a stale lease's) is followed to
  // its end without being buffered, and the next one reassembles.
  const auto stale = encode_checkpoint_frames(4, 2, image);
  std::size_t off = 0;
  while (off < stale.size()) {
    WireFrame f;
    off += try_extract_frame(stale.data() + off, stale.size() - off, "ctx",
                             &f);
    EXPECT_FALSE(parts.add(std::move(f), "ctx", /*keep=*/false).has_value());
  }
  EXPECT_EQ(parts.add(extract(encode_checkpoint_frames(5, 2, {6, 7})), "ctx"),
            (std::vector<std::uint8_t>{6, 7}));
}

// --- the lease queue on a scripted clock ------------------------------

WorkerResult ok_result() {
  WorkerResult ok;
  ok.ok = true;
  ok.result.delivery_ratio = 1.0;
  ok.result.generated = 4;
  ok.result.delivered = 4;
  return ok;
}

WorkerResult failed_result(const std::string& error) {
  WorkerResult bad;
  bad.error = error;
  return bad;
}

/// A SpecQueue over `n` specs wired to a status board, with what it
/// publishes and stores collected for inspection.
struct Rig {
  explicit Rig(std::size_t n, RetryPolicy policy = RetryPolicy())
      : q(std::vector<SpecRecord>(n), std::vector<double>(n, 150.0), policy,
          Obs{&board, nullptr},
          [this](std::size_t i, SpecRecord&& rec) {
            published[i] = std::move(rec);
          },
          ImageStore{[this](std::size_t i, const Image& image) {
                       puts.emplace_back(i, *image);
                     },
                     [this](std::size_t i) { erased.push_back(i); },
                     nullptr}) {
    board.reset(n, std::vector<double>(n, 150.0));
  }

  /// Grants one spec; fails the test when nothing is ready.
  std::uint64_t grant(ClientKind kind, double lease_secs, double now,
                      std::size_t want_spec, int want_attempt) {
    std::vector<Granted> g;
    const std::uint64_t lease = q.grant(kind, 1, lease_secs, now, &g);
    EXPECT_NE(lease, 0u);
    EXPECT_EQ(g.size(), 1u);
    if (g.size() == 1) {
      EXPECT_EQ(g[0].spec, want_spec);
      EXPECT_EQ(g[0].attempt, want_attempt);
      image = g[0].image;
    }
    return lease;
  }

  telemetry::StatusBoard board;
  std::map<std::size_t, SpecRecord> published;
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> puts;
  std::vector<std::size_t> erased;
  Image image;  ///< the last grant's resume image
  SpecQueue q;
};

RetryPolicy no_backoff() {
  RetryPolicy p;
  p.retry_backoff_s = 0.0;
  return p;
}

TEST(DispatchQueue, LeaseExpiryRequeuesAndDuplicateResultIsDiscarded) {
  Rig r(3, no_backoff());
  // Worker 1 takes spec 0 and goes silent: no heartbeat, no result. The
  // lease expires and the spec requeues (to the back of the ready
  // queue) without consuming the sim retry budget.
  r.grant(ClientKind::kRemote, 0.2, 0.0, 0, 0);
  EXPECT_TRUE(r.q.tick(0.1).empty());
  EXPECT_EQ(r.q.counters().requeues, 0u);
  EXPECT_TRUE(r.q.tick(0.3).empty());
  EXPECT_EQ(r.q.counters().requeues, 1u);
  EXPECT_EQ(r.q.counters().leases_expired, 1u);

  // Worker 2 drains spec 1, parks a lease on spec 2, then picks the
  // requeued spec 0 up — at the same attempt — and completes it.
  r.grant(ClientKind::kRemote, 10.0, 0.3, 1, 0);
  r.q.finish(1, ok_result(), 0.4);
  r.grant(ClientKind::kRemote, 10.0, 0.4, 2, 0);
  r.q.tick(0.4);
  r.grant(ClientKind::kRemote, 10.0, 0.4, 0, 0);
  r.q.finish(0, ok_result(), 0.5);
  EXPECT_EQ(r.published.size(), 2u);

  // The resurrected worker 1 now publishes its stale result for the
  // already-terminal spec 0: discarded by spec id, not double-completed.
  r.q.finish(0, ok_result(), 0.6);
  EXPECT_EQ(r.q.counters().duplicates_discarded, 1u);
  EXPECT_EQ(r.published.size(), 2u);

  r.q.finish(2, ok_result(), 0.7);
  EXPECT_TRUE(r.q.done());
  for (const auto& [i, rec] : r.published) {
    EXPECT_EQ(rec.status, SpecStatus::kCompleted) << i;
    EXPECT_EQ(rec.retries, 0) << "a transport loss is not a retry";
  }
  EXPECT_EQ(r.q.counters().results_accepted, 3u);
  EXPECT_EQ(r.q.counters().batches_granted, 4u);
}

TEST(DispatchQueue, HeartbeatsExtendLeaseOnlyWithEventProgress) {
  Rig r(1, no_backoff());
  const std::uint64_t lease = r.grant(ClientKind::kRemote, 0.3, 0.0, 0, 0);

  // Progressing heartbeats (events strictly increasing) hold the lease
  // well past several base durations.
  std::uint64_t events = 1;
  double t = 0.0;
  for (int i = 0; i < 10; ++i) {
    t += 0.1;
    r.q.heartbeat(lease, 0, events++, t * 100.0, t);
    r.q.tick(t);
  }
  EXPECT_EQ(r.q.counters().requeues, 0u)
      << "a progressing worker's lease must not expire";
  EXPECT_EQ(r.board.snapshot().specs.at(0).events, events - 1);

  // A frozen counter (the SIGSTOP signature: frames may flow, progress
  // does not) stops extending it.
  for (int i = 0; i < 4; ++i) {
    t += 0.1;
    r.q.heartbeat(lease, 0, events - 1, t * 100.0, t);
    r.q.tick(t);
  }
  EXPECT_EQ(r.q.counters().requeues, 1u);

  // The requeued spec's new lease ignores the old lease's heartbeats.
  r.q.tick(t);
  const std::uint64_t again = r.grant(ClientKind::kRemote, 0.3, t, 0, 0);
  r.q.heartbeat(lease, 0, events + 100, 0.0, t + 0.2);
  r.q.tick(t + 0.35);
  EXPECT_EQ(r.q.counters().requeues, 2u) << "a stale heartbeat extended";
  r.q.tick(t + 0.35);
  const std::uint64_t last = r.grant(ClientKind::kRemote, 0.3, t + 0.35, 0, 0);
  EXPECT_NE(again, last);
  r.q.finish(0, ok_result(), t + 0.4);
  EXPECT_TRUE(r.q.done());
}

TEST(DispatchQueue, SimFailureRetriesThenQuarantinesLikeLocalModes) {
  // A reported failure is not a transport loss: it takes the retry path
  // and quarantines after max_retries + 1 failures, with the local
  // modes' manifest conventions.
  RetryPolicy policy = no_backoff();
  policy.max_retries = 1;
  Rig r(1, policy);
  for (int round = 0; round < 2; ++round) {
    r.q.tick(round);
    r.grant(ClientKind::kRemote, 10.0, round, 0, round);
    r.q.finish(0, failed_result("simulated failure"), round);
  }
  ASSERT_TRUE(r.q.done());
  const SpecRecord& rec = r.published.at(0);
  EXPECT_EQ(rec.status, SpecStatus::kQuarantined);
  EXPECT_EQ(rec.retries, 2);
  EXPECT_EQ(rec.detail, "attempt 1: simulated failure");
  EXPECT_EQ(r.q.counters().requeues, 0u);
}

TEST(DispatchQueue, CheckpointFromAStaleLeaseIsDiscarded) {
  // Images are kept and stored only while their lease holds the spec; a
  // requeued spec resumes from the last image it accepted.
  Rig r(1, no_backoff());
  const std::uint64_t l1 = r.grant(ClientKind::kRemote, 0.2, 0.0, 0, 0);
  EXPECT_FALSE(r.image);
  EXPECT_TRUE(r.q.checkpoint(l1, 0, {1, 1, 1}));
  r.q.tick(0.3);  // l1 lapses
  EXPECT_FALSE(r.q.checkpoint(l1, 0, {2, 2, 2}));
  ASSERT_EQ(r.puts.size(), 1u);

  r.q.tick(0.3);
  const std::uint64_t l2 = r.grant(ClientKind::kRemote, 0.2, 0.3, 0, 0);
  ASSERT_TRUE(r.image);
  EXPECT_EQ(*r.image, (std::vector<std::uint8_t>{1, 1, 1}));
  EXPECT_TRUE(r.q.checkpoint(l2, 0, {3, 3, 3}));
  EXPECT_FALSE(r.q.checkpoint(l1, 0, {4, 4, 4}));
  r.q.finish(0, ok_result(), 0.4);
  EXPECT_EQ(r.puts.size(), 2u);
  EXPECT_EQ(r.erased, std::vector<std::size_t>{0});
  EXPECT_EQ(r.published.at(0).checkpoints, 2u);
}

TEST(DispatchQueue, WatchdogTripsALocalLeaseOnceAndChargesTheRetryBudget) {
  RetryPolicy policy = no_backoff();
  policy.watchdog_secs = 0.5;
  Rig r(1, policy);
  const std::uint64_t lease = r.grant(ClientKind::kLocal, 0.5, 0.0, 0, 0);
  r.q.heartbeat(lease, 0, 10, 1.0, 0.2);
  EXPECT_TRUE(r.q.tick(0.6).empty());  // progress at 0.2 holds it to 0.7
  EXPECT_EQ(r.q.tick(0.8), std::vector<std::uint64_t>{lease});
  EXPECT_TRUE(r.q.tick(0.9).empty()) << "one trip per attempt";
  r.q.finish(0, failed_result("aborted at t=1"), 1.0);
  ASSERT_FALSE(r.q.done());
  r.q.tick(1.0);
  r.grant(ClientKind::kLocal, 0.5, 1.0, 0, 1);
  r.q.finish(0, ok_result(), 1.1);
  const SpecRecord& rec = r.published.at(0);
  EXPECT_EQ(rec.status, SpecStatus::kCompleted);
  EXPECT_EQ(rec.retries, 1);
  EXPECT_EQ(r.q.counters().requeues, 0u);
  EXPECT_EQ(r.board.snapshot().watchdog_trips, 1u);
}

TEST(DispatchQueue, StopInterruptsWhatNoLocalClientHolds) {
  Rig r(3, no_backoff());
  const std::uint64_t local = r.grant(ClientKind::kLocal, 1.0, 0.0, 0, 0);
  r.grant(ClientKind::kRemote, 1.0, 0.0, 1, 0);
  EXPECT_EQ(r.q.stop(), std::vector<std::uint64_t>{local});
  EXPECT_EQ(r.published.at(1).detail, "interrupted (dispatch stopped)");
  EXPECT_EQ(r.published.at(2).detail, "stopped before start");
  EXPECT_FALSE(r.q.done());
  std::vector<Granted> g;
  EXPECT_EQ(r.q.grant(ClientKind::kRemote, 1, 1.0, 0.0, &g), 0u);
  r.q.finish(0, failed_result("worker killed by SIGKILL"), 0.1);
  r.q.finish(1, ok_result(), 0.1);  // too late: a duplicate
  ASSERT_TRUE(r.q.done());
  for (const auto& [i, rec] : r.published)
    EXPECT_EQ(rec.status, SpecStatus::kInterrupted) << i;
  EXPECT_EQ(r.published.at(0).detail, "interrupted (worker stopped)");
}

// --- end-to-end byte identity ------------------------------------------

TEST(DispatchQueue, DispatchedSweepMatchesInProcessManifestBytes) {
  TempDir ref_dir("dispatch_ref.tmp");
  TempDir run_dir("dispatch_run.tmp");
  const std::vector<RunSpec> specs = make_specs(5);

  SupervisorOptions ref_opts;
  ref_opts.checkpoint_dir = ref_dir.path;
  ref_opts.jobs = 1;
  const SweepManifest ref = run_specs_supervised(specs, ref_opts);
  ASSERT_EQ(ref.completed(), 5);

  SupervisorOptions opts;
  opts.checkpoint_dir = run_dir.path;
  std::atomic<int> port{0};
  opts.dispatch.port = 0;
  opts.dispatch.port_out = &port;
  opts.dispatch.batch_size = 2;

  SweepManifest got;
  std::thread supervisor([&] { got = run_specs_supervised(specs, opts); });
  wait_for([&] { return port.load() > 0; }, 10.0, "dispatch port");
  std::thread w1([&] {
    EXPECT_EQ(run_dispatch_worker("127.0.0.1", port.load()), 0);
  });
  std::thread w2([&] {
    EXPECT_EQ(run_dispatch_worker("127.0.0.1", port.load()), 0);
  });
  supervisor.join();
  w1.join();
  w2.join();

  ASSERT_EQ(got.completed(), 5);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(got.specs[i].retries, ref.specs[i].retries);
    EXPECT_EQ(got.specs[i].result.delivered, ref.specs[i].result.delivered);
  }
  EXPECT_EQ(snapshot::read_file(manifest_path(run_dir.path)),
            snapshot::read_file(manifest_path(ref_dir.path)))
      << "dispatched manifest must be byte-identical to in-process";
}

/// Minimal raw-socket worker stub: speaks just enough of the protocol to
/// act out misbehaviour the real worker never exhibits.
struct Stub {
  int fd = -1;
  std::vector<std::uint8_t> buf;

  explicit Stub(int port) { fd = net::connect_tcp("127.0.0.1", port); }
  ~Stub() {
    if (fd >= 0) ::close(fd);
  }

  void send(const std::vector<std::uint8_t>& bytes) const {
    net::write_full(fd, bytes.data(), bytes.size());
  }

  WireFrame read_frame() {
    std::vector<std::uint8_t> chunk(4096);
    for (;;) {
      WireFrame f;
      const std::size_t used =
          try_extract_frame(buf.data(), buf.size(), "stub", &f);
      if (used > 0) {
        buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(used));
        return f;
      }
      const ssize_t got = net::recv_some(fd, chunk.data(), chunk.size());
      if (got <= 0) throw net::NetError("stub: dispatcher hung up");
      buf.insert(buf.end(), chunk.data(), chunk.data() + got);
    }
  }
};

TEST(DispatchQueue, RefusesAHelloFromAnotherProtocolVersion) {
  // A v4 worker's hello: the frame layout is unchanged, so it decodes,
  // and the version field is what the dispatcher must refuse by name.
  snapshot::Writer w;
  w.u32(4);
  w.str("old-worker");
  const std::vector<std::uint8_t> hello = raw_frame(1, w);
  WireFrame parsed;
  ASSERT_EQ(try_extract_frame(hello.data(), hello.size(), "t", &parsed),
            hello.size());
  ASSERT_EQ(parsed.version, 4u);

  std::atomic<int> port{0};
  std::atomic<bool> stop{false};
  std::ostringstream announced;
  SupervisorOptions opts;
  opts.dispatch.port = 0;
  opts.dispatch.port_out = &port;
  opts.stop = &stop;
  opts.obs.announce = &announced;
  std::thread supervisor([&] { run_specs_supervised(make_specs(1), opts); });
  wait_for([&] { return port.load() > 0; }, 10.0, "listener port");

  Stub s(port.load());
  s.send(hello);
  EXPECT_THROW(s.read_frame(), net::NetError) << "v4 hello was not refused";
  stop.store(true);
  supervisor.join();

  std::string refusal;
  std::istringstream lines(announced.str());
  for (std::string line; std::getline(lines, line);)
    if (line.find("dropping connection") != std::string::npos) refusal = line;
  EXPECT_NE(refusal.find("v4"), std::string::npos) << refusal;
  EXPECT_NE(refusal.find("v" + std::to_string(kWorkerProtocolVersion)),
            std::string::npos)
      << refusal;
}

TEST(DispatchQueue, AWorkerThatStopsReadingItsGrantCannotStallTheSweep) {
  // A --connect worker asks for work and stops (SIGSTOP) before it reads
  // a grant whose resume image outgrows the socket buffers. The sweep
  // must go on: the grant waits on that link, the lease lapses, and the
  // spec is requeued to a live worker, image and all.
  TempDir dir("dispatch_stall.tmp");
  const std::string trace = dir.path + "/trace.json";
  snapshot::container_put(checkpoint_container_path(dir.path), 0,
                          std::vector<std::uint8_t>(24u << 20, 0x5a));
  std::atomic<int> port{0};
  std::atomic<bool> finished{false};
  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.resume = true;  // the spec's first grant carries the stored image
  opts.obs.trace_path = trace;
  opts.dispatch.port = 0;
  opts.dispatch.port_out = &port;
  opts.dispatch.lease_secs = 0.5;
  SweepManifest got;
  std::thread supervisor([&] {
    got = run_specs_supervised(make_specs(1), opts);
    finished.store(true);
  });
  wait_for([&] { return port.load() > 0; }, 10.0, "dispatch port");

  auto stalled = std::make_unique<Stub>(port.load());
  const int small = 4096;
  ASSERT_EQ(::setsockopt(stalled->fd, SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  stalled->send(encode_hello_frame("stalled"));
  stalled->send(encode_request_frame());
  // The first bytes of its grant arrive; then it reads no more.
  std::uint8_t head[kDispatchFrameHeader];
  ASSERT_EQ(::recv(stalled->fd, head, sizeof(head), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(head)));
  EXPECT_EQ(head[4], static_cast<std::uint8_t>(FrameType::kCheckpoint));

  std::thread live([&] {
    EXPECT_EQ(run_dispatch_worker("127.0.0.1", port.load()), 0);
  });
  wait_for([&] { return finished.load(); }, 60.0,
           "the sweep to end while a worker is stalled");
  stalled.reset();  // frees a sweep blocked on the stalled link
  supervisor.join();
  live.join();

  ASSERT_EQ(got.completed(), 1);
  EXPECT_EQ(got.specs[0].retries, 0) << "a lost lease is not a retry";
  const auto bytes = snapshot::read_file(trace);
  const std::string text(bytes.begin(), bytes.end());
  EXPECT_NE(text.find("\"requeue\""), std::string::npos) << text;
}

}  // namespace
}  // namespace dftmsn
