// Worker protocol: bit-exact request/result round-trips through the
// sealed container images, the table of waitpid-status -> supervisor
// decisions, the attempt executor's checkpoint adoption, and the worker
// end of a link, driven over a socketpair by a scripted parent.
#include "experiment/worker_protocol.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <thread>

#include "common/config_io.hpp"
#include "common/net_util.hpp"
#include "experiment/runner.hpp"
#include "experiment/worker.hpp"
#include "experiment/world.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Linux wait-status encoding (what waitpid writes): a normal exit is
// code << 8, a signal death is the raw signal number.
int exited(int code) { return code << 8; }
int signaled(int sig) { return sig; }

TEST(WorkerProtocol, RequestRoundTripsConfigBitExactly) {
  WorkerRequest req;
  // Doubles that do NOT survive the 6-significant-digit textual config
  // form — the whole reason the exact codec exists.
  req.config.protocol.alpha = 0.1 + 0.2;  // 0.30000000000000004
  req.config.scenario.duration_s = 1234.5678901234567;
  req.config.scenario.seed = 0xdeadbeefcafeull;
  req.config.faults.plan = "segv@300:attempts=1";
  req.kind = ProtocolKind::kDirect;
  req.attempt = 3;
  req.checkpoint_every_s = 250.25;
  req.verify_on_resume = false;

  const WorkerRequest got =
      decode_worker_request(encode_worker_request(req));
  EXPECT_TRUE(same_bits(got.config.protocol.alpha, req.config.protocol.alpha));
  EXPECT_TRUE(same_bits(got.config.scenario.duration_s,
                        req.config.scenario.duration_s));
  EXPECT_EQ(got.config.scenario.seed, req.config.scenario.seed);
  EXPECT_EQ(got.config.faults.plan, req.config.faults.plan);
  EXPECT_EQ(got.kind, req.kind);
  EXPECT_EQ(got.attempt, req.attempt);
  EXPECT_TRUE(same_bits(got.checkpoint_every_s, req.checkpoint_every_s));
  EXPECT_FALSE(got.verify_on_resume);
}

TEST(WorkerProtocol, OkResultRoundTripsWithRegistry) {
  WorkerResult res;
  res.ok = true;
  res.result.delivery_ratio = 0.1 + 0.2;
  res.result.generated = 41;
  res.result.delivered = 12;
  res.result.events_executed = 987654;
  res.registry.counter("mac.rts_sent")->inc(17);
  res.registry.gauge("queue.peak_fill")->set(0.75);
  res.registry.histogram("delay", 0.0, 100.0, 4)->observe(12.5);

  const WorkerResult got = decode_worker_result(encode_worker_result(res));
  EXPECT_TRUE(got.ok);
  EXPECT_TRUE(got.error.empty());
  EXPECT_TRUE(same_bits(got.result.delivery_ratio, res.result.delivery_ratio));
  EXPECT_EQ(got.result.generated, 41u);
  EXPECT_EQ(got.result.delivered, 12u);
  EXPECT_EQ(got.result.events_executed, 987654u);
  EXPECT_EQ(got.registry.serialize(), res.registry.serialize());
}

TEST(WorkerProtocol, ErrorResultRoundTrips) {
  WorkerResult res;
  res.ok = false;
  res.error = "simulated crash at t=300";
  res.resume_rejected = "snapshot: state mismatch in section 'sim'";

  const WorkerResult got = decode_worker_result(encode_worker_result(res));
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.error, "simulated crash at t=300");
  EXPECT_EQ(got.resume_rejected, res.resume_rejected);
  EXPECT_TRUE(got.registry.empty());
}

TEST(WorkerProtocol, CorruptImagesAreRejected) {
  WorkerResult res;
  res.ok = true;
  std::vector<std::uint8_t> image = encode_worker_result(res);

  // Every single-byte flip must fail the digest (or, for trailing-digest
  // bytes, the magic/digest pair) — spot-check a spread of positions.
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{3}, image.size() / 2, image.size() - 1}) {
    std::vector<std::uint8_t> bad = image;
    bad[at] ^= 0x40;
    EXPECT_THROW(decode_worker_result(bad), snapshot::SnapshotError) << at;
  }
  // Truncation.
  std::vector<std::uint8_t> shorter(image.begin(), image.end() - 9);
  EXPECT_THROW(decode_worker_result(shorter), snapshot::SnapshotError);
  // A request is not a result (foreign magic).
  EXPECT_THROW(decode_worker_request(image), snapshot::SnapshotError);
}

TEST(WorkerProtocol, DecodeWorkerExitTable) {
  struct Case {
    const char* name;
    int status;
    ResultFrameState frame;
    const char* reported;
    bool accept;
    const char* detail_contains;  ///< nullptr: detail must be empty
  };
  const Case cases[] = {
      {"clean exit + ok result", exited(0), ResultFrameState::kOk, "", true,
       nullptr},
      {"clean exit, no result frame", exited(0), ResultFrameState::kMissing,
       "", false, "no result frame"},
      {"clean exit, error result", exited(0), ResultFrameState::kError,
       "invariant I3 violated", false, "invariant I3 violated"},
      {"bad-request exit, nothing sent", exited(kWorkerExitBadRequest),
       ResultFrameState::kMissing, "", false, "worker exit code 2"},
      {"segfault", signaled(SIGSEGV), ResultFrameState::kMissing, "", false,
       "worker killed by SIGSEGV"},
      {"abort", signaled(SIGABRT), ResultFrameState::kMissing, "", false,
       "worker killed by SIGABRT"},
      {"watchdog/oom kill", signaled(SIGKILL), ResultFrameState::kMissing, "",
       false, "worker killed by SIGKILL"},
      {"unnamed signal", signaled(35), ResultFrameState::kMissing, "", false,
       "worker killed by signal 35"},
      // A signal death outranks whatever result frame arrived before it.
      {"signal death after an ok frame", signaled(SIGKILL),
       ResultFrameState::kOk, "", false, "worker killed by SIGKILL"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const WorkerExitDecision d =
        decode_worker_exit(c.status, c.frame, c.reported);
    EXPECT_EQ(d.accept, c.accept);
    if (c.detail_contains == nullptr) {
      EXPECT_TRUE(d.detail.empty()) << d.detail;
    } else {
      EXPECT_NE(d.detail.find(c.detail_contains), std::string::npos)
          << d.detail;
    }
  }
}

TEST(WorkerProtocol, SignalNames) {
  EXPECT_EQ(worker_signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(worker_signal_name(SIGBUS), "SIGBUS");
  EXPECT_EQ(worker_signal_name(SIGABRT), "SIGABRT");
  EXPECT_EQ(worker_signal_name(SIGKILL), "SIGKILL");
  EXPECT_EQ(worker_signal_name(SIGTERM), "SIGTERM");
  EXPECT_EQ(worker_signal_name(42), "signal 42");
}

// --- the attempt executor ----------------------------------------------

WorkerRequest tiny_request() {
  WorkerRequest req;
  req.config.scenario.num_sensors = 6;
  req.config.scenario.num_sinks = 1;
  req.config.scenario.field_m = 100.0;
  req.config.scenario.duration_s = 300.0;
  req.config.scenario.warmup_s = 20.0;
  req.config.scenario.seed = 5;
  return req;
}

/// A checkpoint of `req`'s own run at t=100, optionally with one byte of
/// its recorded state flipped and the image re-digested: it still
/// decodes and matches the run, but no replay can reproduce it.
std::vector<std::uint8_t> checkpoint_at_100(const WorkerRequest& req,
                                            bool diverged) {
  World world(req.config, req.kind);
  world.run_until(100.0);
  std::vector<std::uint8_t> image = make_checkpoint(world);
  if (!diverged) return image;
  const std::size_t body = image.size() - 8;  // trailing u64 digest
  image[body - 1] ^= 0x01;                    // last byte of the state
  snapshot::StateHash h;
  h.update(image.data(), body);
  for (std::size_t i = 0; i < 8; ++i)
    image[body + i] = static_cast<std::uint8_t>(h.value() >> (8 * i));
  return image;
}

TEST(AttemptExecutor, MatchingCheckpointResumes) {
  const WorkerRequest req = tiny_request();
  const WorkerResult res =
      execute_attempt(req, checkpoint_at_100(req, false), AttemptSinks());
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.resume_rejected.empty()) << res.resume_rejected;
  EXPECT_EQ(res.result.events_executed,
            run_once(req.config, req.kind).events_executed);
}

TEST(AttemptExecutor, DivergingReplayIsReportedAndTheRunStartsFresh) {
  const WorkerRequest req = tiny_request();
  const WorkerResult res =
      execute_attempt(req, checkpoint_at_100(req, true), AttemptSinks());
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NE(res.resume_rejected.find("state mismatch"), std::string::npos)
      << res.resume_rejected;
  const RunResult straight = run_once(req.config, req.kind);
  EXPECT_EQ(res.result.events_executed, straight.events_executed);
  EXPECT_EQ(res.result.delivered, straight.delivered);
}

// --- the worker end of a link ------------------------------------------

/// A socketpair with run_worker_link on one end (on its own thread) and
/// a scripted parent on the other (on the test thread).
struct LinkRun {
  int exit_code = -1;

  void run(const std::function<void(int)>& parent) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
    std::thread worker([&] { exit_code = run_worker_link(sv[1]); });
    parent(sv[0]);
    ::close(sv[0]);
    worker.join();
  }
};

void send_bytes(int fd, const std::vector<std::uint8_t>& bytes) {
  net::write_full(fd, bytes.data(), bytes.size());
}

/// The parent's opening moves: the worker's hello and first request.
void accept_link(int fd, std::vector<std::uint8_t>& buf) {
  WireFrame f;
  ASSERT_TRUE(read_frame(fd, buf, "parent", &f));
  check_hello(f, "parent");
  ASSERT_TRUE(read_frame(fd, buf, "parent", &f));
  ASSERT_EQ(f.type, FrameType::kRequest);
}

/// Reads frames up to the result: checkpoint images (reassembled) and the
/// largest heartbeat event count on the way.
WorkerResult read_to_result(int fd, std::vector<std::uint8_t>& buf,
                            std::vector<std::vector<std::uint8_t>>* images,
                            std::uint64_t* events) {
  ImageParts parts;
  for (;;) {
    WireFrame f;
    EXPECT_TRUE(read_frame(fd, buf, "parent", &f));
    if (f.type == FrameType::kResult) return decode_worker_result(f.result);
    if (f.type == FrameType::kHeartbeat) *events = std::max(*events, f.events);
    if (f.type != FrameType::kCheckpoint) continue;
    EXPECT_EQ(f.lease_id, 9u);
    EXPECT_EQ(f.spec, 7u);
    if (auto image = parts.add(std::move(f), "parent"))
      images->push_back(std::move(*image));
  }
}

GrantItem tiny_grant(double checkpoint_every_s) {
  WorkerRequest req = tiny_request();
  req.checkpoint_every_s = checkpoint_every_s;
  return {7, 0, encode_worker_request(req)};
}

TEST(WorkerLink, CleanResultIsAcceptedAndTheWorkerToldItIsDone) {
  // A worker writes no file: each periodic image comes back as
  // checkpoint frames, then the result; nowork(done) ends the link.
  LinkRun link;
  link.run([&](int fd) {
    std::vector<std::uint8_t> buf;
    accept_link(fd, buf);
    send_bytes(fd, encode_grant_frame(9, 0.04, {tiny_grant(100.0)}));
    std::vector<std::vector<std::uint8_t>> images;
    std::uint64_t events = 0;
    const WorkerResult res = read_to_result(fd, buf, &images, &events);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.result.events_executed,
              run_once(tiny_request().config, ProtocolKind::kOpt)
                  .events_executed);
    ASSERT_EQ(images.size(), 2u);  // t=100 and t=200; none at the horizon
    EXPECT_EQ(read_checkpoint_meta(images[0]).time, 100.0);
    EXPECT_EQ(read_checkpoint_meta(images[1]).time, 200.0);
    WireFrame f;
    ASSERT_TRUE(read_frame(fd, buf, "parent", &f));
    EXPECT_EQ(f.type, FrameType::kRequest);
    send_bytes(fd, encode_nowork_frame(true));
  });
  EXPECT_EQ(link.exit_code, kWorkerExitOk);
}

TEST(WorkerLink, ResumeImageBeforeTheGrantSeedsTheAttempt) {
  // The parent resumes a spec by sending its last image, as checkpoint
  // frames under the grant's lease, ahead of the grant.
  LinkRun link;
  link.run([&](int fd) {
    std::vector<std::uint8_t> buf;
    accept_link(fd, buf);
    send_bytes(fd, encode_checkpoint_frames(
                       9, 7, checkpoint_at_100(tiny_request(), false)));
    send_bytes(fd, encode_grant_frame(9, 0.04, {tiny_grant(0.0)}));
    std::vector<std::vector<std::uint8_t>> images;
    std::uint64_t events = 0;
    const WorkerResult res = read_to_result(fd, buf, &images, &events);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.resume_rejected.empty()) << res.resume_rejected;
    EXPECT_TRUE(images.empty());  // no cadence: no images back
    EXPECT_EQ(res.result.events_executed,
              run_once(tiny_request().config, ProtocolKind::kOpt)
                  .events_executed);
    WireFrame f;
    ASSERT_TRUE(read_frame(fd, buf, "parent", &f));
    send_bytes(fd, encode_nowork_frame(true));
  });
  EXPECT_EQ(link.exit_code, kWorkerExitOk);
}

TEST(WorkerLink, GarbageBytesAreACorruptVerdict) {
  LinkRun link;
  link.run([&](int fd) {
    std::vector<std::uint8_t> buf;
    accept_link(fd, buf);
    send_bytes(fd, std::vector<std::uint8_t>(64, 0xa5));
    // The worker refuses the stream and closes its end.
    WireFrame f;
    while (read_frame(fd, buf, "parent", &f)) {
    }
  });
  EXPECT_EQ(link.exit_code, kWorkerExitBadRequest);
  EXPECT_FALSE(decode_worker_exit(exited(link.exit_code),
                                  ResultFrameState::kMissing, "")
                   .accept);
}

TEST(WorkerLink, HangUpBeforeTheResultIsAMissingVerdict) {
  // The parent vanishes mid-attempt: the worker cannot deliver its
  // result and says so through its exit code.
  LinkRun link;
  link.run([&](int fd) {
    std::vector<std::uint8_t> buf;
    accept_link(fd, buf);
    send_bytes(fd, encode_grant_frame(9, 0.04, {tiny_grant(0.0)}));
  });
  EXPECT_EQ(link.exit_code, kWorkerExitBadRequest);
  const WorkerExitDecision verdict = decode_worker_exit(
      exited(link.exit_code), ResultFrameState::kMissing, "");
  EXPECT_FALSE(verdict.accept);
  EXPECT_EQ(verdict.detail, "worker exit code 2");
}

}  // namespace
}  // namespace dftmsn
