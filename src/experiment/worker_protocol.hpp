// Sealed images exchanged between a supervising sweep parent and the
// workers that run its replication attempts.
//
// A request image carries the full Config (bit-exact encoding, see
// save_config_exact), the protocol kind, the attempt number and the
// checkpoint cadence; a result image carries either the finished
// RunResult plus its telemetry registry, or a structured error. The
// checkpoint images an attempt resumes from and writes cross the link as
// their own frames (experiment/dispatch.hpp); workers never touch files.
// Both are sealed containers (8-byte magic + payload + trailing FNV-1a
// digest, see seal_container), so a torn or tampered image fails
// validation loudly instead of feeding the parent garbage.
//
// The images travel inside the length-framed, digest-checked wire frames
// of experiment/dispatch.hpp, over TCP to pull-mode workers (`--connect
// HOST:PORT`) and over a socketpair to the locally spawned workers of
// `--isolate process` (`--worker FD`, see experiment/worker.hpp). One
// protocol version covers the images and the frames' hello handshake.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "experiment/runner.hpp"
#include "protocol/mac_common.hpp"
#include "telemetry/registry.hpp"

namespace dftmsn {

/// Version of the sealed images and of the hello frame. v5 dropped the
/// request's checkpoint container path and entry (checkpoint images cross
/// the link as checkpoint frames), the result's checkpoint count and the
/// heartbeat's checkpoint sequence (the supervisor counts the images it
/// receives).
inline constexpr std::uint32_t kWorkerProtocolVersion = 5;

// Worker process exit codes; 0/2 line up with the CLI's own ok/usage
// codes. A simulation failure is reported inside the result frame, not
// through the exit code.
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitBadRequest = 2;

/// Everything a worker needs to run one replication attempt.
struct WorkerRequest {
  Config config;
  ProtocolKind kind = ProtocolKind::kOpt;
  int attempt = 0;  ///< gates attempts=-qualified fault events
  /// Simulated seconds between periodic checkpoint images. <= 0: none.
  double checkpoint_every_s = 0.0;
  bool verify_on_resume = true;
};

/// What an attempt reports back. On ok=false `result` and `registry`
/// are not meaningful.
struct WorkerResult {
  bool ok = false;
  /// Stopped on request (external stop, stop-after-checkpoints test
  /// hook), not failed; `error` says where.
  bool interrupted = false;
  std::string error;
  /// Why this run's checkpoint was dropped for a fresh start: it did not
  /// decode, or its replay diverged. Empty: it resumed, or there was none.
  std::string resume_rejected;
  RunResult result;
  telemetry::Registry registry;  ///< empty when telemetry is disabled
};

std::vector<std::uint8_t> encode_worker_request(const WorkerRequest& req);
WorkerRequest decode_worker_request(const std::vector<std::uint8_t>& image);

std::vector<std::uint8_t> encode_worker_result(const WorkerResult& res);
WorkerResult decode_worker_result(const std::vector<std::uint8_t>& image);

/// What the parent's end of a worker link received before hang-up.
enum class ResultFrameState : std::uint8_t {
  kOk,       ///< decoded cleanly, ok=true
  kError,    ///< decoded cleanly, ok=false (worker reported a failure)
  kMissing,  ///< hang-up before any result frame
};

/// Supervisor verdict for one finished worker.
struct WorkerExitDecision {
  bool accept = false;  ///< take the result; false = retry/quarantine path
  std::string detail;   ///< failure message for the manifest (retry path)
};

/// Maps a waitpid status + result-frame state to the supervisor action.
/// `reported_error` is the error string out of a decoded error result
/// (empty otherwise). Pure function — unit-testable against a table of
/// crafted wait statuses.
WorkerExitDecision decode_worker_exit(int wait_status, ResultFrameState frame,
                                      const std::string& reported_error);

/// "SIGSEGV" for 11, "signal 42" for everything unnamed. Hand-mapped:
/// strsignal() strings vary across libcs and would leak into manifest
/// golden comparisons.
std::string worker_signal_name(int sig);

/// The IEEE-754 bit pattern of a double and back: how doubles cross the
/// progress sinks and heartbeat frames without rounding.
inline std::uint64_t double_bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

inline double bits_double(std::uint64_t u) {
  double v = 0.0;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

/// `s` with CR/LF flattened to spaces, safe inside one line of a failure
/// detail, a log or a trace argument.
inline std::string sanitize(std::string s) {
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

}  // namespace dftmsn
