#include "experiment/worker_protocol.hpp"

#include <sys/wait.h>

#include <csignal>

#include "common/config_io.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn {
namespace {

constexpr char kRequestMagic[] = "DFTMSNWQ";
constexpr char kResultMagic[] = "DFTMSNWR";

void check_version(snapshot::Reader& rd, const char* what) {
  const std::uint32_t v = rd.u32();
  if (v != kWorkerProtocolVersion)
    throw snapshot::SnapshotError(std::string(what) + ": protocol version " +
                                  std::to_string(v) + " (this build speaks " +
                                  std::to_string(kWorkerProtocolVersion) + ")");
}

}  // namespace

std::vector<std::uint8_t> encode_worker_request(const WorkerRequest& req) {
  snapshot::Writer w;
  w.u32(kWorkerProtocolVersion);
  w.begin_section("request");
  save_config_exact(req.config, w);
  w.u32(static_cast<std::uint32_t>(req.kind));
  w.i64(req.attempt);
  w.f64(req.checkpoint_every_s);
  w.boolean(req.verify_on_resume);
  w.end_section();
  return snapshot::seal_container(kRequestMagic, w.bytes());
}

WorkerRequest decode_worker_request(const std::vector<std::uint8_t>& image) {
  snapshot::Reader rd(snapshot::unseal_container(kRequestMagic, image));
  check_version(rd, "worker request");
  WorkerRequest req;
  rd.begin_section("request");
  load_config_exact(req.config, rd);
  req.kind = static_cast<ProtocolKind>(rd.u32());
  req.attempt = static_cast<int>(rd.i64());
  req.checkpoint_every_s = rd.f64();
  req.verify_on_resume = rd.boolean();
  rd.end_section();
  return req;
}

std::vector<std::uint8_t> encode_worker_result(const WorkerResult& res) {
  snapshot::Writer w;
  w.u32(kWorkerProtocolVersion);
  w.begin_section("result");
  w.u8(res.ok ? 0 : 1);
  w.boolean(res.interrupted);
  w.str(res.error);
  w.str(res.resume_rejected);
  save_run_result(res.result, w);
  res.registry.save_state(w);
  w.end_section();
  return snapshot::seal_container(kResultMagic, w.bytes());
}

WorkerResult decode_worker_result(const std::vector<std::uint8_t>& image) {
  snapshot::Reader rd(snapshot::unseal_container(kResultMagic, image));
  check_version(rd, "worker result");
  WorkerResult res;
  rd.begin_section("result");
  res.ok = rd.u8() == 0;
  res.interrupted = rd.boolean();
  res.error = rd.str();
  res.resume_rejected = rd.str();
  load_run_result(res.result, rd);
  res.registry.load_state(rd);
  rd.end_section();
  return res;
}

std::string worker_signal_name(int sig) {
  // Hand-mapped so manifest strings are identical across libcs.
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGTERM: return "SIGTERM";
    default: return "signal " + std::to_string(sig);
  }
}

WorkerExitDecision decode_worker_exit(int wait_status, ResultFrameState frame,
                                      const std::string& reported_error) {
  if (WIFSIGNALED(wait_status))
    return {false,
            "worker killed by " + worker_signal_name(WTERMSIG(wait_status))};
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    if (code == 0) {
      switch (frame) {
        case ResultFrameState::kOk:
          return {true, ""};
        case ResultFrameState::kMissing:
          return {false, "worker exited 0 but sent no result frame"};
        case ResultFrameState::kError:
          return {false, reported_error.empty()
                             ? "worker exited 0 with an error result"
                             : reported_error};
      }
    }
    // Nonzero exit: prefer the structured error the worker managed to
    // send; a bare exit code is the fallback diagnosis.
    return {false, reported_error.empty()
                       ? "worker exit code " + std::to_string(code)
                       : reported_error};
  }
  return {false, "worker wait status " + std::to_string(wait_status)};
}

}  // namespace dftmsn
