// The wire frames every worker link speaks, and the dispatcher's knobs.
//
// A sweep has one scheduler (experiment/spec_queue.hpp, driven by the
// supervisor): it leases specs to in-thread executors and to the
// spawned `--worker FD` children of `--isolate process`, each reporting
// over a socketpair, and, with `--dispatch-port`, to pull-mode workers
// (`dftmsn_cli --connect HOST:PORT`) over TCP (loopback by default,
// bindable for LAN). Every link carries the same frames:
//
//   offset 0  u32   magic "DFW3" (0x33574644 little-endian; names the
//                   frame layout, unchanged since protocol v3)
//   offset 4  u8    frame type (FrameType)
//   offset 5  u32   payload length (hard-capped; a hostile length field
//                   cannot drive an allocation)
//   offset 9  payload — snapshot::Writer-encoded fields per type
//   tail      u64   FNV-1a digest of everything before it
//
// Spec configs and results cross the wire as sealed container images
// (encode_worker_request / encode_worker_result), validated on arrival.
// Checkpoint images cross as checkpoint frames, in chunks, both ways: a
// worker streams each periodic image to the supervisor, which alone
// writes checkpoints.dcc, and a grant that resumes a spec is preceded by
// the spec's last image. A torn, truncated or tampered frame throws and
// drops the connection — never a crash, never a silently wrong accept.
// The hello frame carries kWorkerProtocolVersion; a worker of another
// version is refused.
//
// Failure semantics (docs/distributed_sweeps.md):
//  - crash / hang / partition: the worker stops heartbeating (or its
//    heartbeats stop showing progress), the lease expires, and the
//    batch is requeued with bounded backoff to resume from its last
//    image. Transport losses do not consume the spec's simulation retry
//    budget.
//  - simulation failure (the worker *reports* an error result): the
//    normal retry/quarantine path, identical to the local modes.
//  - duplicates: completion is idempotent — the first accepted result
//    per spec wins; later results for a terminal spec are discarded by
//    spec id (a resurrected worker cannot double-publish), and images or
//    heartbeats from a lease that no longer holds the spec are ignored.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "experiment/worker_protocol.hpp"

namespace dftmsn {

/// CLI-facing dispatcher knobs (a member of SupervisorOptions).
struct DispatchOptions {
  int port = -1;                  ///< -1: dispatch off; 0: ephemeral port
  std::string bind = "127.0.0.1";
  double lease_secs = 30.0;       ///< heartbeat-extended lease duration
  int batch_size = 1;             ///< specs granted per lease
  /// Test hook: the bound port is published here once listening (the
  /// CLI announces it on stdout instead).
  std::atomic<int>* port_out = nullptr;
  [[nodiscard]] bool enabled() const { return port >= 0; }
};

inline constexpr std::uint32_t kDispatchFrameMagic = 0x33574644;  // "DFW3"
inline constexpr std::size_t kDispatchFrameHeader = 9;
inline constexpr std::size_t kDispatchFrameTrailer = 8;
inline constexpr std::size_t kMaxDispatchPayload = 64u << 20;
/// Checkpoint image bytes per checkpoint frame; larger images span
/// several frames.
inline constexpr std::size_t kCheckpointChunk = 4u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< worker -> dispatcher: version + worker name
  kRequest = 2,    ///< worker -> dispatcher: give me a batch
  kGrant = 3,      ///< dispatcher -> worker: lease + spec batch
  kNoWork = 4,     ///< dispatcher -> worker: nothing now (done=sweep over)
  kResult = 5,     ///< worker -> dispatcher: one spec's sealed result
  kHeartbeat = 6,  ///< worker -> dispatcher: liveness + progress
  kCheckpoint = 7, ///< either way: one chunk of a spec's checkpoint image
};

/// One spec of a lease grant: the sealed worker-request image plus the
/// identifiers the worker echoes back with its result.
struct GrantItem {
  std::uint64_t spec = 0;
  std::int64_t attempt = 0;
  std::vector<std::uint8_t> request;  ///< sealed encode_worker_request image
};

/// A decoded frame; only the fields of `type` are meaningful.
struct WireFrame {
  FrameType type = FrameType::kHello;
  // kHello
  std::uint32_t version = 0;
  std::string worker_name;
  // kGrant / kResult / kHeartbeat / kCheckpoint
  std::uint64_t lease_id = 0;
  double lease_secs = 0.0;
  std::vector<GrantItem> items;
  // kNoWork
  bool done = false;
  // kResult / kHeartbeat / kCheckpoint
  std::uint64_t spec = 0;
  std::int64_t attempt = 0;
  std::vector<std::uint8_t> result;  ///< sealed encode_worker_result image
  std::uint64_t events = 0;
  std::uint64_t sim_time_bits = 0;
  // kCheckpoint: bytes [offset, offset + chunk.size()) of a `total`-byte
  // image
  std::uint64_t offset = 0;
  std::uint64_t total = 0;
  std::vector<std::uint8_t> chunk;
};

std::vector<std::uint8_t> encode_hello_frame(const std::string& worker_name);
std::vector<std::uint8_t> encode_request_frame();
std::vector<std::uint8_t> encode_grant_frame(std::uint64_t lease_id,
                                             double lease_secs,
                                             const std::vector<GrantItem>& items);
std::vector<std::uint8_t> encode_nowork_frame(bool done);
std::vector<std::uint8_t> encode_result_frame(std::uint64_t lease_id,
                                              std::uint64_t spec,
                                              std::int64_t attempt,
                                              const std::vector<std::uint8_t>& sealed_result);
std::vector<std::uint8_t> encode_heartbeat_frame(std::uint64_t lease_id,
                                                 std::uint64_t spec,
                                                 std::uint64_t events,
                                                 std::uint64_t sim_time_bits);
/// `image` as checkpoint frames of at most kCheckpointChunk bytes each,
/// concatenated in order.
std::vector<std::uint8_t> encode_checkpoint_frames(
    std::uint64_t lease_id, std::uint64_t spec,
    const std::vector<std::uint8_t>& image);

/// The largest checkpoint image a link accepts; a 100k-node world's is
/// about 100 MB.
inline constexpr std::uint64_t kMaxCheckpointImage = 1ull << 30;

/// Reassembles the chunked checkpoint image in flight on one link. A
/// sender writes each image's frames back to back, so at most one image
/// is partial at a time, and a link buffers at most kMaxCheckpointImage.
class ImageParts {
 public:
  /// Appends checkpoint frame `f`'s chunk. Returns the whole image once
  /// its last chunk arrived, unless its first chunk came with keep=false
  /// (a lease that no longer holds the spec): such an image is followed
  /// to its end but not buffered. Throws snapshot::SnapshotError naming
  /// `context` for a chunk that does not continue the image in flight,
  /// and for an image that is empty or over kMaxCheckpointImage.
  std::optional<std::vector<std::uint8_t>> add(WireFrame&& f,
                                               const std::string& context,
                                               bool keep = true);

 private:
  std::uint64_t lease_ = 0;
  std::uint64_t spec_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t got_ = 0;  ///< an image is in flight while got_ < total_
  bool keep_ = false;
  std::vector<std::uint8_t> buf_;
};

/// Tries to extract one complete frame from the front of `data`.
/// Returns 0 when more bytes are needed, else the number of bytes
/// consumed with *out filled. Throws snapshot::SnapshotError naming
/// `context` on a damaged frame (bad magic/type/length/digest, torn
/// payload); the caller must drop the connection.
std::size_t try_extract_frame(const std::uint8_t* data, std::size_t len,
                              const std::string& context, WireFrame* out);

/// Throws snapshot::SnapshotError naming `context` and both versions
/// unless `f` is a hello of this build's kWorkerProtocolVersion.
void check_hello(const WireFrame& f, const std::string& context);

/// Blocks until one whole frame arrived on `fd`, buffering surplus bytes
/// in `buf` for the next call. Returns false on a clean EOF; throws
/// net::NetError on a socket error and snapshot::SnapshotError on a
/// damaged frame.
bool read_frame(int fd, std::vector<std::uint8_t>& buf,
                const std::string& context, WireFrame* out);

/// Worker side: connect to a dispatcher and run the worker loop
/// (run_worker_link, experiment/worker.hpp) over the connection. Returns
/// a process exit code: 0 clean, kWorkerExitBadRequest on
/// connect/protocol failure.
int run_dispatch_worker(const std::string& host, int port);

}  // namespace dftmsn
