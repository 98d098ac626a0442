#include "experiment/dispatch.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/net_util.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn {
namespace {

using snapshot::SnapshotError;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

std::string blob_str(const std::vector<std::uint8_t>& b) {
  return std::string(b.begin(), b.end());
}

std::vector<std::uint8_t> str_blob(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::vector<std::uint8_t> frame_payload(FrameType type,
                                        const snapshot::Writer& w) {
  const std::vector<std::uint8_t>& payload = w.bytes();
  std::vector<std::uint8_t> out;
  out.reserve(kDispatchFrameHeader + payload.size() + kDispatchFrameTrailer);
  put_u32(out, kDispatchFrameMagic);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  snapshot::StateHash h;
  h.update(out.data(), out.size());
  put_u64(out, h.value());
  return out;
}

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kRequest: return "request";
    case FrameType::kGrant: return "grant";
    case FrameType::kNoWork: return "nowork";
    case FrameType::kResult: return "result";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kCheckpoint: return "checkpoint";
  }
  return "?";
}

}  // namespace

std::vector<std::uint8_t> encode_hello_frame(const std::string& worker_name) {
  snapshot::Writer w;
  w.u32(kWorkerProtocolVersion);
  w.str(worker_name);
  return frame_payload(FrameType::kHello, w);
}

std::vector<std::uint8_t> encode_request_frame() {
  snapshot::Writer w;
  w.u8(0);
  return frame_payload(FrameType::kRequest, w);
}

std::vector<std::uint8_t> encode_grant_frame(
    std::uint64_t lease_id, double lease_secs,
    const std::vector<GrantItem>& items) {
  snapshot::Writer w;
  w.u64(lease_id);
  w.f64(lease_secs);
  w.u64(items.size());
  for (const GrantItem& it : items) {
    w.u64(it.spec);
    w.i64(it.attempt);
    w.str(blob_str(it.request));
  }
  return frame_payload(FrameType::kGrant, w);
}

std::vector<std::uint8_t> encode_nowork_frame(bool done) {
  snapshot::Writer w;
  w.u8(done ? 1 : 0);
  return frame_payload(FrameType::kNoWork, w);
}

std::vector<std::uint8_t> encode_result_frame(
    std::uint64_t lease_id, std::uint64_t spec, std::int64_t attempt,
    const std::vector<std::uint8_t>& sealed_result) {
  snapshot::Writer w;
  w.u64(lease_id);
  w.u64(spec);
  w.i64(attempt);
  w.str(blob_str(sealed_result));
  return frame_payload(FrameType::kResult, w);
}

std::vector<std::uint8_t> encode_heartbeat_frame(std::uint64_t lease_id,
                                                 std::uint64_t spec,
                                                 std::uint64_t events,
                                                 std::uint64_t sim_time_bits) {
  snapshot::Writer w;
  w.u64(lease_id);
  w.u64(spec);
  w.u64(events);
  w.u64(sim_time_bits);
  return frame_payload(FrameType::kHeartbeat, w);
}

std::vector<std::uint8_t> encode_checkpoint_frames(
    std::uint64_t lease_id, std::uint64_t spec,
    const std::vector<std::uint8_t>& image) {
  std::vector<std::uint8_t> out;
  std::size_t off = 0;
  do {
    const std::size_t len = std::min(kCheckpointChunk, image.size() - off);
    snapshot::Writer w;
    w.u64(lease_id);
    w.u64(spec);
    w.u64(off);
    w.u64(image.size());
    w.str(std::string(image.begin() + static_cast<std::ptrdiff_t>(off),
                      image.begin() + static_cast<std::ptrdiff_t>(off + len)));
    const std::vector<std::uint8_t> frame =
        frame_payload(FrameType::kCheckpoint, w);
    out.insert(out.end(), frame.begin(), frame.end());
    off += len;
  } while (off < image.size());
  return out;
}

std::optional<std::vector<std::uint8_t>> ImageParts::add(
    WireFrame&& f, const std::string& context, bool keep) {
  if (got_ == total_) {  // nothing in flight: this chunk starts an image
    if (f.total == 0 || f.total > kMaxCheckpointImage)
      throw SnapshotError(context + ": checkpoint image of " +
                          std::to_string(f.total) + " bytes for spec " +
                          std::to_string(f.spec) + " (accepted: 1 to " +
                          std::to_string(kMaxCheckpointImage) + ")");
    lease_ = f.lease_id;
    spec_ = f.spec;
    total_ = f.total;
    got_ = 0;
    keep_ = keep;
  }
  if (f.lease_id != lease_ || f.spec != spec_ || f.total != total_ ||
      f.offset != got_ || f.chunk.empty() ||
      f.chunk.size() > total_ - got_) {
    total_ = got_ = 0;
    buf_ = {};
    throw SnapshotError(context + ": checkpoint chunk at offset " +
                        std::to_string(f.offset) + " of " +
                        std::to_string(f.total) + " bytes for spec " +
                        std::to_string(f.spec) + " is out of sequence");
  }
  got_ += f.chunk.size();
  if (keep_) buf_.insert(buf_.end(), f.chunk.begin(), f.chunk.end());
  if (got_ < total_ || !keep_) return std::nullopt;
  std::vector<std::uint8_t> image = std::move(buf_);
  buf_ = {};
  return image;
}

std::size_t try_extract_frame(const std::uint8_t* data, std::size_t len,
                              const std::string& context, WireFrame* out) {
  if (len < kDispatchFrameHeader) return 0;
  if (get_u32(data) != kDispatchFrameMagic)
    throw SnapshotError(context + ": bad frame magic");
  const std::uint8_t type = data[4];
  if (type < 1 || type > 7)
    throw SnapshotError(context + ": unknown frame type " +
                        std::to_string(int(type)));
  const std::uint32_t plen = get_u32(data + 5);
  if (plen > kMaxDispatchPayload)
    throw SnapshotError(context + ": frame payload length " +
                        std::to_string(plen) + " exceeds cap");
  const std::size_t total =
      kDispatchFrameHeader + plen + kDispatchFrameTrailer;
  if (len < total) return 0;
  {
    snapshot::StateHash h;
    h.update(data, kDispatchFrameHeader + plen);
    if (h.value() != get_u64(data + kDispatchFrameHeader + plen))
      throw SnapshotError(context + ": frame digest mismatch (torn or "
                          "corrupt frame)");
  }

  WireFrame f;
  f.type = static_cast<FrameType>(type);
  snapshot::Reader r(std::vector<std::uint8_t>(
      data + kDispatchFrameHeader, data + kDispatchFrameHeader + plen));
  try {
    switch (f.type) {
      case FrameType::kHello:
        f.version = r.u32();
        f.worker_name = r.str();
        break;
      case FrameType::kRequest:
        (void)r.u8();
        break;
      case FrameType::kGrant: {
        f.lease_id = r.u64();
        f.lease_secs = r.f64();
        const std::uint64_t count = r.u64();
        if (count > (1u << 20))
          throw SnapshotError("grant item count " + std::to_string(count));
        f.items.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
          GrantItem it;
          it.spec = r.u64();
          it.attempt = r.i64();
          it.request = str_blob(r.str());
          f.items.push_back(std::move(it));
        }
        break;
      }
      case FrameType::kNoWork:
        f.done = r.u8() != 0;
        break;
      case FrameType::kResult:
        f.lease_id = r.u64();
        f.spec = r.u64();
        f.attempt = r.i64();
        f.result = str_blob(r.str());
        break;
      case FrameType::kHeartbeat:
        f.lease_id = r.u64();
        f.spec = r.u64();
        f.events = r.u64();
        f.sim_time_bits = r.u64();
        break;
      case FrameType::kCheckpoint:
        f.lease_id = r.u64();
        f.spec = r.u64();
        f.offset = r.u64();
        f.total = r.u64();
        f.chunk = str_blob(r.str());
        break;
    }
    if (!r.at_end())
      throw SnapshotError("trailing payload bytes");
  } catch (const std::exception& e) {
    throw SnapshotError(context + ": bad " + frame_type_name(f.type) +
                        " frame: " + e.what());
  }
  *out = std::move(f);
  return total;
}

void check_hello(const WireFrame& f, const std::string& context) {
  if (f.type != FrameType::kHello)
    throw SnapshotError(context + ": expected hello, got " +
                        frame_type_name(f.type));
  if (f.version != kWorkerProtocolVersion)
    throw SnapshotError(context + ": hello announces worker protocol v" +
                        std::to_string(f.version) + "; this build speaks v" +
                        std::to_string(kWorkerProtocolVersion));
}

bool read_frame(int fd, std::vector<std::uint8_t>& buf,
                const std::string& context, WireFrame* out) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const std::size_t used =
        try_extract_frame(buf.data(), buf.size(), context, out);
    if (used > 0) {
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(used));
      return true;
    }
    const ssize_t got = net::recv_some(fd, chunk, sizeof(chunk));
    if (got == 0) return false;
    if (got < 0)
      throw net::NetError(context + ": recv: " + std::strerror(errno));
    buf.insert(buf.end(), chunk, chunk + got);
  }
}

}  // namespace dftmsn
