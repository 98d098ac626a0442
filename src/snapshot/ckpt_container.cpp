#include "snapshot/ckpt_container.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include "snapshot/io_env.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn::snapshot {
namespace {

constexpr char kMagic[8] = {'D', 'F', 'T', 'M', 'S', 'N', 'C', 'C'};
constexpr char kFooterMagic[8] = {'D', 'F', 'T', 'M', 'S', 'N', 'C', 'F'};
constexpr char kRecMagic[4] = {'R', 'C', '0', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderSize = 12;   // magic + u32 version
constexpr std::uint64_t kRecHeaderSize = 32;  // magic,kind,spec,seq,len
constexpr std::uint64_t kRecOverhead = kRecHeaderSize + 8;  // + digest
constexpr std::uint64_t kFooterSize = 16;   // index offset + magic
constexpr std::uint32_t kKindCheckpoint = 1;
constexpr std::uint32_t kKindIndex = 2;
// Compact when superseded records waste more than both the live data and
// this floor — small containers are never worth rewriting.
constexpr std::uint64_t kCompactMinDeadBytes = 256 * 1024;
// Below this many bytes per live record, reading the live records' whole
// span beats one pread per record header.
constexpr std::uint64_t kSpanBytesPerRecord = 4096;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw SnapshotError("container " + path + ": " + what);
}

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
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Exclusive advisory lock on `<path>.lock`. flock is per open file
/// description, so two threads of one process exclude each other exactly
/// like two processes do. The lock file is created once and never
/// renamed; compaction can atomically replace the container under it.
class ContainerLock {
 public:
  explicit ContainerLock(const std::string& path) {
    const std::string lock_path = path + ".lock";
    fd_ = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
      fail(path, "cannot open lock file " + lock_path + ": " +
                     std::strerror(errno));
    int rc;
    do {
      rc = ::flock(fd_, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      const int saved = errno;
      ::close(fd_);
      fail(path, "cannot lock " + lock_path + ": " + std::strerror(saved));
    }
  }
  ~ContainerLock() {
    if (fd_ >= 0) ::close(fd_);  // closing drops the flock
  }
  ContainerLock(const ContainerLock&) = delete;
  ContainerLock& operator=(const ContainerLock&) = delete;

 private:
  int fd_ = -1;
};

/// Read-only descriptor held for one locked operation; exists() is false
/// when the container file is absent.
class ReadFile {
 public:
  explicit ReadFile(const std::string& path) : path_(path) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0 && errno != ENOENT)
      fail(path, std::string("open: ") + std::strerror(errno));
  }
  ~ReadFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  ReadFile(const ReadFile&) = delete;
  ReadFile& operator=(const ReadFile&) = delete;

  [[nodiscard]] bool exists() const { return fd_ >= 0; }

  [[nodiscard]] std::uint64_t size() const {
    struct stat st{};
    if (::fstat(fd_, &st) != 0)
      fail(path_, std::string("fstat: ") + std::strerror(errno));
    return static_cast<std::uint64_t>(st.st_size);
  }

  /// Reads up to `len` bytes at `off`; fewer only at end of file.
  std::size_t read_at(void* buf, std::size_t len, std::uint64_t off) const {
    auto* out = static_cast<std::uint8_t*>(buf);
    std::size_t done = 0;
    while (done < len) {
      const ssize_t n = ::pread(fd_, out + done, len - done,
                                static_cast<off_t>(off + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        fail(path_, std::string("read: ") + std::strerror(errno));
      }
      if (n == 0) break;
      done += static_cast<std::size_t>(n);
    }
    return done;
  }

  bool read_exact(void* buf, std::size_t len, std::uint64_t off) const {
    return read_at(buf, len, off) == len;
  }

  [[nodiscard]] std::vector<std::uint8_t> read_whole() const {
    std::vector<std::uint8_t> bytes(size());
    // Concurrent truncate: scan whatever we got.
    bytes.resize(read_at(bytes.data(), bytes.size(), 0));
    return bytes;
  }

 private:
  std::string path_;
  int fd_ = -1;
};

std::uint64_t record_digest(const std::uint8_t* rec, std::uint64_t len) {
  StateHash h;
  h.update(rec, kRecHeaderSize + len);
  return h.value();
}

/// Everything an operation needs beyond the public ContainerScanResult.
/// Filled either by index_state (the fast path) or by scan_image (the
/// recovery path); the two agree on every undamaged container.
struct ScanState {
  ContainerScanResult result;
  bool header_ok = false;  ///< false: rewrite the header before appending
  std::uint64_t data_end = kHeaderSize;  ///< after the last data record
  std::uint64_t next_seq = 1;
  /// False on the fast path until View::measure: entries' seq and
  /// payload_len, live_bytes and dead_bytes are not known yet.
  bool measured = true;
  std::uint64_t live_bytes = 0;
};

/// Front-to-back validation of an in-memory image. Never throws for
/// damage a crash can produce: record-level tears stop the scan (the
/// tail counts as torn), and a header shorter than kHeaderSize — a crash
/// inside the very first append — yields an empty recoverable state. A
/// *complete* header with wrong magic/version is a foreign file and
/// throws: stepping over it could destroy data this code doesn't
/// understand.
ScanState scan_image(const std::string& path,
                     const std::vector<std::uint8_t>& image) {
  ScanState s;
  s.result.exists = true;
  s.result.file_size = image.size();
  if (image.size() < kHeaderSize) {
    s.result.valid_end = 0;
    return s;
  }
  if (std::memcmp(image.data(), kMagic, 8) != 0) fail(path, "bad magic");
  if (get_u32(image.data() + 8) != kVersion)
    fail(path, "unsupported version " +
                   std::to_string(get_u32(image.data() + 8)));
  s.header_ok = true;

  // The index is authoritative for liveness when it is intact: an erase
  // drops an entry from the index while the dead record stays behind
  // until compaction. The record-by-record recovery map is the fallback
  // for a torn or index-less file (where a superseded-but-surviving
  // record is legitimately the best available checkpoint).
  std::map<std::uint64_t, ContainerEntry> recovered;   // spec -> latest
  std::map<std::uint64_t, ContainerEntry> by_offset;   // every data record
  std::uint64_t total_data = 0;
  std::uint64_t pos = kHeaderSize;
  std::uint64_t index_offset = 0;
  bool have_index = false;
  bool index_payload_ok = false;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> index_pairs;

  while (pos + kRecOverhead <= image.size()) {
    const std::uint8_t* rec = image.data() + pos;
    if (std::memcmp(rec, kRecMagic, 4) != 0) break;
    const std::uint32_t kind = get_u32(rec + 4);
    if (kind != kKindCheckpoint && kind != kKindIndex) break;
    const std::uint64_t spec = get_u64(rec + 8);
    const std::uint64_t seq = get_u64(rec + 16);
    const std::uint64_t len = get_u64(rec + 24);
    if (len > image.size() - pos - kRecOverhead) break;  // extends past EOF
    if (record_digest(rec, len) != get_u64(rec + kRecHeaderSize + len)) break;

    if (kind == kKindCheckpoint) {
      const ContainerEntry e{spec, seq, pos, len};
      by_offset.emplace(pos, e);
      auto [it, inserted] = recovered.emplace(spec, e);
      if (!inserted && seq >= it->second.seq) it->second = e;
      total_data += kRecOverhead + len;
      s.data_end = pos + kRecOverhead + len;
    } else {
      have_index = true;
      index_offset = pos;
      index_pairs.clear();
      index_payload_ok = false;
      const std::uint8_t* p = rec + kRecHeaderSize;
      if (len >= 8) {
        const std::uint64_t count = get_u64(p);
        if (len == 8 + count * 16) {
          index_payload_ok = true;
          for (std::uint64_t i = 0; i < count; ++i)
            index_pairs.emplace_back(get_u64(p + 8 + i * 16),
                                     get_u64(p + 16 + i * 16));
        }
      }
    }
    if (seq >= s.next_seq) s.next_seq = seq + 1;
    pos += kRecOverhead + len;
  }
  s.result.valid_end = pos;

  // Clean means: the file ends in exactly [index record][footer], the
  // footer points at that index record, and every index entry references
  // an intact record of the right spec.
  s.result.clean = false;
  if (have_index && index_payload_ok && pos + kFooterSize == image.size() &&
      index_offset + kRecOverhead <= pos) {
    const std::uint8_t* footer = image.data() + pos;
    if (get_u64(footer) == index_offset &&
        std::memcmp(footer + 8, kFooterMagic, 8) == 0) {
      bool match = true;
      std::vector<ContainerEntry> from_index;
      for (const auto& [spec, off] : index_pairs) {
        const auto it = by_offset.find(off);
        if (it == by_offset.end() || it->second.spec != spec) {
          match = false;
          break;
        }
        from_index.push_back(it->second);
      }
      if (match) {
        s.result.clean = true;
        s.result.valid_end = image.size();
        s.result.entries = std::move(from_index);
      }
    }
  }
  if (!s.result.clean)
    for (const auto& [spec, e] : recovered) s.result.entries.push_back(e);
  std::sort(s.result.entries.begin(), s.result.entries.end(),
            [](const ContainerEntry& a, const ContainerEntry& b) {
              return a.spec < b.spec;
            });

  for (const ContainerEntry& e : s.result.entries)
    s.live_bytes += kRecOverhead + e.payload_len;
  s.result.dead_bytes = total_data - s.live_bytes;
  return s;
}

/// The fast path: the header, the footer and the index record it points
/// at — O(index), never a byte of any record. The index digest covers
/// every (spec, offset) pair, so each operation reads and checks only the
/// records it touches (read_payload); until then an entry's seq and
/// payload_len read 0 and the byte counts are unmeasured (View::measure).
/// next_seq follows from the index record's own generation, which every
/// tail write sets above all record generations, and data_end from its
/// offset (a clean container holds only checkpoint records between the
/// header and the index). Returns nullopt on any doubt; the caller then
/// runs the recovery scan, so this must never accept a damaged tail but
/// may reject anything unusual.
std::optional<ScanState> index_state(const ReadFile& f) {
  const std::uint64_t size = f.size();
  if (size < kHeaderSize + kRecOverhead + 8 + kFooterSize) return std::nullopt;
  std::uint8_t header[kHeaderSize];
  std::uint8_t footer[kFooterSize];
  if (!f.read_exact(header, kHeaderSize, 0) ||
      std::memcmp(header, kMagic, 8) != 0 ||
      get_u32(header + 8) != kVersion ||
      !f.read_exact(footer, kFooterSize, size - kFooterSize) ||
      std::memcmp(footer + 8, kFooterMagic, 8) != 0)
    return std::nullopt;

  // The index record must end exactly where the footer starts. A torn
  // erase (new, shorter tail written; truncate not yet done) leaves a
  // stale footer at EOF that still points at the new index, one footer
  // length short of it.
  const std::uint64_t index_offset = get_u64(footer);
  const std::uint64_t index_end = size - kFooterSize;
  if (index_offset < kHeaderSize || index_offset > index_end - kRecOverhead - 8)
    return std::nullopt;
  std::vector<std::uint8_t> index(index_end - index_offset);
  if (!f.read_exact(index.data(), index.size(), index_offset))
    return std::nullopt;
  const std::uint64_t len = index.size() - kRecOverhead;
  const std::uint8_t* p = index.data() + kRecHeaderSize;
  if (std::memcmp(index.data(), kRecMagic, 4) != 0 ||
      get_u32(index.data() + 4) != kKindIndex ||
      get_u64(index.data() + 24) != len ||
      record_digest(index.data(), len) != get_u64(p + len) ||
      (len - 8) % 16 != 0 || get_u64(p) != (len - 8) / 16)
    return std::nullopt;

  ScanState s;
  s.result.exists = true;
  s.result.clean = true;
  s.result.file_size = size;
  s.result.valid_end = size;
  s.header_ok = true;
  s.measured = false;
  s.data_end = index_offset;
  s.next_seq = get_u64(index.data() + 16) + 1;
  const std::uint64_t count = get_u64(p);
  s.result.entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t spec = get_u64(p + 8 + i * 16);
    const std::uint64_t off = get_u64(p + 16 + i * 16);
    if ((i > 0 && spec <= s.result.entries.back().spec) ||
        off < kHeaderSize || off > index_offset ||
        index_offset - off < kRecOverhead)
      return std::nullopt;
    s.result.entries.push_back({spec, 0, off, 0});
  }
  return s;
}

/// Checks that `head` (the kRecHeaderSize bytes at e.offset) starts a
/// checkpoint record of e.spec that fits below `end`, filling in e's seq
/// and payload_len. False when it does not.
bool check_record_header(const std::uint8_t* head, ContainerEntry& e,
                         std::uint64_t end) {
  if (std::memcmp(head, kRecMagic, 4) != 0 ||
      get_u32(head + 4) != kKindCheckpoint || get_u64(head + 8) != e.spec ||
      get_u64(head + 24) > end - e.offset - kRecOverhead)
    return false;
  e.seq = get_u64(head + 16);
  e.payload_len = get_u64(head + 24);
  return true;
}

/// Reads the record `e` names (below `end`) and checks its header and
/// digest; nullopt when the record is damaged.
std::optional<std::vector<std::uint8_t>> read_payload(const ReadFile& f,
                                                      ContainerEntry& e,
                                                      std::uint64_t end) {
  std::uint8_t head[kRecHeaderSize];
  if (!f.read_exact(head, kRecHeaderSize, e.offset) ||
      !check_record_header(head, e, end))
    return std::nullopt;
  std::uint8_t digest[8];
  std::vector<std::uint8_t> payload(e.payload_len);
  const std::uint64_t at = e.offset + kRecHeaderSize;
  if (!f.read_exact(payload.data(), payload.size(), at) ||
      !f.read_exact(digest, 8, at + e.payload_len))
    return std::nullopt;
  StateHash h;
  h.update(head, kRecHeaderSize);
  h.update(payload.data(), payload.size());
  if (h.value() != get_u64(digest)) return std::nullopt;
  return payload;
}

/// What one locked operation knows about the container: the fast path's
/// state when the index verifies, else the recovery scan's state plus the
/// whole image that scan read.
struct View {
  ScanState s;
  bool indexed = false;
  std::vector<std::uint8_t> image;  ///< recovery path only

  View(const ReadFile& f, const std::string& path) {
    if (!f.exists()) return;  // s.result.exists = false
    if (std::optional<ScanState> fast = index_state(f)) {
      s = std::move(*fast);
      indexed = true;
    } else {
      recover(f, path);
    }
  }

  /// Drops to the front-to-back recovery scan (the single torn-tail path).
  void recover(const ReadFile& f, const std::string& path) {
    image = f.read_whole();
    s = scan_image(path, image);
    indexed = false;
  }

  /// Reads every live record header for the byte counts; recovery when
  /// one does not check out.
  void measure(const ReadFile& f, const std::string& path) {
    if (s.measured) return;
    // Small records (a manifest's): one read of the span the live records
    // lie in costs less than one pread per header.
    std::uint64_t first = s.data_end;
    for (const ContainerEntry& e : s.result.entries)
      first = std::min(first, e.offset);
    std::vector<std::uint8_t> span;
    if (s.data_end - first <= s.result.entries.size() * kSpanBytesPerRecord) {
      span.resize(s.data_end - first);
      if (!f.read_exact(span.data(), span.size(), first))
        return recover(f, path);
    }
    std::uint8_t buf[kRecHeaderSize];
    s.live_bytes = 0;
    for (ContainerEntry& e : s.result.entries) {
      // index_state keeps every offset a whole header below data_end.
      const std::uint8_t* head =
          span.empty() ? buf : span.data() + (e.offset - first);
      if ((span.empty() && !f.read_exact(buf, kRecHeaderSize, e.offset)) ||
          !check_record_header(head, e, s.data_end))
        return recover(f, path);
      s.live_bytes += kRecOverhead + e.payload_len;
    }
    if (s.live_bytes > s.data_end - kHeaderSize) return recover(f, path);
    s.result.dead_bytes = s.data_end - kHeaderSize - s.live_bytes;
    s.measured = true;
  }

  /// Recovery when any live record fails its digest: the view scan and
  /// repair report (--fsck). Dead records are never read.
  void verify_live(const ReadFile& f, const std::string& path) {
    if (!indexed) return;
    for (ContainerEntry& e : s.result.entries)
      if (!read_payload(f, e, s.data_end)) return recover(f, path);
    measure(f, path);
  }

  /// Whether superseded records waste more than both the live data and
  /// kCompactMinDeadBytes. Reads the live record headers only when the
  /// index alone cannot rule that out: dead bytes are at most the data
  /// region minus the live records' framing, which is a lower bound on
  /// live bytes.
  bool worth_compacting(const ReadFile& f, const std::string& path) {
    if (!s.measured) {
      const std::uint64_t data = s.data_end - kHeaderSize;
      const std::uint64_t framing = s.result.entries.size() * kRecOverhead;
      if (data < framing || data - framing <= kCompactMinDeadBytes ||
          data - framing <= framing)
        return false;
      measure(f, path);
    }
    return s.result.dead_bytes > kCompactMinDeadBytes &&
           s.result.dead_bytes > s.live_bytes;
  }

  [[nodiscard]] const ContainerEntry* find(std::uint64_t spec) const {
    for (const ContainerEntry& e : s.result.entries)
      if (e.spec == spec) return &e;
    return nullptr;
  }

  /// e's payload inside the recovery image (the scan checked its digest).
  [[nodiscard]] const std::uint8_t* image_payload(
      const ContainerEntry& e) const {
    return image.data() + e.offset + kRecHeaderSize;
  }
};

/// Appends one sealed record to `out`.
void append_record(std::vector<std::uint8_t>& out, std::uint32_t kind,
                   std::uint64_t spec, std::uint64_t seq,
                   const std::uint8_t* payload, std::uint64_t len) {
  const std::size_t start = out.size();
  out.reserve(start + kRecOverhead + len);
  out.insert(out.end(), kRecMagic, kRecMagic + 4);
  put_u32(out, kind);
  put_u64(out, spec);
  put_u64(out, seq);
  put_u64(out, len);
  out.insert(out.end(), payload, payload + len);
  StateHash h;
  h.update(out.data() + start, out.size() - start);
  put_u64(out, h.value());
}

/// index record (listing `entries`, which must be sorted) + footer, laid
/// out to start at `at`.
std::vector<std::uint8_t> encode_index_and_footer(
    const std::vector<ContainerEntry>& entries, std::uint64_t seq,
    std::uint64_t at) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, entries.size());
  for (const ContainerEntry& e : entries) {
    put_u64(payload, e.spec);
    put_u64(payload, e.offset);
  }
  std::vector<std::uint8_t> out;
  append_record(out, kKindIndex, 0, seq, payload.data(), payload.size());
  put_u64(out, at);  // footer: offset of the index record we just wrote
  out.insert(out.end(), kFooterMagic, kFooterMagic + 8);
  return out;
}

std::vector<std::uint8_t> header_bytes() {
  std::vector<std::uint8_t> h(kMagic, kMagic + 8);
  put_u32(h, kVersion);
  return h;
}

/// Lays out a fresh clean container image record by record: the header,
/// the records with seq 1, 2, ... in the order added, then the index +
/// footer. Specs must be added in ascending order; finish() hands the
/// image over and ends the builder's use.
class FreshImage {
 public:
  void add(std::uint64_t spec, const std::uint8_t* payload,
           std::uint64_t len) {
    entries_.push_back({spec, seq_, out_.size(), len});
    append_record(out_, kKindCheckpoint, spec, seq_++, payload, len);
  }

  std::vector<std::uint8_t> finish() {
    const std::vector<std::uint8_t> tail =
        encode_index_and_footer(entries_, seq_, out_.size());
    out_.insert(out_.end(), tail.begin(), tail.end());
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_ = header_bytes();
  std::vector<ContainerEntry> entries_;
  std::uint64_t seq_ = 1;
};

/// Serializes exactly the live records into a fresh clean container
/// image (used by compaction). On the fast path each live record is read
/// and digest-checked first; a damaged one sends the view to recovery and
/// compaction starts over from what the recovery scan kept, so damaged
/// bytes never get sealed under a fresh digest.
std::vector<std::uint8_t> compacted_image(View& v, const ReadFile& f,
                                          const std::string& path) {
  FreshImage img;
  for (ContainerEntry& e : v.s.result.entries) {
    if (!v.indexed) {
      img.add(e.spec, v.image_payload(e), e.payload_len);
      continue;
    }
    const std::optional<std::vector<std::uint8_t>> read =
        read_payload(f, e, v.s.data_end);
    if (!read) {
      v.recover(f, path);
      return compacted_image(v, f, path);
    }
    img.add(e.spec, read->data(), read->size());
  }
  return img.finish();
}

/// Writes index + footer at `at`, truncates to the exact end, fsyncs.
/// The caller has already written any data records below `at`.
void finish_tail(IoEnv& io, int fd, const std::string& path,
                 const std::vector<ContainerEntry>& entries,
                 std::uint64_t seq, std::uint64_t at) {
  const std::vector<std::uint8_t> tail =
      encode_index_and_footer(entries, seq, at);
  io.pwrite_all(fd, path, tail.data(), tail.size(), at);
  io.ftruncate_file(fd, path, at + tail.size());
  io.fsync_file(fd, path);
}

}  // namespace

ContainerScanResult container_scan(const std::string& path) {
  ContainerLock lock(path);
  const ReadFile f(path);
  View v(f, path);
  v.verify_live(f, path);
  return std::move(v.s.result);
}

void container_put(const std::string& path, std::uint64_t spec,
                   const std::vector<std::uint8_t>& payload) {
  ContainerLock lock(path);
  IoEnv& io = IoEnv::instance();
  const ReadFile f(path);
  View v(f, path);
  if (v.worth_compacting(f, path)) {
    io.write_file_atomic_durable(path, compacted_image(v, f, path));
    v = View(ReadFile(path), path);  // the compacted file replaced f's
  }
  const ScanState& s = v.s;

  const int fd = io.open_rw(path);
  try {
    std::uint64_t at = s.data_end;
    if (!s.header_ok) {
      const std::vector<std::uint8_t> h = header_bytes();
      io.pwrite_all(fd, path, h.data(), h.size(), 0);
      at = kHeaderSize;
    }
    const std::uint64_t seq = s.next_seq;
    std::vector<std::uint8_t> rec;
    append_record(rec, kKindCheckpoint, spec, seq, payload.data(),
                  payload.size());
    io.pwrite_all(fd, path, rec.data(), rec.size(), at);

    std::vector<ContainerEntry> entries = s.result.entries;
    const ContainerEntry e{spec, seq, at, payload.size()};
    const auto it = std::find_if(
        entries.begin(), entries.end(),
        [&](const ContainerEntry& x) { return x.spec == spec; });
    if (it != entries.end())
      *it = e;
    else
      entries.insert(std::upper_bound(entries.begin(), entries.end(), e,
                                      [](const ContainerEntry& a,
                                         const ContainerEntry& b) {
                                        return a.spec < b.spec;
                                      }),
                     e);
    finish_tail(io, fd, path, entries, seq + 1, at + rec.size());
  } catch (...) {
    ::close(fd);
    throw;  // a torn append is recovered by the next scan
  }
  ::close(fd);
}

std::optional<std::vector<std::uint8_t>> container_get(
    const std::string& path, std::uint64_t spec) {
  ContainerLock lock(path);
  const ReadFile f(path);
  View v(f, path);
  const ContainerEntry* e = v.find(spec);
  if (e != nullptr && v.indexed) {
    ContainerEntry touched = *e;
    if (auto payload = read_payload(f, touched, v.s.data_end)) return payload;
    v.recover(f, path);  // the indexed record is damaged
    e = v.find(spec);
  }
  if (e == nullptr) return std::nullopt;
  const std::uint8_t* payload = v.image_payload(*e);
  return std::vector<std::uint8_t>(payload, payload + e->payload_len);
}

void container_write_fresh(
    const std::string& path,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  FreshImage img;
  for (std::size_t i = 0; i < payloads.size(); ++i)
    img.add(i, payloads[i].data(), payloads[i].size());
  ContainerLock lock(path);
  IoEnv::instance().write_file_atomic_durable(path, img.finish());
}

std::size_t container_erase(const std::string& path, std::uint64_t spec) {
  ContainerLock lock(path);
  const ReadFile f(path);
  const View v(f, path);
  const ScanState& s = v.s;
  if (!s.result.exists) return 0;
  if (v.find(spec) == nullptr && s.result.clean)
    return s.result.entries.size();

  std::vector<ContainerEntry> entries;
  for (const ContainerEntry& e : s.result.entries)
    if (e.spec != spec) entries.push_back(e);

  IoEnv& io = IoEnv::instance();
  const int fd = io.open_rw(path);
  try {
    finish_tail(io, fd, path, entries, s.next_seq, s.data_end);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return entries.size();
}

void container_compact(const std::string& path) {
  ContainerLock lock(path);
  const ReadFile f(path);
  View v(f, path);
  v.measure(f, path);
  if (!v.s.result.exists || (v.s.result.clean && v.s.result.dead_bytes == 0))
    return;
  IoEnv::instance().write_file_atomic_durable(path,
                                              compacted_image(v, f, path));
}

bool container_repair(const std::string& path) {
  ContainerLock lock(path);
  const ReadFile f(path);
  View v(f, path);
  v.verify_live(f, path);
  const ScanState& s = v.s;
  if (!s.result.exists || s.result.clean) return false;

  IoEnv& io = IoEnv::instance();
  const int fd = io.open_rw(path);
  try {
    if (!s.header_ok) {
      const std::vector<std::uint8_t> h = header_bytes();
      io.pwrite_all(fd, path, h.data(), h.size(), 0);
    }
    finish_tail(io, fd, path, s.result.entries, s.next_seq, s.data_end);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return true;
}

}  // namespace dftmsn::snapshot
