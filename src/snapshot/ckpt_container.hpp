// Indexed container ("DFTMSNCC" v1): one append-only file holding the
// latest record of every spec, keyed by spec index. A sweep keeps two:
// checkpoints.dcc (each spec's latest World checkpoint) and manifest.dcc
// (each spec's manifest record, experiment/supervisor.hpp). The
// container does not look inside payloads; the payload formats carry
// their own magic or version.
//
// Layout:
//   header   8-byte magic "DFTMSNCC" + u32 version (12 bytes)
//   records  back to back, each:
//              u32 "RC01" | u32 kind | u64 spec | u64 seq |
//              u64 payload_len | payload | u64 FNV-1a digest
//            (digest covers the record header + payload)
//   tail     one kind=index record (payload: u64 count, then count x
//            (u64 spec, u64 offset) pairs sorted by spec) followed by a
//            16-byte footer: u64 index_offset + magic "DFTMSNCF"
//
// Updates append: a new record overwrites the old index
// position, then a fresh index + footer go after it and the file is
// truncated to the exact end. The record a spec previously owned stays
// behind as a dead record until compaction. Crash tolerance falls out of
// the layout: a torn append damages only bytes past the last intact
// record, so recovery scans the records front to back, stops at the
// first one whose digest fails, and rebuilds the index from what
// survived — the previous checkpoint of the spec being written is one of
// the surviving records.
//
// What each operation reads and verifies. Every operation runs under an
// exclusive flock(2) on a sibling `<path>.lock` file (never renamed, so
// the lock stays valid across in-place compaction), which serializes both
// concurrent sweep threads and isolated worker processes. It then reads
// the 12-byte header, the 16-byte footer at EOF and the index record the
// footer points at, and checks the header's magic and version, the
// index's digest and that the index ends exactly at the footer. The index
// digest covers every (spec, offset) pair, so no other record is read
// unless the operation touches it:
//   - container_get reads and checks only the header and digest of the
//     record it returns;
//   - container_put appends one record plus a new tail, and reads the
//     live record headers only when the index cannot rule out an
//     automatic compaction (the data region exceeds the live records'
//     framing by more than both that framing and the compaction floor);
//   - container_erase rewrites only the tail;
//   - compaction reads and digest-checks only the live records it
//     re-seals, and writes them as one fresh image, the same image
//     container_write_fresh builds from caller payloads;
//   - container_scan and container_repair (--fsck) digest-check every
//     live record.
// Dead records are never read, so damage there is invisible until
// compaction drops it. An operation therefore costs O(index + the
// records it touches), not O(file). Any doubt — a bad header, footer or
// index, a length that doesn't end at the footer, or a read record whose
// header or digest fails — falls back to the front-to-back recovery scan above,
// the one torn-tail path, which digest-checks every record. Mutations go
// through the IoEnv primitives and are therefore both durable (fsync
// before the cut-over points) and fault-injectable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dftmsn::snapshot {

/// One live index entry, as recovered by container_scan.
struct ContainerEntry {
  std::uint64_t spec = 0;
  std::uint64_t seq = 0;          ///< write generation (monotonic per file)
  std::uint64_t offset = 0;       ///< record start, from file offset 0
  std::uint64_t payload_len = 0;
};

/// What a validation scan found.
struct ContainerScanResult {
  bool exists = false;        ///< false: no file (all else defaulted)
  bool clean = false;         ///< footer, index and live records verify
  std::uint64_t file_size = 0;
  std::uint64_t valid_end = 0;   ///< offset after the last intact record
  std::uint64_t dead_bytes = 0;  ///< superseded record bytes (compactable)
  std::vector<ContainerEntry> entries;  ///< live entries, sorted by spec
};

/// Validates `path` without modifying it: the index and every live
/// record when the index verifies, else front to back. A torn tail (bytes
/// past valid_end that don't form intact records + footer) or a damaged
/// live record makes clean=false; the entries the recovery scan finds
/// before the damage are still returned. Throws SnapshotError (naming
/// the path) only for damage a scan cannot step over: a missing/oversized
/// header or an unreadable file. A nonexistent path is not an error
/// (exists=false).
ContainerScanResult container_scan(const std::string& path);

/// Appends `payload` as spec's new checkpoint (creating the container if
/// needed), then rewrites the index + footer. Durable on return. May
/// compact in place when dead bytes dominate the file.
void container_put(const std::string& path, std::uint64_t spec,
                   const std::vector<std::uint8_t>& payload);

/// Returns spec's latest intact payload, or nullopt when the container
/// or the entry doesn't exist (including "lost to a torn tail" — the
/// caller starts that spec from scratch, which is the recovery).
std::optional<std::vector<std::uint8_t>> container_get(
    const std::string& path, std::uint64_t spec);

/// Atomically replaces `path` with a fresh clean container holding
/// payloads[i] as spec i's record (the image compaction writes, built
/// from caller data). Durable on return.
void container_write_fresh(
    const std::string& path,
    const std::vector<std::vector<std::uint8_t>>& payloads);

/// Drops spec's entry from the index (the record becomes dead bytes).
/// No-op when the container or entry is absent. Returns the number of
/// live entries left (0 for an absent container).
std::size_t container_erase(const std::string& path, std::uint64_t spec);

/// Rewrites the container to exactly its live records. No-op (and no
/// write) when the file is already clean and fully live.
void container_compact(const std::string& path);

/// Truncates a torn tail (or everything from the first damaged record on)
/// and rewrites the index + footer so a scan reports clean. Damage to
/// dead records alone leaves the file as it is. Returns true when the
/// file was modified (--fsck's "repaired" signal), false when it was
/// already clean or absent.
bool container_repair(const std::string& path);

}  // namespace dftmsn::snapshot
