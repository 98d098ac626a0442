// Checkpoint images: a versioned container around a World state snapshot,
// stored as the entries of the checkpoint container (ckpt_container.hpp).
//
// Layout: magic "DFTMSNCK" + u32 format version, then a "meta" section
// (config digest, protocol, seed, sim time, executed event count), then
// the World's serialized component state, then a trailing FNV-1a digest
// of everything before it (torn/corrupt file detection).
//
// Resume protocol (resume_world): rebuild the World from (config, kind) —
// the checkpoint stores a digest of the config, not the config itself,
// so a resume against drifted parameters is rejected loudly — then
// deterministically replay to the recorded event count, clamp the clock,
// and byte-compare the re-serialized state against the checkpoint. The
// comparison is what makes resume *verified*: any nondeterminism or code
// drift surfaces as a SnapshotMismatch naming the diverging component
// instead of silently producing different results.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "experiment/world.hpp"
#include "protocol/protocol_factory.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn {

/// Everything needed to locate and validate the run a checkpoint belongs
/// to, plus the replay target.
struct CheckpointMeta {
  std::uint32_t version = 1;
  std::uint64_t config_digest = 0;  ///< config_digest(config, kind)
  std::uint32_t protocol = 0;       ///< ProtocolKind as int
  std::uint64_t seed = 0;
  SimTime time = 0.0;               ///< sim clock at snapshot
  std::uint64_t events = 0;         ///< events executed at snapshot
};

/// Stable fingerprint of every registered config key plus the protocol
/// kind. faults.attempt is deliberately not a registered key, so retried
/// attempts of one replication share a digest.
std::uint64_t config_digest(const Config& config, ProtocolKind kind);

/// Serializes `world` into a complete checkpoint image (the payload of
/// one checkpoint container entry).
std::vector<std::uint8_t> make_checkpoint(const World& world);

/// Parses and validates a checkpoint image (magic, version, trailing
/// digest); returns the meta. `state` (optional) receives the embedded
/// World state bytes.
CheckpointMeta read_checkpoint_meta(const std::vector<std::uint8_t>& image,
                                    std::vector<std::uint8_t>* state = nullptr);

/// Rebuilds a World from (config, kind) and fast-forwards it to the
/// checkpoint. Throws SnapshotError if the checkpoint belongs to a
/// different (config, protocol, seed); when `verify` is set (default),
/// throws SnapshotMismatch if the replayed state is not byte-identical
/// to the recorded state. `abort`/`progress`, when non-null, are
/// installed on the simulator *before* replay starts, so a supervisor's
/// watchdog can observe and cancel a replay that itself hangs (e.g. an
/// ungated `hang@T` fault that replays along with everything else).
std::unique_ptr<World> resume_world(const Config& config, ProtocolKind kind,
                                    const std::vector<std::uint8_t>& image,
                                    bool verify = true,
                                    const std::atomic<bool>* abort = nullptr,
                                    std::atomic<std::uint64_t>* progress =
                                        nullptr);

}  // namespace dftmsn
