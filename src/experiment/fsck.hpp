// Durable-state checker/repairer behind `dftmsn_cli --fsck DIR`.
//
// Scans a checkpoint directory for every file kind the sweep machinery
// persists — the checkpoints.dcc and manifest.dcc containers, motion
// traces (*.trc), leftover *.tmp rename staging, and the files older
// builds left (manifest.txt, worker .req/.result/.progress files,
// dispatch .leases journals) — classifies each as valid / torn / stale /
// corrupt / leftover, and repairs what can be repaired without losing
// intact data. Both containers get the one container repair: a torn
// tail or a damaged live record is cut from that record on and the index
// rebuilt (the specs it cut re-run). Corrupt or stale checkpoint entries
// are dropped (that spec re-runs); corrupt traces and leftovers are
// deleted (nothing needs them to resume). A manifest this build cannot
// read — a foreign container, a record of another format version, or an
// older build's manifest.txt — is the unrepairable find: it holds
// completed results nothing can reconstruct, so fsck reports it and
// leaves the decision to the operator.
//
// Exit-code mapping (run_fsck itself doesn't exit): 0 everything valid,
// 7 repairs were applied and the directory is now resumable, 2
// unrepairable damage remains.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dftmsn {

struct FsckFinding {
  std::string path;            ///< file the finding is about
  std::string classification;  ///< valid | torn | stale | corrupt | leftover
  std::string detail;          ///< what was found / what repair did
  bool repaired = false;
};

struct FsckReport {
  std::vector<FsckFinding> findings;
  bool repaired = false;      ///< at least one repair was applied
  bool unrepairable = false;  ///< damage remains after repairs

  [[nodiscard]] int exit_code() const {
    return unrepairable ? 2 : (repaired ? 7 : 0);
  }
};

/// Checks + repairs `dir`, logging one line per finding to `log`.
/// Throws std::runtime_error only when `dir` itself is unusable.
FsckReport run_fsck(const std::string& dir, std::ostream& log);

}  // namespace dftmsn
