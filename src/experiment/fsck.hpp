// Durable-state checker/repairer behind `dftmsn_cli --fsck DIR`.
//
// Scans a checkpoint directory for every file kind the sweep machinery
// persists — the checkpoints.dcc container, manifest.txt, motion traces
// (*.trc), leftover *.tmp rename staging, dispatch lease journals and the
// worker files older builds left — classifies each as valid / torn /
// stale / corrupt / leftover, and repairs what can be repaired without
// losing intact data: torn container tails are truncated and the index
// rebuilt, corrupt or stale container entries are dropped (that spec
// re-runs), corrupt traces and leftovers are deleted (nothing needs
// them to resume). A corrupt manifest is the one unrepairable find: it
// holds completed results nothing can reconstruct, so fsck reports it
// and leaves the decision (delete and re-run the sweep) to the operator.
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
