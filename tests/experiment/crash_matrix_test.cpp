// The crash-point matrix: for every injectable I/O op, crash the real
// CLI binary (_exit(9), no unwinding — honest power loss) at the 1st,
// 2nd, ... Nth occurrence of that op until a run completes without the
// fault firing, i.e. every boundary the sweep ever crosses has been hit.
// After each crash: --fsck must classify/repair without reporting
// unrepairable damage, and --resume must finish the sweep to a manifest
// whose durable content (status + config digest + bit-exact results) is
// identical to an uninterrupted run's. Runs at --jobs 1 and --jobs 4 —
// the acceptance gate for the durability layer.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/supervisor.hpp"
#include "snapshot/io_env.hpp"

namespace dftmsn {
namespace {

namespace fs = std::filesystem;

constexpr const char* kCli = DFTMSN_CLI_PATH;
// More occurrences than the mini-sweep ever performs of any one op; the
// matrix must exhaust each op (observe a fault that no longer fires)
// before this, or the test fails as "matrix never terminated".
constexpr int kMaxOccurrence = 120;

int run_cmd(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

std::string sweep_cmd(const std::string& dir, int jobs,
                      const std::string& faults, bool resume) {
  std::ostringstream cmd;
  if (!faults.empty()) cmd << "DFTMSN_IO_FAULTS='" << faults << "' ";
  cmd << '"' << kCli << '"'
      << " --protocol DIRECT --reps 2 --jobs " << jobs
      << " --checkpoint-dir " << dir << " --checkpoint-every 40"
      << (resume ? " --resume" : "")
      << " scenario.num_sensors=6 scenario.num_sinks=1"
      << " scenario.duration_s=160 > " << dir << "/out.log 2>&1";
  return cmd.str();
}

/// The durable content of a manifest: status, config digest, detail and
/// the bit-exact result and registry of every spec. Bookkeeping that
/// legitimately differs between an interrupted-and-resumed sweep and a
/// straight one (the retry and checkpoint counters) is stripped;
/// everything else must match bit for bit.
std::string canonical_manifest(const std::string& path) {
  SweepManifest m;
  EXPECT_TRUE(load_manifest(path, &m)) << "missing manifest: " << path;
  std::ostringstream out;
  for (std::size_t i = 0; i < m.specs.size(); ++i) {
    const SpecRecord& r = m.specs[i];
    out << "spec " << i << ' ' << spec_status_name(r.status) << " digest="
        << r.config_digest << " detail=" << r.detail << "\nresult";
    snapshot::Writer w;
    save_run_result(r.result, w);
    for (const std::uint8_t b : w.bytes()) out << ' ' << int(b);
    out << "\nregistry";
    for (const std::uint8_t b : r.registry.serialize()) out << ' ' << int(b);
    out << '\n';
  }
  return out.str();
}

void run_matrix(int jobs) {
  const std::string base =
      "crash_matrix_j" + std::to_string(jobs) + ".tmp";
  fs::remove_all(base);
  fs::create_directories(base);

  // Uninterrupted reference.
  const std::string ref_dir = base + "/ref";
  fs::create_directories(ref_dir);
  ASSERT_EQ(run_cmd(sweep_cmd(ref_dir, jobs, "", false)), 0);
  const std::string ref = canonical_manifest(manifest_path(ref_dir));
  ASSERT_FALSE(ref.empty());

  for (const char* op : {"open", "write", "fsync", "rename", "fsyncdir"}) {
    bool exhausted = false;
    for (int nth = 1; nth <= kMaxOccurrence; ++nth) {
      const std::string dir =
          base + "/" + op + "_" + std::to_string(nth);
      fs::create_directories(dir);
      const std::string fault =
          "crash@" + std::string(op) + "#" + std::to_string(nth);

      const int rc = run_cmd(sweep_cmd(dir, jobs, fault, false));
      if (rc == 0) {
        // The sweep performed fewer than nth of this op: every boundary
        // of this kind has been crashed at. The very first occurrence
        // must exist, though — all five ops are part of the protocol.
        EXPECT_GT(nth, 1) << op << " was never performed at all";
        exhausted = true;
        fs::remove_all(dir);
        break;
      }
      ASSERT_EQ(rc, snapshot::kInjectedCrashExit)
          << fault << " at --jobs " << jobs
          << ": expected the scripted crash, got exit " << rc;

      // Recovery: fsck may find a torn tail / leftover .tmp (7) or
      // nothing at all (0); unrepairable damage (2) is a durability bug.
      const int fsck_rc = run_cmd('"' + std::string(kCli) + "\" --fsck " +
                                  dir + " >> " + dir + "/out.log 2>&1");
      ASSERT_TRUE(fsck_rc == 0 || fsck_rc == 7)
          << fault << " at --jobs " << jobs << ": fsck exit " << fsck_rc;

      ASSERT_EQ(run_cmd(sweep_cmd(dir, jobs, "", true)), 0)
          << fault << " at --jobs " << jobs << ": resume failed";
      EXPECT_EQ(canonical_manifest(manifest_path(dir)), ref)
          << fault << " at --jobs " << jobs
          << ": resumed sweep diverged from the uninterrupted run";
      fs::remove_all(dir);
    }
    EXPECT_TRUE(exhausted)
        << op << " matrix did not terminate within " << kMaxOccurrence
        << " occurrences at --jobs " << jobs;
  }
  fs::remove_all(base);
}

TEST(CrashMatrix, EveryBoundaryRecoversJobs1) { run_matrix(1); }

TEST(CrashMatrix, EveryBoundaryRecoversJobs4) { run_matrix(4); }

}  // namespace
}  // namespace dftmsn
