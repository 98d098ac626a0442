// Supervisor behaviour: watchdog rescue of hung replications, retry from
// the last good checkpoint after crashes, quarantine when the retry
// budget runs out, manifest bookkeeping, and partial aggregation. Uses
// the fault harness's `hang`/`die` primitives (with `attempts=` gating)
// to make every failure deterministic.
#include "experiment/supervisor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "experiment/fsck.hpp"
#include "experiment/runner.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"
#include "snapshot/snapshot_io.hpp"

namespace dftmsn {
namespace {

Config small_config(std::uint64_t seed) {
  Config c;
  c.scenario.num_sensors = 10;
  c.scenario.num_sinks = 2;
  c.scenario.field_m = 120.0;
  c.scenario.duration_s = 600.0;
  c.scenario.warmup_s = 50.0;
  c.scenario.speed_max_mps = 4.0;
  c.scenario.seed = seed;
  return c;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_TRUE(same_bits(a.delivery_ratio, b.delivery_ratio));
  EXPECT_TRUE(same_bits(a.mean_power_mw, b.mean_power_mw));
  EXPECT_TRUE(same_bits(a.mean_delay_s, b.mean_delay_s));
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

/// RAII scratch directory for checkpoints.
struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TEST(Supervisor, CrashingReplicationRetriesFromCheckpointUnperturbed) {
  TempDir dir("supervisor_die.tmp");
  RunSpec spec;
  spec.config = small_config(77);
  spec.config.faults.plan = "die@300:attempts=1";  // crashes attempt 0 only

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 100.0;
  opts.retry_backoff_s = 0.0;
  const SweepManifest m = run_specs_supervised({spec}, opts);
  ASSERT_EQ(m.completed(), 1);
  EXPECT_EQ(m.specs[0].retries, 1);
  EXPECT_EQ(m.retried(), 1);

  // The retried replication must report exactly the numbers of a run
  // that executed attempt 1 start-to-finish: supervision is invisible.
  Config straight = spec.config;
  straight.faults.attempt = 1;
  expect_identical(run_once(straight, spec.kind), m.specs[0].result);
}

TEST(Supervisor, WatchdogRescuesHungReplication) {
  TempDir dir("supervisor_hang.tmp");
  RunSpec spec;
  spec.config = small_config(78);
  spec.config.faults.plan = "hang@300:attempts=1";  // hangs attempt 0 only

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 100.0;
  opts.watchdog_secs = 0.4;
  opts.retry_backoff_s = 0.0;
  const SweepManifest m = run_specs_supervised({spec}, opts);
  ASSERT_EQ(m.completed(), 1);
  EXPECT_GE(m.specs[0].retries, 1);

  Config straight = spec.config;
  straight.faults.attempt = 1;
  expect_identical(run_once(straight, spec.kind), m.specs[0].result);
}

TEST(Supervisor, SlicesAdvancePastBoundariesThatRoundBelowTheirIndex) {
  // duration = 16 * (1.5 + 6*2^-52): for step = duration/16, and for a
  // checkpoint period of that same step, fl(3*step)/step rounds to just
  // below 3. A boundary re-derived as floor(now/step)+1 would then equal
  // now and the run would stop advancing; the watchdog turns such a
  // stall into a quarantine instead of a hang.
  TempDir dir("supervisor_boundaries.tmp");
  RunSpec spec;
  spec.config = small_config(79);
  spec.config.scenario.duration_s = 24.0 + 96.0 * std::ldexp(1.0, -52);
  spec.config.scenario.warmup_s = 5.0;
  const RunResult straight = run_once(spec.config, spec.kind);

  SupervisorOptions opts;
  opts.watchdog_secs = 1.0;
  opts.max_retries = 0;
  for (const double every : {0.0, spec.config.scenario.duration_s / 16.0}) {
    opts.checkpoint_dir = every > 0.0 ? dir.path : "";
    opts.checkpoint_every_s = every;
    const SweepManifest m = run_specs_supervised({spec}, opts);
    ASSERT_EQ(m.completed(), 1) << "every=" << every << ": "
                                << m.specs[0].detail;
    expect_identical(straight, m.specs[0].result);
    if (every > 0.0) EXPECT_EQ(m.specs[0].checkpoints, 15u);
  }
}

TEST(Supervisor, QuarantinesAfterRetryBudgetAndAggregatesTheRest) {
  TempDir dir("supervisor_quarantine.tmp");
  std::vector<RunSpec> specs(2);
  specs[0].config = small_config(79);
  specs[0].config.faults.plan = "die@300";  // ungated: dies every attempt
  specs[1].config = small_config(80);       // clean

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 100.0;
  opts.max_retries = 1;
  opts.retry_backoff_s = 0.0;
  const SweepManifest m = run_specs_supervised(specs, opts);

  EXPECT_EQ(m.specs[0].status, SpecStatus::kQuarantined);
  EXPECT_EQ(m.specs[0].retries, 2);  // initial try + 1 retry, both died
  EXPECT_FALSE(m.specs[0].detail.empty());
  EXPECT_EQ(m.specs[1].status, SpecStatus::kCompleted);
  EXPECT_EQ(m.completed(), 1);
  EXPECT_EQ(m.quarantined(), 1);

  // Partial aggregation folds only the completed replication.
  const std::vector<RunResult> done = completed_results(m);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].generated, m.specs[1].result.generated);
}

TEST(Supervisor, AcceptanceMixedSweepWithHangAndCrashCompletes) {
  // The ISSUE acceptance scenario: a sweep containing >= 1 deliberately
  // hung and >= 1 crashing replication completes with correct counts.
  TempDir dir("supervisor_mixed.tmp");
  std::vector<RunSpec> specs(3);
  specs[0].config = small_config(81);
  specs[0].config.faults.plan = "hang@250:attempts=1";
  specs[1].config = small_config(82);
  specs[1].config.faults.plan = "die@250:attempts=1";
  specs[2].config = small_config(83);  // clean

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 100.0;
  opts.watchdog_secs = 0.4;
  opts.retry_backoff_s = 0.0;
  opts.jobs = 3;
  const SweepManifest m = run_specs_supervised(specs, opts);
  EXPECT_EQ(m.completed(), 3);
  EXPECT_EQ(m.quarantined(), 0);
  EXPECT_EQ(m.interrupted(), 0);
  EXPECT_EQ(m.retried(), 2);
  EXPECT_EQ(m.specs[2].retries, 0);
}

TEST(Supervisor, InterruptedSweepResumesAndSkipsCompleted) {
  TempDir dir("supervisor_resume.tmp");
  std::vector<RunSpec> specs(2);
  specs[0].config = small_config(84);
  specs[1].config = small_config(85);

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 150.0;
  opts.stop_after_checkpoints = 1;
  SweepManifest m = run_specs_supervised(specs, opts);
  EXPECT_EQ(m.interrupted(), 2);
  EXPECT_TRUE(std::filesystem::exists(manifest_path(dir.path)));
  EXPECT_TRUE(
      std::filesystem::exists(checkpoint_container_path(dir.path)));

  opts.stop_after_checkpoints = 0;
  opts.resume = true;
  m = run_specs_supervised(specs, opts);
  ASSERT_EQ(m.completed(), 2);
  const RunResult first = m.specs[0].result;

  // A third invocation finds everything completed and reloads results
  // from the manifest bit-for-bit, without running anything.
  m = run_specs_supervised(specs, opts);
  EXPECT_EQ(m.completed(), 2);
  expect_identical(first, m.specs[0].result);
}

TEST(Supervisor, ResumeRejectsManifestFromDifferentSweep) {
  TempDir dir("supervisor_drift.tmp");
  std::vector<RunSpec> specs(1);
  specs[0].config = small_config(86);

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  run_specs_supervised(specs, opts);

  opts.resume = true;
  specs[0].config.protocol.alpha = 0.9;  // drifted parameters
  EXPECT_THROW(run_specs_supervised(specs, opts), std::runtime_error);
}

TEST(Supervisor, ManifestRoundTripsThroughDisk) {
  TempDir dir("supervisor_manifest.tmp");
  std::filesystem::create_directories(dir.path);
  SweepManifest m;
  m.specs.resize(4);
  m.specs[0].status = SpecStatus::kCompleted;
  m.specs[0].checkpoints = 7;
  m.specs[0].config_digest = 12345678901234567890ull;
  m.specs[0].result.delivery_ratio = 0.123456789012345;
  m.specs[0].result.mean_delay_s = -0.0;
  m.specs[0].result.fairness_jain = 4.9e-324;  // smallest subnormal
  m.specs[0].result.generated = 42;
  m.specs[0].result.events_executed = 99999;
  m.specs[0].registry.counter("mac.rts_sent")->inc(17);
  m.specs[0].registry.gauge("queue.fill")->set(0.1 + 0.2);
  m.specs[1].status = SpecStatus::kQuarantined;
  m.specs[1].retries = 3;
  m.specs[1].detail = "watchdog: no event progress for 0.4s wall";
  m.specs[2].status = SpecStatus::kInterrupted;
  m.specs[2].detail = "interrupted at t=450.0";
  m.specs[3].config_digest = 77;  // pending

  const std::string path = manifest_path(dir.path);
  write_manifest(path, m);
  SweepManifest loaded;
  ASSERT_TRUE(load_manifest(path, &loaded));
  ASSERT_EQ(loaded.specs.size(), 4u);
  EXPECT_EQ(loaded.specs[0].status, SpecStatus::kCompleted);
  EXPECT_EQ(loaded.specs[0].checkpoints, 7u);
  EXPECT_EQ(loaded.specs[0].config_digest, 12345678901234567890ull);
  EXPECT_TRUE(same_bits(loaded.specs[0].result.delivery_ratio,
                        0.123456789012345));
  EXPECT_TRUE(same_bits(loaded.specs[0].result.mean_delay_s, -0.0));
  EXPECT_TRUE(same_bits(loaded.specs[0].result.fairness_jain, 4.9e-324));
  EXPECT_EQ(loaded.specs[0].result.generated, 42u);
  EXPECT_EQ(loaded.specs[0].result.events_executed, 99999u);
  ASSERT_FALSE(loaded.specs[0].registry.empty());
  EXPECT_EQ(loaded.specs[0].registry.serialize(),
            m.specs[0].registry.serialize());
  EXPECT_EQ(loaded.specs[1].status, SpecStatus::kQuarantined);
  EXPECT_EQ(loaded.specs[1].retries, 3);
  EXPECT_EQ(loaded.specs[1].detail,
            "watchdog: no event progress for 0.4s wall");
  EXPECT_EQ(loaded.specs[2].status, SpecStatus::kInterrupted);
  EXPECT_EQ(loaded.specs[2].detail, "interrupted at t=450.0");
  EXPECT_EQ(loaded.specs[3].status, SpecStatus::kPending);
  EXPECT_EQ(loaded.specs[3].config_digest, 77u);
  EXPECT_TRUE(loaded.specs[3].registry.empty());

  SweepManifest missing;
  EXPECT_FALSE(load_manifest(dir.path + "/nope.dcc", &missing));
}

TEST(Supervisor, FlippedManifestRecordIsRepairedAndItsSpecsReRun) {
  TempDir dir("supervisor_manifest_flip.tmp");
  std::vector<RunSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i)
    specs[i].config = small_config(140 + i);
  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  ASSERT_EQ(run_specs_supervised(specs, opts).completed(), 3);
  const std::string path = manifest_path(dir.path);
  const std::vector<std::uint8_t> reference = snapshot::read_file(path);

  // Flip one byte inside spec 1's completed record (past its 32-byte
  // record header).
  const snapshot::ContainerScanResult scan = snapshot::container_scan(path);
  ASSERT_EQ(scan.entries.size(), 3u);
  std::vector<std::uint8_t> bytes = reference;
  bytes.at(scan.entries[1].offset + 40) ^= 0x5a;
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }

  std::ostringstream log;
  EXPECT_EQ(run_fsck(dir.path, log).exit_code(), 7) << log.str();
  // The repair cut from the damaged record on: spec 0 keeps its result,
  // specs 1 and 2 fall back to their scaffold records.
  SweepManifest cut;
  ASSERT_TRUE(load_manifest(path, &cut));
  ASSERT_EQ(cut.specs.size(), 3u);
  EXPECT_EQ(cut.specs[0].status, SpecStatus::kCompleted);
  EXPECT_EQ(cut.specs[1].status, SpecStatus::kPending);
  EXPECT_EQ(cut.specs[2].status, SpecStatus::kPending);

  opts.resume = true;
  ASSERT_EQ(run_specs_supervised(specs, opts).completed(), 3);
  EXPECT_EQ(snapshot::read_file(path), reference)
      << "a resume after the repair must rebuild the uninterrupted "
         "run's manifest byte for byte";
}

TEST(Supervisor, ResumeReRunsSpecsWhoseManifestRecordsWereCut) {
  // A damaged scaffold record leaves no older record to fall back to:
  // the recovery cuts it and everything after it, and those specs load
  // as pending with an unknown (0) config digest that --resume accepts.
  TempDir dir("supervisor_manifest_cut.tmp");
  std::filesystem::create_directories(dir.path);
  std::vector<RunSpec> specs(3);
  SweepManifest scaffold;
  scaffold.specs.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].config = small_config(160 + i);
    scaffold.specs[i].config_digest =
        config_digest(specs[i].config, specs[i].kind);
  }
  const std::string path = manifest_path(dir.path);
  write_manifest(path, scaffold);
  std::vector<std::uint8_t> bytes = snapshot::read_file(path);
  bytes.at(snapshot::container_scan(path).entries.at(1).offset + 40) ^= 0x5a;
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }

  SweepManifest cut;
  ASSERT_TRUE(load_manifest(path, &cut));
  ASSERT_EQ(cut.specs.size(), 3u);
  EXPECT_EQ(cut.specs[0].config_digest, scaffold.specs[0].config_digest);
  EXPECT_EQ(cut.specs[1].config_digest, 0u);
  EXPECT_EQ(cut.specs[2].status, SpecStatus::kPending);
  EXPECT_EQ(cut.specs[2].config_digest, 0u);

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.resume = true;
  EXPECT_EQ(run_specs_supervised(specs, opts).completed(), 3);
}

TEST(Supervisor, OlderBuildTextManifestIsRefusedByNameAndReportedStale) {
  TempDir dir("supervisor_manifest_legacy.tmp");
  std::vector<RunSpec> specs(1);
  specs[0].config = small_config(150);
  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  ASSERT_EQ(run_specs_supervised(specs, opts).completed(), 1);
  const std::string legacy = legacy_manifest_path(dir.path);
  std::ofstream(legacy) << "dftmsn-manifest v4\nspecs 1\n";

  opts.resume = true;
  try {
    run_specs_supervised(specs, opts);
    ADD_FAILURE() << "resume accepted a directory holding " << legacy;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(legacy), std::string::npos)
        << e.what();
  }

  std::ostringstream log;
  const FsckReport rep = run_fsck(dir.path, log);
  EXPECT_EQ(rep.exit_code(), 2) << log.str();
  bool reported = false;
  for (const FsckFinding& f : rep.findings)
    if (f.path == legacy) {
      reported = true;
      EXPECT_EQ(f.classification, "stale");
      EXPECT_FALSE(f.repaired);
    }
  EXPECT_TRUE(reported) << log.str();
  EXPECT_TRUE(std::filesystem::exists(legacy))
      << "fsck must never delete a manifest";
}

TEST(Supervisor, SweepAggregationSkipsQuarantinedPoints) {
  TempDir dir("supervisor_sweep.tmp");
  std::vector<SweepPoint> points(2);
  points[0].config = small_config(90);
  points[1].config = small_config(90);
  points[1].config.faults.plan = "die@200";  // every replication dies

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.max_retries = 0;
  opts.retry_backoff_s = 0.0;
  const SupervisedSweep sweep = run_sweep_supervised(points, 2, opts);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.manifest.completed(), 2);
  EXPECT_EQ(sweep.manifest.quarantined(), 2);
  EXPECT_EQ(sweep.points[0].replications, 2);
  EXPECT_EQ(sweep.points[1].replications, 0);  // nothing to aggregate
}

TEST(Supervisor, ExternalStopMarksSpecsInterrupted) {
  TempDir dir("supervisor_stop.tmp");
  std::vector<RunSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i)
    specs[i].config = small_config(95 + i);

  std::atomic<bool> stop{true};  // raised before anything starts
  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.stop = &stop;
  const SweepManifest m = run_specs_supervised(specs, opts);
  EXPECT_EQ(m.completed(), 0);
  EXPECT_EQ(m.interrupted(), 3);
}

TEST(Supervisor, FsckDeletesWorkerFilesFromOlderBuilds) {
  // Builds before worker protocol v4 left spec_N.req/.result/.progress
  // files in the checkpoint dir, and builds before manifest format v5 a
  // dispatch.leases journal; nothing reads them any more.
  TempDir dir("supervisor_fsck_leftovers.tmp");
  std::filesystem::create_directories(dir.path);
  for (const char* name : {"spec_0.req", "spec_0.result", "spec_0.progress",
                           "dispatch.leases"})
    std::ofstream(dir.path + "/" + name) << "stale";

  std::ostringstream log;
  const FsckReport rep = run_fsck(dir.path, log);
  EXPECT_EQ(rep.exit_code(), 7) << log.str();
  ASSERT_EQ(rep.findings.size(), 4u) << log.str();
  for (const FsckFinding& f : rep.findings) {
    EXPECT_EQ(f.classification, "leftover") << f.path;
    EXPECT_TRUE(f.repaired) << f.path;
    EXPECT_FALSE(std::filesystem::exists(f.path)) << f.path;
  }
  EXPECT_EQ(run_fsck(dir.path, log).exit_code(), 0) << log.str();
}

}  // namespace
}  // namespace dftmsn
