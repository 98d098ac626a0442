// Scheduler/index bit-identity gate (label: tier1-perf). The calendar
// queue and the spatial index are pure performance substitutions — this
// suite is the regression trap that keeps them that way:
//   * a golden trajectory pin (exact integers, bitwise doubles) that any
//     reordering of the event schedule or neighbourhood results breaks,
//   * run_specs at jobs 1 vs 4 compared field-for-field bitwise,
//   * the supervised sweep manifest, byte-compared across jobs 1 vs 4.
// The CLI-level --report-json byte-compare rides in scripts/
// report_identity.sh (ctest: cli_report_identity, same perf label).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/supervisor.hpp"

namespace dftmsn {
namespace {

Config pin_config(std::uint64_t seed) {
  Config c;
  c.scenario.num_sensors = 25;
  c.scenario.num_sinks = 2;
  c.scenario.field_m = 150.0;
  c.scenario.duration_s = 2000.0;
  c.scenario.warmup_s = 100.0;
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
  EXPECT_TRUE(same_bits(a.mean_hops, b.mean_hops));
  EXPECT_TRUE(same_bits(a.overhead_bits_per_delivery,
                        b.overhead_bits_per_delivery));
  EXPECT_TRUE(same_bits(a.fairness_jain, b.fairness_jain));
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.failed_attempts, b.failed_attempts);
  EXPECT_EQ(a.data_transmissions, b.data_transmissions);
  EXPECT_EQ(a.drops_overflow, b.drops_overflow);
  EXPECT_EQ(a.drops_threshold, b.drops_threshold);
  EXPECT_EQ(a.drops_delivered, b.drops_delivered);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.drops_node_failure, b.drops_node_failure);
  EXPECT_EQ(a.frames_fault_corrupted, b.frames_fault_corrupted);
}

// ---------------------------------------------------------------------------
// Golden pin: exact counters of one small OPT run. These integers encode
// the entire event ordering — a scheduler that pops two same-time events
// in a different order, or a spatial index that returns one extra/missing
// neighbor, lands here as a hard failure, in seconds rather than the
// minutes of the full golden_metrics suite.

TEST(PerfIdentity, GoldenTrajectoryPin) {
  const RunResult r = run_once(pin_config(4242), ProtocolKind::kOpt);
  EXPECT_EQ(r.generated, 399u);
  EXPECT_EQ(r.delivered, 169u);
  EXPECT_EQ(r.collisions, 64u);
  EXPECT_EQ(r.attempts, 12676u);
  EXPECT_EQ(r.failed_attempts, 11215u);
  EXPECT_EQ(r.data_transmissions, 951u);
  EXPECT_EQ(r.drops_overflow, 0u);
  EXPECT_EQ(r.drops_threshold, 59u);
  EXPECT_EQ(r.drops_delivered, 169u);
  EXPECT_EQ(r.events_executed, 65860u);
}

// ---------------------------------------------------------------------------
// run_specs: jobs must never leak into results.

TEST(PerfIdentity, RunSpecsBitIdenticalAcrossJobs) {
  std::vector<RunSpec> specs;
  for (std::uint64_t seed : {7u, 8u, 9u, 10u}) {
    RunSpec s;
    s.config = pin_config(seed);
    s.config.scenario.duration_s = 800.0;
    s.kind = (seed % 2 == 0) ? ProtocolKind::kOpt : ProtocolKind::kDirect;
    specs.push_back(s);
  }
  const std::vector<RunResult> serial = run_specs(specs, 1);
  const std::vector<RunResult> parallel = run_specs(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    expect_identical(serial[i], parallel[i]);
}

// ---------------------------------------------------------------------------
// Supervised manifest: the on-disk record of a sweep must be byte-equal
// whatever the worker count.

struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(PerfIdentity, SupervisedManifestBytesIdenticalAcrossJobs) {
  std::vector<RunSpec> specs;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    RunSpec s;
    s.config = pin_config(seed);
    s.config.scenario.duration_s = 600.0;
    s.kind = ProtocolKind::kOpt;
    specs.push_back(s);
  }

  std::string bytes[2];
  const int jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    TempDir dir("perf_identity_manifest_j" + std::to_string(jobs[i]) + ".tmp");
    SupervisorOptions opts;
    opts.checkpoint_dir = dir.path;
    opts.jobs = jobs[i];
    const SweepManifest manifest = run_specs_supervised(specs, opts);
    ASSERT_EQ(manifest.completed(), 3);
    bytes[i] = read_file(manifest_path(dir.path));
    ASSERT_FALSE(bytes[i].empty());
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

}  // namespace
}  // namespace dftmsn
