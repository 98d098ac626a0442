// Streaming-aggregation property suite: run_sweep_supervised folds each
// accepted RunResult into its point incrementally, so the aggregate must
// equal the whole-sweep reduce_results fold bit for bit — for every
// protocol variant and at jobs 1 vs 4 — while the streaming core's
// reorder buffer stays O(in-flight), never O(specs).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/supervisor.hpp"
#include "snapshot/ckpt_container.hpp"
#include "stats/summary.hpp"

namespace dftmsn {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

Config small_config(std::uint64_t seed) {
  Config c;
  c.scenario.num_sensors = 6;
  c.scenario.num_sinks = 1;
  c.scenario.field_m = 100.0;
  c.scenario.duration_s = 150.0;
  c.scenario.speed_max_mps = 4.0;
  c.scenario.seed = seed;
  return c;
}

/// Bit-level double equality: the determinism contract is about the
/// representation, not a tolerance.
bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

void expect_summary_bits(const Summary& a, const Summary& b,
                         const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_TRUE(same_bits(a.mean(), b.mean())) << what << " mean";
  EXPECT_TRUE(same_bits(a.ci95_half_width(), b.ci95_half_width()))
      << what << " ci95";
  EXPECT_TRUE(same_bits(a.min(), b.min())) << what << " min";
  EXPECT_TRUE(same_bits(a.max(), b.max())) << what << " max";
}

void expect_point_bits(const ReplicatedResult& a, const ReplicatedResult& b) {
  EXPECT_EQ(a.replications, b.replications);
  expect_summary_bits(a.delivery_ratio, b.delivery_ratio, "delivery_ratio");
  expect_summary_bits(a.mean_power_mw, b.mean_power_mw, "mean_power_mw");
  expect_summary_bits(a.mean_delay_s, b.mean_delay_s, "mean_delay_s");
  expect_summary_bits(a.overhead_bits_per_delivery,
                      b.overhead_bits_per_delivery, "overhead");
  expect_summary_bits(a.collisions, b.collisions, "collisions");
  expect_summary_bits(a.fairness_jain, b.fairness_jain, "fairness_jain");
}

TEST(StreamingAggregation, IncrementalFoldMatchesWholeSweepEveryProtocol) {
  const ProtocolKind kinds[] = {ProtocolKind::kOpt,     ProtocolKind::kNoOpt,
                                ProtocolKind::kNoSleep, ProtocolKind::kZbr,
                                ProtocolKind::kDirect,
                                ProtocolKind::kEpidemic};
  for (const ProtocolKind kind : kinds) {
    SCOPED_TRACE(protocol_kind_name(kind));
    std::vector<SweepPoint> points(2);
    points[0].config = small_config(60);
    points[0].kind = kind;
    points[1].config = small_config(75);
    points[1].config.scenario.num_sensors = 8;
    points[1].kind = kind;

    SupervisorOptions o1;
    o1.jobs = 1;
    const SupervisedSweep s1 = run_sweep_supervised(points, 3, o1);
    SupervisorOptions o4;
    o4.jobs = 4;
    const SupervisedSweep s4 = run_sweep_supervised(points, 3, o4);

    ASSERT_EQ(s1.points.size(), points.size());
    ASSERT_EQ(s4.points.size(), points.size());
    ASSERT_EQ(s1.manifest.completed(), 6);

    for (std::size_t p = 0; p < points.size(); ++p) {
      SCOPED_TRACE("point " + std::to_string(p));
      // The incremental fold must agree with a from-scratch fold over
      // the whole point's completed results, and across jobs values.
      std::vector<RunResult> batch;
      for (std::size_t r = 0; r < 3; ++r)
        batch.push_back(s1.manifest.specs[p * 3 + r].result);
      const ReplicatedResult whole = reduce_results(batch);
      expect_point_bits(s1.points[p], whole);
      expect_point_bits(s4.points[p], s1.points[p]);
    }
  }
}

TEST(StreamingAggregation, SinkSeesStrictIndexOrderExactlyOnce) {
  std::vector<RunSpec> specs(8);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].config = small_config(80 + i);
    specs[i].kind = ProtocolKind::kDirect;
  }

  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    SupervisorOptions opts;
    opts.jobs = jobs;
    std::vector<std::size_t> seen;
    const StreamStats stats = run_specs_streamed(
        specs, opts, [&](std::size_t i, SpecRecord&& rec) {
          seen.push_back(i);
          EXPECT_EQ(rec.status, SpecStatus::kCompleted);
        });
    ASSERT_EQ(seen.size(), specs.size());
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
    EXPECT_GE(stats.peak_buffered, 1u);
    EXPECT_LE(stats.peak_buffered, specs.size());
    if (jobs == 1) {
      EXPECT_EQ(stats.peak_buffered, 1u)
          << "a serial sweep must never retain more than the record in "
             "flight — streaming is the memory contract";
    }
  }
}

TEST(StreamingAggregation, StreamedManifestEqualsCollectedManifest) {
  // The streamed (scaffold + one container put per record) file must
  // load back to exactly what the collecting wrapper returned, and the
  // container repair of an already-clean manifest must be a no-op.
  TempDir dir("stream_manifest.tmp");
  std::vector<RunSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].config = small_config(90 + i);
    specs[i].kind = ProtocolKind::kDirect;
  }
  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.jobs = 2;
  const SweepManifest manifest = run_specs_supervised(specs, opts);
  ASSERT_EQ(manifest.completed(), 3);

  SweepManifest loaded;
  ASSERT_TRUE(load_manifest(manifest_path(dir.path), &loaded));
  ASSERT_EQ(loaded.specs.size(), manifest.specs.size());
  for (std::size_t i = 0; i < loaded.specs.size(); ++i) {
    EXPECT_EQ(loaded.specs[i].status, manifest.specs[i].status);
    EXPECT_EQ(loaded.specs[i].retries, manifest.specs[i].retries);
    EXPECT_EQ(loaded.specs[i].config_digest, manifest.specs[i].config_digest);
    EXPECT_TRUE(same_bits(loaded.specs[i].result.delivery_ratio,
                          manifest.specs[i].result.delivery_ratio));
    EXPECT_EQ(loaded.specs[i].result.delivered,
              manifest.specs[i].result.delivered);
  }

  EXPECT_FALSE(snapshot::container_repair(manifest_path(dir.path)))
      << "repair of a clean manifest must not cut";
}

}  // namespace
}  // namespace dftmsn
