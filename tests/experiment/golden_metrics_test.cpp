// Golden-metrics regression pin: the paper-preset headline numbers at a
// fixed seed, recorded once and asserted exactly ever since. A failure
// here does not necessarily mean "wrong" — it means the reproduction
// DRIFTED: some change altered simulated behavior (event order, RNG
// consumption, FP reduction order) and the committed baselines in
// EXPERIMENTS.md no longer describe what the code computes. Update the
// constants only after deliberately re-validating the figures.
//
// Integer counters are pinned exactly. Derived doubles are pinned to a
// 1e-12 relative tolerance so an IEEE-conformant compiler change cannot
// fire it spuriously while any behavioral change still will.
#include <gtest/gtest.h>

#include <cmath>

#include "experiment/presets.hpp"
#include "experiment/runner.hpp"

namespace dftmsn {
namespace {

constexpr double kRelTol = 1e-12;

void expect_rel(double actual, double golden, const char* what) {
  EXPECT_NEAR(actual, golden, std::abs(golden) * kRelTol + 1e-15) << what;
}

TEST(GoldenMetrics, PaperPresetOptSeed42) {
  Config c = *scenario_preset("paper");
  c.scenario.seed = 42;
  const RunResult r = run_once(c, ProtocolKind::kOpt);

  // --- golden values: paper preset (100 sensors, 3 sinks, 25 000 s),
  // --- OPT protocol, seed 42. Re-pinned 2026-10-17 for the SplitMix64
  // --- RandomStream (checkpoint format v4).
  EXPECT_EQ(r.generated, 20726u);
  EXPECT_EQ(r.delivered, 20131u);
  EXPECT_EQ(r.collisions, 19374u);
  EXPECT_EQ(r.attempts, 961202u);
  EXPECT_EQ(r.failed_attempts, 721906u);
  EXPECT_EQ(r.data_transmissions, 146615u);
  EXPECT_EQ(r.drops_overflow, 3146u);
  EXPECT_EQ(r.drops_threshold, 14940u);
  EXPECT_EQ(r.events_executed, 7895072u);

  expect_rel(r.delivery_ratio, 0.971292096883142, "delivery_ratio");
  expect_rel(r.mean_power_mw, 0.96532121834308626, "mean_power_mw");
  expect_rel(r.mean_delay_s, 674.85075823308819, "mean_delay_s");
  expect_rel(r.mean_hops, 1.7445730465451295, "mean_hops");
  expect_rel(r.overhead_bits_per_delivery, 12314.249167949927,
             "overhead_bits_per_delivery");
}

TEST(GoldenMetrics, PaperPresetZbrSeed42) {
  // A second pin on the comparison protocol guards the baselines the
  // paper's relative claims are judged against.
  Config c = *scenario_preset("paper");
  c.scenario.seed = 42;
  const RunResult r = run_once(c, ProtocolKind::kZbr);

  EXPECT_EQ(r.generated, 20726u);
  EXPECT_EQ(r.delivered, 11651u);
  EXPECT_EQ(r.collisions, 50403u);
  EXPECT_EQ(r.drops_overflow, 8057u);
  EXPECT_EQ(r.events_executed, 13526285u);
  expect_rel(r.delivery_ratio, 0.56214416674708101, "delivery_ratio");
  expect_rel(r.mean_power_mw, 2.1821590873947327, "mean_power_mw");
  expect_rel(r.mean_delay_s, 2273.3478941373655, "mean_delay_s");
  expect_rel(r.overhead_bits_per_delivery, 30453.094155008155,
             "overhead_bits_per_delivery");
}

}  // namespace
}  // namespace dftmsn
