// Runs configured scenarios and reduces them to the paper's metrics,
// with replication over seeds — serially or across a worker-thread pool.
//
// Determinism contract: every run is a pure function of its (config,
// protocol) pair — replication r always runs with seed base_seed + r and
// World shares no mutable state between instances — and all reductions
// happen on the calling thread in input-index order. Aggregates are
// therefore bit-identical for every jobs value, including jobs=1.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "protocol/mac_common.hpp"
#include "stats/summary.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/registry.hpp"

namespace dftmsn {

/// Headline metrics of one finished run.
struct RunResult {
  double delivery_ratio = 0.0;       ///< Fig. 2(a)
  double mean_power_mw = 0.0;        ///< Fig. 2(b): avg nodal power rate
  double mean_delay_s = 0.0;         ///< Fig. 2(c): avg delivery delay
  double mean_hops = 0.0;
  double overhead_bits_per_delivery = 0.0;  ///< all bits sent / delivered msg
  /// Jain index over per-source delivery ratios (0 = no data, 1 = fair).
  double fairness_jain = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t collisions = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failed_attempts = 0;
  std::uint64_t data_transmissions = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_threshold = 0;
  std::uint64_t drops_delivered = 0;  ///< copies retired because FTD hit 1
  std::uint64_t events_executed = 0;
  // Fault-injection diagnostics (all zero when no plan is configured;
  // deterministic, so they participate in cross-jobs equality checks).
  std::uint64_t faults_injected = 0;   ///< crashes+outages+recoveries+bursts+clamps
  std::uint64_t drops_node_failure = 0;
  std::uint64_t frames_fault_corrupted = 0;
  std::uint64_t invariant_sweeps = 0;  ///< full checker sweeps that passed
};

/// Bit-exact binary form of a RunResult (one "run_result" section): how
/// a result crosses a worker link and how the sweep manifest stores it.
void save_run_result(const RunResult& r, snapshot::Writer& w);
void load_run_result(RunResult& r, snapshot::Reader& rd);

/// Mean ± CI over replicated runs.
struct ReplicatedResult {
  Summary delivery_ratio;
  Summary mean_power_mw;
  Summary mean_delay_s;
  Summary overhead_bits_per_delivery;
  Summary collisions;
  Summary fairness_jain;
  int replications = 0;
};

/// Telemetry captured from one run (or merged over many, in input
/// order): the instrument registry and — when profiling was on — the
/// wall-clock subsystem timings. Runs with telemetry disabled contribute
/// nothing (the registry stays empty).
struct RunTelemetry {
  telemetry::Registry registry;
  telemetry::Profiler profile;
};

/// Builds a World from `config`, runs it to the horizon, reduces metrics.
/// When `telemetry_out` is non-null the world's registry/profiler content
/// is merged into it before the world is torn down.
RunResult run_once(const Config& config, ProtocolKind kind,
                   RunTelemetry* telemetry_out = nullptr);

/// Reduces an already-run World to the headline metrics (the tail half of
/// run_once; the supervisor reuses it on worlds it drove — and possibly
/// resumed — itself).
class World;
RunResult reduce_world(const World& world);

/// Folds per-replication results into mean ± CI, in input order.
ReplicatedResult reduce_results(const std::vector<RunResult>& runs);

/// One independent simulation in a batch: a fully-specified scenario
/// (seed included in config.scenario.seed) and a protocol variant.
struct RunSpec {
  Config config;
  ProtocolKind kind = ProtocolKind::kOpt;
};

/// Runs every spec across up to `jobs` worker threads (jobs <= 1: serial
/// on the calling thread; jobs <= 0: one per hardware thread). Results
/// come back in input order, independent of scheduling. When
/// `telemetry_out` is non-null it is resized to specs.size() and slot i
/// receives spec i's telemetry — each worker writes only its own slot, so
/// the capture is race-free and, like the results, independent of jobs.
std::vector<RunResult> run_specs(const std::vector<RunSpec>& specs,
                                 int jobs = 1,
                                 std::vector<RunTelemetry>* telemetry_out =
                                     nullptr);

/// Expands `replications` seeds (config.scenario.seed + r for replication
/// r — never a function of thread count or finish order), runs them via
/// run_specs, and folds the results in replication order.
ReplicatedResult run_replicated(Config config, ProtocolKind kind,
                                int replications, int jobs = 1);

/// A grid point of a parameter sweep: the scenario at that point plus the
/// protocol to run it under (seed taken as the point's base seed).
using SweepPoint = RunSpec;

/// Replicates every grid point `replications` times and schedules the
/// whole (point × replication) batch over one shared pool, so narrow
/// grids still saturate the machine. out[i] aggregates points[i]'s
/// replications in seed order; optionally exposes each point's raw
/// per-replication RunResults via `raw` (indexed [point][replication]).
std::vector<ReplicatedResult> run_sweep(
    const std::vector<SweepPoint>& points, int replications, int jobs = 1,
    std::vector<std::vector<RunResult>>* raw = nullptr);

/// Benchmark knobs shared by the bench/ binaries, overridable from the
/// environment so the full harness can be dialed down for smoke runs:
///   DFTMSN_BENCH_REPS      (default 3)  replications per point
///   DFTMSN_BENCH_DURATION  (default 25000) seconds of simulated time
///   DFTMSN_BENCH_JOBS      (default 0 = one per hardware thread)
///                          worker threads for replicated runs/sweeps
struct BenchBudget {
  int replications = 3;
  double duration_s = 25'000.0;
  int jobs = 0;  ///< <= 0: auto (hardware concurrency)
};
BenchBudget bench_budget_from_env();

}  // namespace dftmsn
