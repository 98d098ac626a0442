#include "experiment/runner.hpp"

#include <cstdlib>
#include <string>

#include "common/thread_pool.hpp"
#include "experiment/world.hpp"

namespace dftmsn {

// The six doubles go first as bit patterns, then the counters, in
// RunResult declaration order.
void save_run_result(const RunResult& r, snapshot::Writer& w) {
  w.begin_section("run_result");
  w.f64(r.delivery_ratio);
  w.f64(r.mean_power_mw);
  w.f64(r.mean_delay_s);
  w.f64(r.mean_hops);
  w.f64(r.overhead_bits_per_delivery);
  w.f64(r.fairness_jain);
  w.u64(r.generated);
  w.u64(r.delivered);
  w.u64(r.collisions);
  w.u64(r.attempts);
  w.u64(r.failed_attempts);
  w.u64(r.data_transmissions);
  w.u64(r.drops_overflow);
  w.u64(r.drops_threshold);
  w.u64(r.drops_delivered);
  w.u64(r.events_executed);
  w.u64(r.faults_injected);
  w.u64(r.drops_node_failure);
  w.u64(r.frames_fault_corrupted);
  w.u64(r.invariant_sweeps);
  w.end_section();
}

void load_run_result(RunResult& r, snapshot::Reader& rd) {
  rd.begin_section("run_result");
  r.delivery_ratio = rd.f64();
  r.mean_power_mw = rd.f64();
  r.mean_delay_s = rd.f64();
  r.mean_hops = rd.f64();
  r.overhead_bits_per_delivery = rd.f64();
  r.fairness_jain = rd.f64();
  r.generated = rd.u64();
  r.delivered = rd.u64();
  r.collisions = rd.u64();
  r.attempts = rd.u64();
  r.failed_attempts = rd.u64();
  r.data_transmissions = rd.u64();
  r.drops_overflow = rd.u64();
  r.drops_threshold = rd.u64();
  r.drops_delivered = rd.u64();
  r.events_executed = rd.u64();
  r.faults_injected = rd.u64();
  r.drops_node_failure = rd.u64();
  r.frames_fault_corrupted = rd.u64();
  r.invariant_sweeps = rd.u64();
  rd.end_section();
}

RunResult run_once(const Config& config, ProtocolKind kind,
                   RunTelemetry* telemetry_out) {
  World world(config, kind);
  world.run();
  if (telemetry_out) {
    if (const telemetry::Registry* reg = world.registry())
      telemetry_out->registry.merge(*reg);
    if (const telemetry::Profiler* prof = world.profiler())
      telemetry_out->profile.merge(*prof);
  }
  return reduce_world(world);
}

RunResult reduce_world(const World& world) {
  const Metrics& m = world.metrics();
  const Channel::Counters& ch = world.channel().counters();

  RunResult r;
  r.delivery_ratio = m.delivery_ratio();
  r.mean_power_mw = world.mean_sensor_power_mw();
  r.mean_delay_s = m.mean_delay_s();
  r.mean_hops = m.mean_hops();
  r.generated = m.generated();
  r.delivered = m.delivered_unique();
  r.collisions = ch.collisions;
  r.attempts = m.attempts();
  r.failed_attempts = m.failed_attempts();
  r.data_transmissions = m.data_transmissions();
  r.fairness_jain = m.jain_fairness_index();
  r.drops_overflow = m.drops(DropReason::kOverflow);
  r.drops_threshold = m.drops(DropReason::kFtdThreshold);
  r.drops_delivered = m.drops(DropReason::kDelivered);
  r.events_executed = world.sim().events_executed();
  r.drops_node_failure = m.drops(DropReason::kNodeFailure);
  r.frames_fault_corrupted = ch.faults_corrupted;
  if (const FaultInjector* inj = world.fault_injector()) {
    const FaultInjector::Counters& fc = inj->counters();
    r.faults_injected = fc.crashes + fc.outages + fc.recoveries +
                        fc.loss_bursts + fc.pressure_events;
  }
  if (const InvariantChecker* chk = world.invariant_checker())
    r.invariant_sweeps = chk->sweeps_run();
  if (m.delivered_unique() > 0) {
    r.overhead_bits_per_delivery =
        static_cast<double>(ch.data_bits_sent + ch.control_bits_sent) /
        static_cast<double>(m.delivered_unique());
  }
  return r;
}

std::vector<RunResult> run_specs(const std::vector<RunSpec>& specs,
                                 int jobs,
                                 std::vector<RunTelemetry>* telemetry_out) {
  std::vector<RunResult> results(specs.size());
  if (telemetry_out) {
    telemetry_out->clear();
    telemetry_out->resize(specs.size());
  }
  parallel_for(specs.size(), resolve_jobs(jobs), [&](std::size_t i) {
    results[i] = run_once(specs[i].config, specs[i].kind,
                          telemetry_out ? &(*telemetry_out)[i] : nullptr);
  });
  return results;
}

ReplicatedResult reduce_results(const std::vector<RunResult>& runs) {
  ReplicatedResult out;
  out.replications = static_cast<int>(runs.size());
  for (const RunResult& r : runs) {
    out.delivery_ratio.add(r.delivery_ratio);
    out.mean_power_mw.add(r.mean_power_mw);
    out.mean_delay_s.add(r.mean_delay_s);
    out.overhead_bits_per_delivery.add(r.overhead_bits_per_delivery);
    out.collisions.add(static_cast<double>(r.collisions));
    out.fairness_jain.add(r.fairness_jain);
  }
  return out;
}

ReplicatedResult run_replicated(Config config, ProtocolKind kind,
                                int replications, int jobs) {
  std::vector<SweepPoint> point(1);
  point[0].config = std::move(config);
  point[0].kind = kind;
  return run_sweep(point, replications, jobs).front();
}

std::vector<ReplicatedResult> run_sweep(
    const std::vector<SweepPoint>& points, int replications, int jobs,
    std::vector<std::vector<RunResult>>* raw) {
  if (replications < 0) replications = 0;

  // Flatten the (point × replication) grid into one batch so the pool
  // stays saturated even when a single point has few replications.
  std::vector<RunSpec> specs;
  specs.reserve(points.size() * static_cast<std::size_t>(replications));
  for (const SweepPoint& p : points) {
    const std::uint64_t base_seed = p.config.scenario.seed;
    for (int rep = 0; rep < replications; ++rep) {
      RunSpec s = p;
      s.config.scenario.seed = base_seed + static_cast<std::uint64_t>(rep);
      specs.push_back(std::move(s));
    }
  }

  const std::vector<RunResult> flat = run_specs(specs, jobs);

  std::vector<ReplicatedResult> out;
  out.reserve(points.size());
  if (raw) {
    raw->clear();
    raw->reserve(points.size());
  }
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const auto first = flat.begin() +
        static_cast<std::ptrdiff_t>(pi * static_cast<std::size_t>(replications));
    std::vector<RunResult> runs(first, first + replications);
    out.push_back(reduce_results(runs));
    if (raw) raw->push_back(std::move(runs));
  }
  return out;
}

BenchBudget bench_budget_from_env() {
  BenchBudget b;
  if (const char* reps = std::getenv("DFTMSN_BENCH_REPS")) {
    const int v = std::atoi(reps);
    if (v > 0) b.replications = v;
  }
  if (const char* dur = std::getenv("DFTMSN_BENCH_DURATION")) {
    const double v = std::atof(dur);
    if (v > 0) b.duration_s = v;
  }
  if (const char* jobs = std::getenv("DFTMSN_BENCH_JOBS")) {
    b.jobs = std::atoi(jobs);  // <= 0 keeps the auto default
  }
  return b;
}

}  // namespace dftmsn
