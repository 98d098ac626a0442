// SCHED-SCALE: scheduler + channel scale trajectory.
//
// Runs the paper scenario at constant node density for n = 100 / 1k /
// 10k / 100k sensors and reports wall-clock events/sec plus memory: the
// resident bytes World construction adds per node and the process peak
// (VmHWM) after each point. Format: docs/performance.md.
//
// Usage: scheduler_scale [--out FILE] [--max-n N] [--check]
//   --out FILE   JSON output path (default: no JSON, stdout table only)
//   --max-n N    largest population to run (default 100000)
//   --check      exit 1 when the build delta at the largest n exceeds
//                kBuildKbPerNodeBudget KB/node. A per-node byte count
//                does not depend on the host's speed, so the gate holds
//                on any runner.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "experiment/world.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Resident bytes World construction may add per node (sensors + sinks).
constexpr double kBuildKbPerNodeBudget = 5.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Point {
  int n = 0;
  double sim_duration_s = 0.0;
  std::uint64_t events = 0;
  double build_wall_s = 0.0;
  double run_wall_s = 0.0;
  double events_per_sec = 0.0;
  double build_kb_per_node = 0.0;  ///< VmRSS growth across World()
  long peak_rss_kb = 0;            ///< VmHWM after the point
};

/// A /proc/self/status field in KB (VmRSS, VmHWM); -1 if unavailable.
long status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  const std::string key = field + ":";
  for (std::string line; std::getline(in, line);)
    if (line.rfind(key, 0) == 0) return std::stol(line.substr(key.size()));
  return -1;
}

Point run_point(int n, double sim_duration_s) {
  using namespace dftmsn;
  Config c;
  // Constant density: the paper's 100 sensors / (150 m)^2 field, scaled.
  const double scale = std::sqrt(n / 100.0);
  c.scenario.num_sensors = n;
  c.scenario.num_sinks = std::max(1, (3 * n) / 100);
  c.scenario.field_m = 150.0 * scale;
  c.scenario.duration_s = sim_duration_s;
  c.scenario.seed = 42;

  Point p;
  p.n = n;
  p.sim_duration_s = sim_duration_s;

  // Points run in ascending n, so pages the allocator kept from the
  // previous, smaller world can only understate the delta slightly.
  const long rss0 = status_kb("VmRSS");
  const auto t0 = Clock::now();
  World world(c, ProtocolKind::kOpt);
  p.build_wall_s = seconds_since(t0);
  const long rss1 = status_kb("VmRSS");
  p.build_kb_per_node =
      rss0 < 0 || rss1 < 0
          ? -1.0
          : static_cast<double>(rss1 - rss0) /
                (c.scenario.num_sensors + c.scenario.num_sinks);

  const auto t1 = Clock::now();
  world.run();
  p.run_wall_s = seconds_since(t1);

  p.events = world.sim().events_executed();
  p.events_per_sec =
      p.run_wall_s > 0 ? static_cast<double>(p.events) / p.run_wall_s : 0.0;
  p.peak_rss_kb = status_kb("VmHWM");
  return p;
}

void write_json(const std::string& path, const std::vector<Point>& points) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"scheduler_scale\",\n  \"protocol\": \"OPT\",\n"
      << "  \"seed\": 42,\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "    {\"n\": " << p.n << ", \"sim_duration_s\": " << p.sim_duration_s
        << ", \"events\": " << p.events << ", \"build_wall_s\": "
        << p.build_wall_s << ", \"run_wall_s\": " << p.run_wall_s
        << ", \"events_per_sec\": " << static_cast<std::uint64_t>(p.events_per_sec)
        << ", \"build_kb_per_node\": " << p.build_kb_per_node
        << ", \"peak_rss_kb\": " << p.peak_rss_kb << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  int max_n = 100'000;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--max-n" && i + 1 < argc) {
      max_n = std::stoi(argv[++i]);
    } else if (arg == "--check") {
      check = true;
    } else {
      std::cerr
          << "usage: scheduler_scale [--out FILE] [--max-n N] [--check]\n";
      return 2;
    }
  }

  // Sim horizons chosen so each point executes a few hundred thousand to a
  // few million events: enough to amortize startup, bounded wall-clock.
  const std::vector<std::pair<int, double>> schedule = {
      {100, 1000.0}, {1000, 200.0}, {10'000, 50.0}, {100'000, 10.0}};

  std::vector<Point> points;
  std::cout << "SCHED-SCALE: events/sec at constant density (OPT, seed 42)\n";
  std::cout << "       n     sim_s        events   build_s     run_s    events/s"
               "  KB/node  peak_MB\n";
  for (const auto& [n, dur] : schedule) {
    if (n > max_n) continue;
    const Point p = run_point(n, dur);
    points.push_back(p);
    std::printf("%8d  %8.0f  %12llu  %8.2f  %8.2f  %10.0f  %7.2f  %7.1f\n",
                p.n, p.sim_duration_s,
                static_cast<unsigned long long>(p.events), p.build_wall_s,
                p.run_wall_s, p.events_per_sec, p.build_kb_per_node,
                static_cast<double>(p.peak_rss_kb) / 1024.0);
  }
  if (!out_path.empty()) write_json(out_path, points);

  if (check && !points.empty()) {
    const Point& largest = points.back();
    if (largest.build_kb_per_node < 0) {
      std::cerr << "scheduler_scale --check: /proc/self/status unavailable\n";
      return 1;
    }
    if (largest.build_kb_per_node > kBuildKbPerNodeBudget) {
      std::cerr << "scheduler_scale --check: " << largest.build_kb_per_node
                << " KB/node at n=" << largest.n << " exceeds the "
                << kBuildKbPerNodeBudget << " KB/node budget\n";
      return 1;
    }
  }
  return 0;
}
