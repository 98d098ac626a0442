// Layer probe for the sweep benchmark: times calls into each layer's
// public functions from outside the library and prints one JSON object
// per line. Lines with a "span" key are timed calls (microseconds on the
// probe's steady clock); the last line holds the mode's result.
//
//   perfbench_probe setup    --protocols P[,P...] --reps R --repeat K [key=value ...]
//   perfbench_probe layers   --protocols P[,P...] --reps R [key=value ...]
//   perfbench_probe snapshot --dir D --puts M [key=value ...]
//
// `setup` builds the workload's worlds (every protocol x R replication
// seeds) K times and reports each pass's summed World-constructor time.
// `layers` builds the same worlds once, runs each to the configured
// duration, and reports the constructor and run_until costs, the events
// executed and the RandomSource::stream cost.
// `snapshot` runs one OPT world to the first checkpoint time (100 sim-s),
// then times serialize_state, make_checkpoint, four concurrent
// container_put callers into one container under D (M puts each), and
// resume_world of the image.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/config_io.hpp"
#include "experiment/presets.hpp"
#include "experiment/world.hpp"
#include "protocol/protocol_factory.hpp"
#include "sim/random.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"

using namespace dftmsn;
using Clock = std::chrono::steady_clock;

namespace {

const Clock::time_point g_t0 = Clock::now();

// The snapshot mode mirrors durable-sweep: its first checkpoint is taken at
// 100 sim-s, and its four jobs put into one container.
constexpr double kCheckpointAtS = 100.0;
constexpr int kPutters = 4;

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_t0)
      .count();
}

/// One timed call; printed immediately so a crash still leaves the spans
/// recorded so far.
void emit_span(const std::string& name, double start_us, double end_us,
               long spec) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::printf(
      "{\"span\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
      "\"spec\": %ld}\n",
      name.c_str(), start_us, end_us, spec);
}

/// Runs `fn`, records it as span `name`, returns its wall seconds.
template <typename Fn>
double timed(const std::string& name, long spec, Fn&& fn) {
  const double start = now_us();
  fn();
  const double end = now_us();
  emit_span(name, start, end, spec);
  return (end - start) * 1e-6;
}

/// Resident set of this process in KiB (/proc/self/statm).
double rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Args {
  std::string mode;
  std::vector<ProtocolKind> protocols{ProtocolKind::kOpt};
  int reps = 1;
  int repeat = 1;
  std::string dir = ".";
  int puts = 1;
  Config config;
};

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "perfbench_probe: " << msg << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_probe setup|layers|snapshot ...");
  Args a;
  a.mode = argv[1];
  a.config = *scenario_preset("paper");
  std::vector<std::string> overrides;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--protocols") {
      a.protocols.clear();
      std::stringstream names(next());
      for (std::string name; std::getline(names, name, ',');) {
        const auto kind = parse_protocol_kind(name);
        if (!kind) die("unknown protocol " + name);
        a.protocols.push_back(*kind);
      }
    } else if (arg == "--reps") {
      a.reps = std::atoi(next().c_str());
    } else if (arg == "--repeat") {
      a.repeat = std::atoi(next().c_str());
    } else if (arg == "--dir") {
      a.dir = next();
    } else if (arg == "--puts") {
      a.puts = std::atoi(next().c_str());
    } else {
      overrides.push_back(arg);
    }
  }
  if (a.protocols.empty() || a.reps < 1 || a.repeat < 1 || a.puts < 1)
    die("counts must be >= 1");
  try {
    apply_config_overrides(a.config, overrides);
    a.config.validate();
  } catch (const std::exception& e) {
    die(e.what());
  }
  return a;
}

std::string json_list(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(9);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
  return os.str();
}

int run_setup(const Args& a) {
  std::vector<double> passes;
  for (int k = 0; k < a.repeat; ++k) {
    double total = 0.0;
    long spec = 0;
    for (const ProtocolKind kind : a.protocols) {
      for (int r = 0; r < a.reps; ++r, ++spec) {
        Config c = a.config;
        c.scenario.seed += static_cast<std::uint64_t>(r);
        std::unique_ptr<World> world;
        total += timed("experiment.world_build", spec, [&] {
          world = std::make_unique<World>(c, kind);
        });
      }
    }
    passes.push_back(total);
  }
  std::printf("{\"result\": {\"setup_s\": %s}}\n", json_list(passes).c_str());
  return 0;
}

int run_layers(const Args& a) {
  double build_s = 0.0;
  double first_build_kb = -1.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  long spec = 0;
  for (const ProtocolKind kind : a.protocols) {
    for (int r = 0; r < a.reps; ++r, ++spec) {
      Config c = a.config;
      c.scenario.seed += static_cast<std::uint64_t>(r);
      std::unique_ptr<World> world;
      // Only the first world's RSS delta is honest: later constructors
      // reuse pages the allocator kept from the previous world.
      const double rss0 = rss_kb();
      build_s += timed("experiment.world_build", spec, [&] {
        world = std::make_unique<World>(c, kind);
      });
      if (first_build_kb < 0.0) first_build_kb = rss_kb() - rss0;
      run_s += timed("sim.run_until", spec,
                     [&] { world->run_until(c.scenario.duration_s); });
      events += world->sim().events_executed();
    }
  }

  // RandomSource::stream: derives and seeds one mt19937_64. Timed over a
  // fixed number of calls so the per-call figure is not clock-bound; the
  // printed rng_sink keeps the draws from being optimised away.
  constexpr int kStreams = 20000;
  const RandomSource rng(a.config.scenario.seed);
  std::uint64_t sink = 0;
  const double rng_s = timed("sim.rng_stream", -1, [&] {
    for (int i = 0; i < kStreams; ++i)
      sink ^= rng.stream("perfbench", static_cast<std::uint64_t>(i))
                  .engine()();
  });

  const std::size_t nodes = static_cast<std::size_t>(
      a.config.scenario.num_sensors + a.config.scenario.num_sinks);
  std::printf(
      "{\"result\": {\"worlds\": %ld, \"nodes\": %zu, \"build_s\": %.9f, "
      "\"build_kb\": %.3f, \"run_s\": %.9f, \"events\": %llu, "
      "\"rng_stream_us\": %.6f, \"rng_sink\": %llu}}\n",
      spec, nodes, build_s, first_build_kb, run_s,
      static_cast<unsigned long long>(events), rng_s * 1e6 / kStreams,
      static_cast<unsigned long long>(sink & 1));
  return 0;
}

int run_snapshot(const Args& a) {
  const ProtocolKind kind = a.protocols.front();
  World world(a.config, kind);
  world.run_until(kCheckpointAtS);

  constexpr int kRepeat = 5;
  std::vector<double> serialize;
  std::vector<double> make;
  std::vector<std::uint8_t> image;
  for (int k = 0; k < kRepeat; ++k) {
    serialize.push_back(timed("snapshot.serialize_state", -1, [&] {
      const std::vector<std::uint8_t> state = world.serialize_state();
      if (state.empty()) die("empty state");
    }));
    make.push_back(timed("snapshot.make_checkpoint", -1,
                         [&] { image = make_checkpoint(world); }));
  }

  // Concurrent putters into one container, as the supervisor's workers
  // do: each put takes the container's file lock, so lock waits count.
  const std::string path = a.dir + "/perfbench.dcc";
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(kPutters));
  std::vector<std::string> errors(static_cast<std::size_t>(kPutters));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kPutters; ++t) {
      threads.emplace_back([&, t] {
        const std::size_t ti = static_cast<std::size_t>(t);
        try {
          for (int p = 0; p < a.puts; ++p)
            lat[ti].push_back(timed("snapshot.container_put", t, [&] {
              snapshot::container_put(path, static_cast<std::uint64_t>(t),
                                      image);
            }));
        } catch (const std::exception& e) {
          errors[ti] = e.what();
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (const std::string& e : errors)
    if (!e.empty()) die("container_put: " + e);
  std::vector<double> puts;
  for (const auto& l : lat) puts.insert(puts.end(), l.begin(), l.end());
  for (int t = 0; t < kPutters; ++t) {
    const auto back =
        snapshot::container_get(path, static_cast<std::uint64_t>(t));
    if (!back || *back != image) die("container_get mismatch");
  }

  const double resume_s = timed("snapshot.resume_world", -1, [&] {
    const std::unique_ptr<World> resumed =
        resume_world(a.config, kind, image, /*verify=*/true);
    if (resumed->sim().events_executed() != world.sim().events_executed())
      die("resumed world at a different event count");
  });

  const std::size_t nodes = static_cast<std::size_t>(
      a.config.scenario.num_sensors + a.config.scenario.num_sinks);
  std::printf(
      "{\"result\": {\"nodes\": %zu, \"image_bytes\": %zu, "
      "\"serialize_s\": %.9f, \"make_checkpoint_s\": %.9f, "
      "\"container_put_p50_s\": %.9f, \"container_put_p90_s\": %.9f, "
      "\"puts\": %zu, \"resume_s\": %.9f}}\n",
      nodes, image.size(), quantile(serialize, 0.5), quantile(make, 0.5),
      quantile(puts, 0.5), quantile(puts, 0.9), puts.size(), resume_s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.mode == "setup") return run_setup(a);
    if (a.mode == "layers") return run_layers(a);
    if (a.mode == "snapshot") return run_snapshot(a);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown mode " + a.mode);
}
