// CONTAINER-OPS: checkpoint container operation latency vs container size.
//
// Times container_put / container_get / container_erase of one record
// against a container already holding 1, 4 and 16 live 1 MiB records,
// and 1 and 1024 live 64-byte records (a big sweep's manifest), and
// reports the median of each. Every sample starts from the same clean,
// fully live container (the erase removes the timed put's record and an
// untimed compaction drops its dead bytes), so no timed put ever pays
// for an automatic compaction. An operation that costs O(index + the
// touched record) keeps the 16-record median near the 1-record one; one
// that reads or hashes the whole file grows with it. The small-record
// series exposes per-record work that the big records' payload I/O
// hides. get does not fsync, so per-entry work shows in its 1024/1
// ratio: reading every indexed record header (one pread each) put it
// above 50; what remains is the index digest, FNV-1a over 16 bytes per
// entry, about three to six times the fixed cost of a small get. That
// ratio is printed but not gated until the digest gets cheaper.
//
// Usage: container_ops [--out FILE] [--check] [--dir DIR]
//   --out FILE  JSON output path (default: stdout table only)
//   --check     exit 1 if any op's 16-record / 1-record median ratio, or
//               the small records' put or erase 1024-record / 1-record
//               ratio, exceeds 3 (ratios, so they hold on any host)
//   --dir DIR   scratch directory for the containers, removed on exit
//               (default container_ops.tmp in the working directory)
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "snapshot/ckpt_container.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace sn = dftmsn::snapshot;

constexpr double kMaxRatio = 3.0;
constexpr int kReps = 15;  // samples per op and size
constexpr std::size_t kRecordBytes = 1024 * 1024;
constexpr std::size_t kSmallRecordBytes = 64;
const char* const kOps[] = {"put", "get", "erase"};

struct Point {
  std::uint64_t records = 0;
  double median_s[3] = {0, 0, 0};  ///< indexed like kOps
};

template <class F>
double time_s(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<std::uint8_t> payload(std::uint64_t tag, std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < len; ++i)
    p[i] = static_cast<std::uint8_t>((tag * 131 + i * 7) & 0xff);
  return p;
}

Point run_point(const std::string& dir, std::uint64_t records,
                std::size_t record_bytes) {
  const std::string path = dir + "/c" + std::to_string(records) + "x" +
                           std::to_string(record_bytes) + ".dcc";
  std::vector<std::vector<std::uint8_t>> live;
  for (std::uint64_t spec = 0; spec < records; ++spec)
    live.push_back(payload(spec, record_bytes));
  sn::container_write_fresh(path, live);

  const std::vector<std::uint8_t> extra = payload(records, record_bytes);
  std::vector<double> samples[3];
  for (int r = 0; r < kReps; ++r) {
    samples[0].push_back(
        time_s([&] { sn::container_put(path, records, extra); }));
    samples[1].push_back(time_s([&] {
      if (!sn::container_get(path, records)) {
        std::cerr << "container_ops: get lost the record just put\n";
        std::exit(2);
      }
    }));
    samples[2].push_back(
        time_s([&] { sn::container_erase(path, records); }));
    sn::container_compact(path);
  }
  Point p;
  p.records = records;
  for (int op = 0; op < 3; ++op) p.median_s[op] = median(samples[op]);
  return p;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// The host the medians came from: absolute latencies only compare
/// between runs with the same fingerprint.
std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string llc = "unknown";
  int llc_level = -1;
  for (int i = 0; i < 8; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string level = read_line(base + "/level");
    if (level.empty()) continue;
    if (std::stoi(level) > llc_level) {
      llc_level = std::stoi(level);
      llc = "L" + level + " " + read_line(base + "/size");
    }
  }
  cpu_set_t set;
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  return "{\"nproc\": " + std::to_string(nproc) + ", \"cpu_model\": \"" +
         json_escape(cpu) + "\", \"llc\": \"" + json_escape(llc) +
         "\", \"compiler\": \"" + json_escape(__VERSION__) +
         "\", \"build\": \"" + build + "\"}";
}

void write_points(std::ofstream& out, const std::vector<Point>& points) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "    {\"records\": " << p.records;
    for (int op = 0; op < 3; ++op)
      out << ", \"" << kOps[op] << "_median_s\": " << p.median_s[op];
    out << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
}

void write_ratios(std::ofstream& out, const double ratio[3]) {
  out << "{";
  for (int op = 0; op < 3; ++op)
    out << (op ? ", " : "") << "\"" << kOps[op] << "\": " << ratio[op];
  out << "}";
}

void write_json(const std::string& path, const std::vector<Point>& points,
                const std::vector<Point>& small, const double ratio[3],
                const double small_ratio[3], bool pass) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"container_ops\",\n  \"record_bytes\": "
      << kRecordBytes << ",\n  \"reps\": " << kReps
      << ",\n  \"host\": " << host_json() << ",\n  \"points\": [\n";
  write_points(out, points);
  out << "  ],\n  \"ratio_16_over_1\": ";
  write_ratios(out, ratio);
  out << ",\n  \"small_record_bytes\": " << kSmallRecordBytes
      << ",\n  \"small_points\": [\n";
  write_points(out, small);
  out << "  ],\n  \"ratio_1024_over_1\": ";
  write_ratios(out, small_ratio);
  out << ",\n  \"max_ratio\": " << kMaxRatio
      << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string dir = "container_ops.tmp";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else {
      std::cerr << "usage: container_ops [--out FILE] [--check] [--dir DIR]\n";
      return 2;
    }
  }
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<Point> points;
  std::printf("CONTAINER-OPS: median op latency vs live records "
              "(%zu KiB records, %d reps)\n", kRecordBytes / 1024, kReps);
  std::printf("  records      put_ms      get_ms    erase_ms\n");
  const auto series = [&](std::vector<Point>& into,
                           std::initializer_list<std::uint64_t> sizes,
                           std::size_t record_bytes, double ratio[3]) {
    for (const std::uint64_t records : sizes) {
      into.push_back(run_point(dir, records, record_bytes));
      const Point& p = into.back();
      std::printf("%9llu  %10.3f  %10.3f  %10.3f\n",
                  static_cast<unsigned long long>(p.records),
                  p.median_s[0] * 1e3, p.median_s[1] * 1e3,
                  p.median_s[2] * 1e3);
    }
    for (int op = 0; op < 3; ++op)
      ratio[op] = into.back().median_s[op] / into.front().median_s[op];
  };
  double ratio[3];
  series(points, {1u, 4u, 16u}, kRecordBytes, ratio);
  std::vector<Point> small;
  double small_ratio[3];
  std::printf("  (%zu-byte records)\n", kSmallRecordBytes);
  series(small, {1u, 1024u}, kSmallRecordBytes, small_ratio);
  std::filesystem::remove_all(dir);

  bool pass = small_ratio[0] <= kMaxRatio && small_ratio[2] <= kMaxRatio;
  for (int op = 0; op < 3; ++op) pass = pass && ratio[op] <= kMaxRatio;
  std::printf("16/1 ratio: put %.2f  get %.2f  erase %.2f\n", ratio[0],
              ratio[1], ratio[2]);
  std::printf("1024/1 ratio (small records): put %.2f  get %.2f  erase %.2f\n",
              small_ratio[0], small_ratio[1], small_ratio[2]);
  std::printf("gate %.0f on every 16/1 ratio and the 1024/1 put and erase "
              "ratios (1024/1 get not gated): %s\n",
              kMaxRatio, pass ? "pass" : "FAIL");
  if (!out_path.empty())
    write_json(out_path, points, small, ratio, small_ratio, pass);
  return check && !pass ? 1 : 0;
}
