// Seeded random streams. Each consumer gets its own named substream so
// adding a new random draw in one subsystem does not perturb another.
#pragma once

#include <cstdint>
#include <string_view>

#include "snapshot/snapshot_io.hpp"

namespace dftmsn {

/// One random stream: a keyed SplitMix64 generator (Steele, Lea & Flood,
/// OOPSLA'14) with 8 bytes of state and no warm-up. The nth draw is
/// mix(key + n·γ), so seeding costs one store. The stream owns its
/// distributions, written out here rather than taken from <random>, whose
/// distributions are implementation-defined: a run draws the same numbers
/// under any standard library.
class RandomStream {
 public:
  /// Weyl-sequence increment: the odd 64-bit golden-ratio constant.
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  explicit RandomStream(std::uint64_t key) : state_(key) {}

  /// Next raw 64-bit draw.
  std::uint64_t next_u64() {
    state_ += kGamma;
    return mix64(state_);
  }

  /// Uniform double in [0, 1): the top 53 bits of a draw times 2^-53.
  double uniform01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi), strictly below hi. Requires lo <= hi;
  /// lo == hi returns lo without drawing.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive, unbiased (multiply-and-reject
  /// on 32-bit draws). Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Exponentially distributed value with the given mean (> 0):
  /// -mean·log1p(-u).
  double exponential(double mean);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// The stream is its own 64-bit engine: engine()() is next_u64().
  std::uint64_t operator()() { return next_u64(); }
  RandomStream& engine() { return *this; }

  /// The state as one fixed-size u64 field: a restored stream continues
  /// the original draw sequence bit-for-bit.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

  /// SplitMix64's output function (a bijective 64-bit finalizer).
  static constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Root seed from which named substreams are derived. Substream keys are
/// stable hashes of (root seed, name, index), so e.g. node 7's mobility
/// stream is the same regardless of how many other streams exist.
class RandomSource {
 public:
  explicit RandomSource(std::uint64_t root_seed) : root_(root_seed) {}

  /// Derives the deterministic substream for (name, index).
  [[nodiscard]] RandomStream stream(std::string_view name,
                                    std::uint64_t index = 0) const;

  [[nodiscard]] std::uint64_t root_seed() const { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace dftmsn
