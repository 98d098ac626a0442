#include "sim/random.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dftmsn {

double RandomStream::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("RandomStream::uniform: lo > hi");
  if (lo == hi) return lo;
  const double v = lo + (hi - lo) * uniform01();
  // Rounding can carry lo + (hi - lo)·u up to hi when u is near 1.
  return v < hi ? v : std::nextafter(hi, lo);
}

int RandomStream::uniform_int(int lo, int hi) {
  if (lo > hi) throw std::invalid_argument("RandomStream::uniform_int: lo > hi");
  // Lemire's multiply-and-reject. range is in [1, 2^32], so a 32-bit draw
  // times range fits in 64 bits; the high word is the result and low words
  // below (2^32 - range) mod range are the biased ones, redrawn.
  constexpr std::uint64_t kLow = 0xffffffffULL;
  const std::uint64_t range =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) - lo) + 1;
  std::uint64_t m = (next_u64() >> 32) * range;
  if ((m & kLow) < range) {
    const std::uint64_t threshold = ((kLow + 1) - range) % range;
    while ((m & kLow) < threshold) m = (next_u64() >> 32) * range;
  }
  return static_cast<int>(lo + static_cast<std::int64_t>(m >> 32));
}

double RandomStream::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("RandomStream::exponential: mean <= 0");
  return -mean * std::log1p(-uniform01());
}

bool RandomStream::bernoulli(double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  return uniform01() < clamped;
}

void RandomStream::save_state(snapshot::Writer& w) const {
  w.begin_section("rng");
  w.u64(state_);
  w.end_section();
}

void RandomStream::load_state(snapshot::Reader& r) {
  r.begin_section("rng");
  state_ = r.u64();
  r.end_section();
}

namespace {

/// One SplitMix64 step: the key-derivation mixer.
std::uint64_t mix(std::uint64_t x) {
  return RandomStream::mix64(x + RandomStream::kGamma);
}

/// FNV-1a 64-bit over the name bytes.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

RandomStream RandomSource::stream(std::string_view name,
                                  std::uint64_t index) const {
  const std::uint64_t seed = mix(root_ ^ mix(fnv1a(name) ^ mix(index)));
  return RandomStream{seed};
}

}  // namespace dftmsn
