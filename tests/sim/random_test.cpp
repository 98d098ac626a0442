#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace dftmsn {
namespace {

static_assert(sizeof(RandomStream) <= 32,
              "a random stream is per-node state: keep it small");

TEST(RandomStream, Uniform01InRange) {
  RandomStream rs(42);
  for (int i = 0; i < 1000; ++i) {
    const double v = rs.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomStream, UniformRespectsBounds) {
  RandomStream rs(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rs.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RandomStream, UniformDegenerateIntervalReturnsBound) {
  RandomStream rs(7);
  EXPECT_DOUBLE_EQ(rs.uniform(1.5, 1.5), 1.5);
}

TEST(RandomStream, UniformIntInclusive) {
  RandomStream rs(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rs.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomStream, ExponentialMeanRoughlyCorrect) {
  RandomStream rs(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rs.exponential(120.0);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 120.0, 5.0);
}

TEST(RandomStream, BernoulliExtremes) {
  RandomStream rs(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rs.bernoulli(0.0));
    EXPECT_TRUE(rs.bernoulli(1.0));
  }
}

TEST(RandomStream, InvalidArgumentsThrow) {
  RandomStream rs(1);
  EXPECT_THROW(rs.uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rs.uniform_int(4, 1), std::invalid_argument);
  EXPECT_THROW(rs.exponential(0.0), std::invalid_argument);
}

TEST(RandomSource, SameNameIndexIsDeterministic) {
  RandomSource a(123), b(123);
  RandomStream s1 = a.stream("mobility", 7);
  RandomStream s2 = b.stream("mobility", 7);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(s1.uniform01(), s2.uniform01());
}

TEST(RandomSource, DifferentNamesDecorrelated) {
  RandomSource src(123);
  RandomStream s1 = src.stream("mobility", 0);
  RandomStream s2 = src.stream("traffic", 0);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1.uniform01() == s2.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RandomSource, DifferentSeedsDiffer) {
  RandomSource a(1), b(2);
  RandomStream s1 = a.stream("x");
  RandomStream s2 = b.stream("x");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1.uniform01() == s2.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RandomSource, DifferentIndicesDiffer) {
  RandomSource src(9);
  RandomStream s1 = src.stream("node", 0);
  RandomStream s2 = src.stream("node", 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1.uniform01() == s2.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// ---------------------------------------------------------------------------
// Bit-exact pin: the first draws of one fixed (root, name, index) stream,
// raw and through every distribution. Any change to the generator, the key
// derivation or a distribution's arithmetic lands here first. The values
// were computed independently of this implementation, from the published
// SplitMix64 recurrence and the distribution formulas in random.hpp.

TEST(RandomPin, FirstDrawsAreBitExact) {
  RandomStream s = RandomSource(42).stream("pin", 7);
  EXPECT_EQ(s.next_u64(), 0xefdeec6c8a73b91dULL);
  EXPECT_EQ(s.next_u64(), 0x7e7b0b4efff37c28ULL);
  EXPECT_EQ(s.next_u64(), 0xede5bde8a2de32fdULL);
  EXPECT_EQ(s.engine()(), 0x37cf18b703634a52ULL);
  EXPECT_EQ(s.uniform01(), 0.11193788095111379);
  EXPECT_EQ(s.uniform01(), 0.7008259532788731);
  EXPECT_EQ(s.uniform(-2.0, 3.0), -0.7508258651299131);
  EXPECT_EQ(s.uniform(-2.0, 3.0), 0.7303290677108705);
  EXPECT_EQ(s.uniform_int(1, 6), 2);
  EXPECT_EQ(s.uniform_int(1, 6), 2);
  EXPECT_EQ(s.uniform_int(1, 6), 6);
  EXPECT_EQ(s.uniform_int(1, 6), 3);
  EXPECT_EQ(s.uniform_int(INT_MIN, INT_MAX), -1116744098);
  EXPECT_EQ(s.uniform_int(INT_MIN, INT_MAX), -186552677);
  EXPECT_EQ(s.exponential(120.0), 70.93544655803547);
  EXPECT_EQ(s.exponential(120.0), 219.11345581212785);
  EXPECT_FALSE(s.bernoulli(0.3));
  EXPECT_TRUE(s.bernoulli(0.3));
  EXPECT_FALSE(s.bernoulli(0.3));
  EXPECT_TRUE(s.bernoulli(0.3));
}

// ---------------------------------------------------------------------------
// Goodness of fit. Seeded, so each statistic is one fixed number; the
// bounds are the alpha = 0.001 critical values, far from where a correct
// generator lands.

/// Kolmogorov-Smirnov statistic of `xs` against the continuous `cdf`.
double ks_statistic(std::vector<double> xs,
                    const std::function<double(double)>& cdf) {
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double f = cdf(xs[i]);
    d = std::max({d, f - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - f});
  }
  return d;
}

constexpr int kFitSamples = 20000;
// K-S critical value at alpha = 0.001: 1.949 / sqrt(n).
const double kKsCritical = 1.949 / std::sqrt(double{kFitSamples});

TEST(RandomFit, Uniform01PassesKs) {
  RandomStream s = RandomSource(1).stream("ks", 0);
  std::vector<double> xs(kFitSamples);
  for (double& x : xs) x = s.uniform01();
  EXPECT_LT(ks_statistic(xs, [](double x) { return x; }), kKsCritical);
}

TEST(RandomFit, ExponentialPassesKs) {
  RandomStream s = RandomSource(2).stream("ks", 0);
  std::vector<double> xs(kFitSamples);
  for (double& x : xs) x = s.exponential(120.0);
  const auto cdf = [](double x) { return 1.0 - std::exp(-x / 120.0); };
  EXPECT_LT(ks_statistic(xs, cdf), kKsCritical);
}

/// Pearson chi-squared of uniform_int(0, k-1) counts over `n` draws.
double chi_squared(RandomStream& s, int k, int n) {
  std::vector<int> counts(static_cast<std::size_t>(k), 0);
  for (int i = 0; i < n; ++i)
    ++counts[static_cast<std::size_t>(s.uniform_int(0, k - 1))];
  const double expected = static_cast<double>(n) / k;
  double chi2 = 0.0;
  for (const int c : counts)
    chi2 += (c - expected) * (c - expected) / expected;
  return chi2;
}

TEST(RandomFit, UniformIntPassesChiSquared) {
  RandomStream s = RandomSource(3).stream("chi2", 0);
  // Critical values at alpha = 0.001 for 9 and 2 degrees of freedom.
  EXPECT_LT(chi_squared(s, 10, kFitSamples), 27.877);
  EXPECT_LT(chi_squared(s, 3, kFitSamples), 13.816);
}

// ---------------------------------------------------------------------------
// Range edges.

TEST(RandomStream, UniformStaysStrictlyBelowHi) {
  // One ulp wide: lo + (hi - lo)·u rounds to hi for about half of all u,
  // so this fails unless the result is pulled back below hi.
  const double lo = 1.0;
  const double hi = std::nextafter(1.0, 2.0);
  RandomStream s(17);
  for (int i = 0; i < 1000; ++i) {
    const double v = s.uniform(lo, hi);
    ASSERT_GE(v, lo);
    ASSERT_LT(v, hi);
  }
}

TEST(RandomStream, UniformIntCoversFullIntRange) {
  RandomStream s(19);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = s.uniform_int(INT_MIN, INT_MAX);
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  EXPECT_EQ(s.uniform_int(INT_MAX, INT_MAX), INT_MAX);
  EXPECT_EQ(s.uniform_int(INT_MIN, INT_MIN), INT_MIN);
  for (int i = 0; i < 100; ++i) {
    const int v = s.uniform_int(INT_MAX - 1, INT_MAX);
    EXPECT_GE(v, INT_MAX - 1);
  }
}

TEST(RandomStream, UniformIntRejectsTheBiasedDraws) {
  // range = 3·2^30, so a 32-bit draw x maps to floor(3x / 4): without the
  // rejection step every offset that is a multiple of 3 gets two draws
  // and the others one, so half of all results land on a multiple of 3
  // instead of a third.
  RandomStream s(23);
  constexpr int kDraws = 3000;
  int multiples = 0;
  for (int i = 0; i < kDraws; ++i) {
    const std::int64_t offset =
        static_cast<std::int64_t>(s.uniform_int(INT_MIN, 1073741823)) -
        INT_MIN;
    multiples += offset % 3 == 0;
  }
  EXPECT_NEAR(static_cast<double>(multiples) / kDraws, 1.0 / 3.0, 0.05);
}

// ---------------------------------------------------------------------------
// Independence of neighbouring keys: node i and node i + 1, and replication
// r and r + 1, must not draw correlated sequences.

double correlation(RandomStream a, RandomStream b, int n) {
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform01(), y = b.uniform01();
    sa += x;
    sb += y;
    saa += x * x;
    sbb += y * y;
    sab += x * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double va = saa / n - (sa / n) * (sa / n);
  const double vb = sbb / n - (sb / n) * (sb / n);
  return cov / std::sqrt(va * vb);
}

// |r| of two independent streams is ~N(0, 1/n); 5 sigma.
constexpr int kCorrSamples = 10000;
const double kCorrBound = 5.0 / std::sqrt(double{kCorrSamples});

TEST(RandomSource, AdjacentIndexStreamsUncorrelated) {
  const RandomSource src(42);
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_LT(std::abs(correlation(src.stream("mobility", i),
                                   src.stream("mobility", i + 1),
                                   kCorrSamples)),
              kCorrBound)
        << "index " << i;
}

TEST(RandomSource, AdjacentRootStreamsUncorrelated) {
  for (std::uint64_t root = 40; root < 48; ++root)
    EXPECT_LT(std::abs(correlation(RandomSource(root).stream("mac", 3),
                                   RandomSource(root + 1).stream("mac", 3),
                                   kCorrSamples)),
              kCorrBound)
        << "root " << root;
}

// ---------------------------------------------------------------------------
// Checkpoint state.

TEST(RandomStream, SaveLoadContinuesSequence) {
  RandomStream original = RandomSource(5).stream("ckpt", 2);
  for (int i = 0; i < 37; ++i) original.uniform01();
  snapshot::Writer w;
  original.save_state(w);

  RandomStream restored(0);
  snapshot::Reader r(w.bytes());
  restored.load_state(r);
  EXPECT_TRUE(r.at_end());
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(restored.next_u64(), original.next_u64()) << "draw " << i;
}

TEST(RandomStream, SavedStateIsFixedSize) {
  RandomStream fresh(1), used(2);
  for (int i = 0; i < 1000; ++i) used.uniform_int(0, 100);
  snapshot::Writer a, b;
  fresh.save_state(a);
  used.save_state(b);
  EXPECT_EQ(a.bytes().size(), b.bytes().size());
  EXPECT_LE(a.bytes().size(), 32u);
}

}  // namespace
}  // namespace dftmsn
