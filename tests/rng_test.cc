#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace memtis {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextBoolMatchesProbability) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) {
    heads += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(heads) / 20000.0, 0.3, 0.02);
}

TEST(RandomPermutation, IsAPermutation) {
  Rng rng(5);
  auto perm = RandomPermutation(1000, rng);
  std::vector<bool> seen(1000, false);
  for (uint32_t v : perm) {
    ASSERT_LT(v, 1000u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(ZipfSampler, RanksWithinRange) {
  Rng rng(11);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 100u);
  }
}

TEST(ZipfSampler, SingleItemAlwaysZero) {
  Rng rng(11);
  ZipfSampler zipf(1, 1.2);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(ZipfSampler, HeadDominatesForHighSkew) {
  Rng rng(13);
  ZipfSampler zipf(10000, 1.2);
  const int n = 100000;
  int head = 0;  // top 1% of ranks
  for (int i = 0; i < n; ++i) {
    head += zipf.Sample(rng) < 100 ? 1 : 0;
  }
  // With s=1.2 over 10k items, the top 1% gets the majority of accesses.
  EXPECT_GT(static_cast<double>(head) / n, 0.5);
}

TEST(ZipfSampler, RankFrequencyIsMonotone) {
  Rng rng(17);
  ZipfSampler zipf(50, 1.0);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 200000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  // Aggregate monotonicity: first 5 ranks >> next 5 ranks, etc.
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[0] + counts[1], counts[10] + counts[11]);
  int top10 = 0;
  int bottom10 = 0;
  for (int i = 0; i < 10; ++i) {
    top10 += counts[i];
    bottom10 += counts[40 + i];
  }
  EXPECT_GT(top10, 4 * bottom10);
}

class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, DistributionIsValidAcrossExponents) {
  const double s = GetParam();
  Rng rng(23);
  ZipfSampler zipf(1000, s);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t r = zipf.Sample(rng);
    ASSERT_LT(r, 1000u);
    ++counts[r];
  }
  // Rank 0 must be the modal rank (within sampling noise, compare to rank 500+).
  EXPECT_GT(counts[0], counts[500]);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.3, 0.7, 0.9, 0.99, 1.0, 1.2, 1.5));

// The (n, s) pairs the paper benchmarks sample at footprint scale 0.25:
// graph500's vertices, pagerank, xsbench (two phases), liblinear, silo, btree
// and 603.bwaves.
struct PaperZipf {
  uint64_t n;
  double s;
};
constexpr PaperZipf kPaperZipfs[] = {{3072, 1.1}, {4, 0.7},  {7, 0.3},  {7, 1.2},
                                     {24, 0.9},   {20, 0.99}, {20, 0.9}, {12, 0.7}};

TEST(ZipfSampler, GuideTableMatchesArithmeticAtEveryBucketEdge) {
  // Random draws almost never land next to a bucket edge, where a wrongly
  // decided bucket first shows. Check m - 1, m and m + 1 at every edge m.
  constexpr uint64_t kEnd = uint64_t{1} << 53;
  for (const PaperZipf& p : kPaperZipfs) {
    SCOPED_TRACE("n " + std::to_string(p.n) + " s " + std::to_string(p.s));
    const ZipfSampler zipf(p.n, p.s);
    ASSERT_EQ(zipf.guide_bits(), p.n <= 64 ? 12 : 16);
    const uint64_t width = kEnd >> zipf.guide_bits();
    for (uint64_t edge = 0; edge <= kEnd; edge += width) {
      for (const uint64_t m : {edge - 1, edge, edge + 1}) {
        if (m >= kEnd) continue;  // edge - 1 at 0 wraps; edge at the end is past it
        ASSERT_EQ(zipf.Trial(m), zipf.ExactTrial(m)) << "m " << m;
      }
    }
  }
}

TEST(ZipfSampler, GuideTableSizedByN) {
  EXPECT_EQ(ZipfSampler(1, 0.9).guide_bits(), 0);
  EXPECT_EQ(ZipfSampler(2, 0.9).guide_bits(), 12);
  EXPECT_EQ(ZipfSampler(64, 0.9).guide_bits(), 12);
  EXPECT_EQ(ZipfSampler(65, 0.9).guide_bits(), 16);
  EXPECT_EQ(ZipfSampler(ZipfSampler::kMaxGuidedN, 0.9).guide_bits(), 16);
  EXPECT_EQ(ZipfSampler(ZipfSampler::kMaxGuidedN + 1, 0.9).guide_bits(), 0);
}

}  // namespace
}  // namespace memtis
