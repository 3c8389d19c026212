#include "fairmpi/common/timing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

namespace fairmpi {
namespace {

constexpr std::uint64_t kSeed = 0x5eed5eed5eed5eedULL;

TEST(CycleSampler, FirstDrawAlwaysSamples) {
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, kSeed, ~std::uint64_t{0}}) {
    CycleSampler s(seed);
    EXPECT_EQ(s.weight(), 1u) << "seed " << seed;
  }
  CycleSampler by_default;
  EXPECT_EQ(by_default.weight(), 1u);
}

TEST(CycleSampler, PicksAboutOneSectionInPeriod) {
  constexpr int kDraws = 65536;
  constexpr double kExpected = kDraws / CycleSampler::kPeriod;  // 1024
  CycleSampler s(kSeed);
  std::uint64_t picked = 0;
  std::uint64_t weight_sum = 0;
  std::set<int> window_positions;  // pick positions within 128-section windows
  for (int i = 0; i < kDraws; ++i) {
    const std::uint32_t w = s.weight();
    ASSERT_TRUE(w == 0 || w == 1 || w == CycleSampler::kPeriod) << w;
    if (w != 0) {
      ++picked;
      window_positions.insert(i % 128);
    }
    weight_sum += w;
  }
  EXPECT_GE(static_cast<double>(picked), 0.8 * kExpected);
  EXPECT_LE(static_cast<double>(picked), 1.2 * kExpected);
  // Weighted, the picks estimate the number of sections without bias.
  EXPECT_GE(static_cast<double>(weight_sum), 0.8 * kDraws);
  EXPECT_LE(static_cast<double>(weight_sum), 1.2 * kDraws);
  // Not a stride: a fixed every-64th pick would hit 2 of the 128 positions
  // of a Multirate window; random picks land on nearly all of them.
  EXPECT_GT(window_positions.size(), 100u);
}

TEST(SampledCycles, OnlyPickedSectionsAddWeightedCycles) {
  CycleSampler s(kSeed);
  int unsampled = 0;
  int sampled = 0;
  for (int i = 0; i < 1024; ++i) {
    CycleSampler peek = s;  // the draw the scope below is about to make
    const std::uint32_t w = peek.weight();
    std::uint64_t sink = 0;
    {
      SampledCycles timer(s, sink);
      volatile int spin = 0;
      for (int k = 0; k < 100; ++k) spin = spin + k;
    }
    if (w == 0) {
      ++unsampled;
      EXPECT_EQ(sink, 0u) << "section " << i;
    } else {
      ++sampled;
      EXPECT_GT(sink, 0u) << "section " << i;
      EXPECT_EQ(sink % w, 0u) << "section " << i;
    }
  }
  EXPECT_GT(unsampled, 0);
  EXPECT_GT(sampled, 1);  // the first, and at least one random pick
}

}  // namespace
}  // namespace fairmpi
