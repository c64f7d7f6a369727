// Differential test of the split decision: choose_split (one-class exit,
// division-free screen, reference fallback) must pick exactly what the
// reference first-max gini_gain scan picks — split or not, the test index
// and the bits of the gain — on seeded random and adversarial count vectors.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/online_tree.hpp"
#include "util/rng.hpp"

namespace {

struct Leaf {
  std::uint32_t n0 = 0;
  std::uint32_t n1 = 0;
  std::vector<std::uint32_t> right0;
  std::vector<std::uint32_t> right1;

  void add(std::uint32_t r0, std::uint32_t r1) {
    right0.push_back(r0);
    right1.push_back(r1);
  }
};

/// Compares choose_split with reference_split at the same bar; returns
/// whether the reference split (so callers can check coverage).
bool expect_same(const Leaf& leaf, double min_gain, bool relative_gain) {
  const double bar = core::split_bar(leaf.n0, leaf.n1, min_gain, relative_gain);
  const core::SplitDecision want =
      core::reference_split(leaf.n0, leaf.n1, leaf.right0, leaf.right1, bar);
  const core::SplitDecision got = core::choose_split(
      leaf.n0, leaf.n1, leaf.right0, leaf.right1, min_gain, relative_gain);
  EXPECT_EQ(got.split, want.split)
      << "n=(" << leaf.n0 << "," << leaf.n1 << ") tests "
      << leaf.right0.size() << " min_gain " << min_gain << " relative "
      << relative_gain;
  EXPECT_EQ(got.test, want.test);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.gain),
            std::bit_cast<std::uint64_t>(want.gain));
  return want.split;
}

std::uint32_t below(util::Rng& rng, std::uint64_t bound_inclusive) {
  return static_cast<std::uint32_t>(rng.below(bound_inclusive + 1));
}

Leaf random_leaf(util::Rng& rng, std::uint32_t n0, std::uint32_t n1,
                 std::size_t tests) {
  Leaf leaf{n0, n1, {}, {}};
  for (std::size_t t = 0; t < tests; ++t) {
    // A mix of uninformative tests, informative ones (most of one class on
    // one side) and the empty-side extremes.
    switch (rng.below(6)) {
      case 0:
        leaf.add(0, 0);
        break;
      case 1:
        leaf.add(n0, n1);
        break;
      case 2:
        leaf.add(below(rng, n0 / 8), n1 - below(rng, n1 / 8));
        break;
      default:
        leaf.add(below(rng, n0), below(rng, n1));
    }
  }
  return leaf;
}

constexpr double kMinGains[] = {0.0, 1e-6, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9};

TEST(SplitDecision, MatchesReferenceOnSeededRandomLeaves) {
  util::Rng rng(20261020);
  int splits = 0;
  int cases = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    // Leaf sizes from a handful of samples up to a long-lived leaf.
    const auto scale = std::uint64_t{1} << rng.below(20);
    const std::uint32_t n0 = below(rng, scale);
    const std::uint32_t n1 = below(rng, scale / (1 + rng.below(64)));
    const Leaf leaf = random_leaf(rng, n0, n1, 1 + rng.below(300));
    for (const double min_gain : kMinGains) {
      for (const bool relative : {true, false}) {
        splits += expect_same(leaf, min_gain, relative) ? 1 : 0;
        ++cases;
      }
    }
  }
  // Both outcomes must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(splits, cases / 10);
  EXPECT_LT(splits, cases - cases / 10);
}

TEST(SplitDecision, OneClassLeavesNeverSplit) {
  util::Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint32_t n = 1 + below(rng, 100000);
    const bool positives = rng.bernoulli(0.5);
    const Leaf leaf = random_leaf(rng, positives ? 0 : n, positives ? n : 0,
                                  1 + rng.below(256));
    for (const double min_gain : {0.0, 0.1, -1.0}) {
      for (const bool relative : {true, false}) {
        EXPECT_FALSE(expect_same(leaf, min_gain, relative));
      }
    }
  }
}

TEST(SplitDecision, EmptySideTestsNeverWin) {
  // Only L = 0 and R = 0 tests: every reference gain is exactly 0.
  Leaf leaf{900, 100, {}, {}};
  for (int t = 0; t < 64; ++t) {
    if (t % 2 == 0) {
      leaf.add(0, 0);
    } else {
      leaf.add(900, 100);
    }
  }
  for (const double min_gain : {0.0, 0.1}) {
    for (const bool relative : {true, false}) {
      EXPECT_FALSE(expect_same(leaf, min_gain, relative));
    }
  }
  // One real test among them decides alone.
  leaf.add(10, 95);
  EXPECT_TRUE(expect_same(leaf, 0.1, true));
  const auto decision = core::choose_split(leaf.n0, leaf.n1, leaf.right0,
                                           leaf.right1, 0.1, true);
  EXPECT_EQ(decision.test, 64u);
}

TEST(SplitDecision, ExactTiesPickTheFirstTest) {
  util::Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Leaf leaf = random_leaf(rng, 200 + below(rng, 5000), 20 + below(rng, 500),
                            1 + rng.below(40));
    // Copy one test to three random positions, and add its mirror
    // partition (left and right swapped: the same gain in exact arithmetic).
    const std::size_t src = rng.below(leaf.right0.size());
    const std::uint32_t r0 = leaf.right0[src];
    const std::uint32_t r1 = leaf.right1[src];
    for (int copy = 0; copy < 3; ++copy) {
      const std::size_t at = rng.below(leaf.right0.size() + 1);
      leaf.right0.insert(leaf.right0.begin() + static_cast<long>(at), r0);
      leaf.right1.insert(leaf.right1.begin() + static_cast<long>(at), r1);
    }
    leaf.add(leaf.n0 - r0, leaf.n1 - r1);
    for (const double min_gain : {0.0, 0.01, 0.1}) {
      for (const bool relative : {true, false}) {
        expect_same(leaf, min_gain, relative);
      }
    }
  }
}

TEST(SplitDecision, GainsWithinUlpsOfTheBar) {
  // Put the bar on, and a few ulps either side of, the best test's own
  // reference gain: the screen must never reject a test the reference
  // accepts by a rounding hair.
  util::Rng rng(99);
  int at_bar_splits = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto scale = std::uint64_t{1} << (4 + rng.below(28));
    const Leaf leaf =
        random_leaf(rng, 1 + below(rng, scale), 1 + below(rng, scale / 4),
                    1 + rng.below(64));
    const core::SplitDecision best = core::reference_split(
        leaf.n0, leaf.n1, leaf.right0, leaf.right1, 0.0);
    if (!best.split) continue;
    const double impurity = core::split_bar(leaf.n0, leaf.n1, 1.0, true);
    for (const bool relative : {false, true}) {
      double min_gain = relative ? best.gain / impurity : best.gain;
      for (int step = 0; step < 4; ++step) {
        min_gain = std::nextafter(min_gain, 0.0);
      }
      for (int step = -4; step <= 4; ++step) {
        const bool split = expect_same(leaf, min_gain, relative);
        if (!relative && step == 0) at_bar_splits += split ? 1 : 0;
        min_gain = std::nextafter(min_gain, 1.0);
      }
    }
  }
  // A bar equal to the best gain splits (gain ≥ bar).
  EXPECT_GT(at_bar_splits, 1000);
}

TEST(SplitDecision, ZeroAndAbsoluteBars) {
  util::Rng rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    const Leaf leaf = random_leaf(rng, below(rng, 3000), below(rng, 300),
                                  1 + rng.below(128));
    for (const double min_gain : {0.0, -0.5, 0.02, 0.2,
                                  std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()}) {
      for (const bool relative : {true, false}) {
        expect_same(leaf, min_gain, relative);
      }
    }
  }
}

TEST(SplitDecision, CountsNearTwoToTheThirtyTwo) {
  util::Rng rng(2);
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint32_t>::max();
  int splits = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const auto n0 = static_cast<std::uint32_t>(kTop - rng.below(1000));
    const auto n1 = static_cast<std::uint32_t>(
        rng.bernoulli(0.5) ? kTop - rng.below(1000) : 1 + rng.below(kTop));
    Leaf leaf = random_leaf(rng, n0, n1, 1 + rng.below(64));
    // A near-pure split among them.
    leaf.add(below(rng, 5), n1 - below(rng, 5));
    for (const double min_gain : kMinGains) {
      for (const bool relative : {true, false}) {
        splits += expect_same(leaf, min_gain, relative) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(splits, 0);
}

}  // namespace
