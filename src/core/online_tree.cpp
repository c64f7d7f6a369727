#include "core/online_tree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace core {

double gini_gain(std::uint32_t n0, std::uint32_t n1, std::uint32_t r0,
                 std::uint32_t r1) {
  const auto total = static_cast<double>(n0) + static_cast<double>(n1);
  if (total <= 0.0) return 0.0;
  const auto gini = [](double c0, double c1) {
    const double t = c0 + c1;
    if (t <= 0.0) return 0.0;
    const double p1 = c1 / t;
    const double p0 = 1.0 - p1;
    return p0 * (1.0 - p0) + p1 * (1.0 - p1);
  };
  const double l0 = static_cast<double>(n0) - static_cast<double>(r0);
  const double l1 = static_cast<double>(n1) - static_cast<double>(r1);
  if (l0 < 0.0 || l1 < 0.0) {
    throw std::invalid_argument("gini_gain: right counts exceed totals");
  }
  const double left_total = l0 + l1;
  const double right_total = static_cast<double>(r0) + static_cast<double>(r1);
  return gini(static_cast<double>(n0), static_cast<double>(n1)) -
         left_total / total * gini(l0, l1) -
         right_total / total * gini(static_cast<double>(r0),
                                    static_cast<double>(r1));
}

double split_bar(std::uint32_t n0, std::uint32_t n1, double min_gain,
                 bool relative_gain) {
  if (!relative_gain) return min_gain;
  const auto gini = [](double c0, double c1) {
    const double t = c0 + c1;
    if (t <= 0.0) return 0.0;
    const double p1 = c1 / t;
    return 2.0 * p1 * (1.0 - p1);
  };
  return min_gain * gini(n0, n1);
}

SplitDecision reference_split(std::uint32_t n0, std::uint32_t n1,
                              std::span<const std::uint32_t> right0,
                              std::span<const std::uint32_t> right1,
                              double bar) {
  double best_gain = 0.0;
  std::size_t best_test = 0;
  for (std::size_t t = 0; t < right0.size(); ++t) {
    const double gain = gini_gain(n0, n1, right0[t], right1[t]);
    if (gain > best_gain) {
      best_gain = gain;
      best_test = t;
    }
  }
  if (best_gain <= 0.0 || best_gain < bar) return {};
  // Degenerate partitions cannot reach a gain > 0, but guard anyway.
  const bool left_empty = right0[best_test] == n0 && right1[best_test] == n1;
  const bool right_empty = right0[best_test] == 0 && right1[best_test] == 0;
  if (left_empty || right_empty) return {};
  return {true, best_test, best_gain};
}

SplitDecision choose_split(std::uint32_t n0, std::uint32_t n1,
                           std::span<const std::uint32_t> right0,
                           std::span<const std::uint32_t> right1,
                           double min_gain, bool relative_gain) {
  // One class only: every reference gain is exactly 0.0, so no split.
  if (n0 == 0 || n1 == 0) return {};
  const double bar = split_bar(n0, n1, min_gain, relative_gain);
  // Screen. With N = L + R and exact arithmetic, ΔG ≥ bar holds iff
  //   l0·l1·R + r0·r1·L ≤ K·L·R,   K = n0·n1/N − bar·N/2.
  // K is padded by N·(2^-41 + 2^-50·(1 + |bar|)), which covers both the
  // reference's rounding (its gains are within 2^-40 of exact) and this
  // loop's, so a test failing `lhs < rhs` has a reference gain < bar
  // (DESIGN.md, "The learn kernel"). A test with L = 0 or R = 0 has
  // lhs = rhs = 0, so it fails too; its reference gain is exactly 0.
  const double c0 = static_cast<double>(n0);
  const double c1 = static_cast<double>(n1);
  const double n = c0 + c1;
  const double pad = n * (0x1p-41 + 0x1p-50 * (1.0 + std::fabs(bar)));
  const double k = c0 * c1 / n - bar * n * 0.5 + pad;
  if (!std::isfinite(k)) return reference_split(n0, n1, right0, right1, bar);
  bool may_reach = false;
  for (std::size_t t = 0; t < right0.size(); ++t) {
    const auto r0 = static_cast<double>(right0[t]);
    const auto r1 = static_cast<double>(right1[t]);
    const double l0 = c0 - r0;
    const double l1 = c1 - r1;
    const double l = l0 + l1;
    const double r = r0 + r1;
    may_reach |= l0 * l1 * r + r0 * r1 * l < k * (l * r);
  }
  if (!may_reach) return {};
  return reference_split(n0, n1, right0, right1, bar);
}

OnlineTree::OnlineTree(std::size_t feature_count,
                       const OnlineTreeParams& params, util::Rng rng)
    : feature_count_(feature_count), params_(params), rng_(rng) {
  if (feature_count_ == 0) {
    throw std::invalid_argument("OnlineTree: feature_count must be > 0");
  }
  if (params_.n_tests <= 0 || params_.min_parent_size <= 0 ||
      params_.threshold_pool <= 0) {
    throw std::invalid_argument("OnlineTree: invalid parameters");
  }
  split_gain_.assign(feature_count_, 0.0);
  reset();
}

void OnlineTree::reset() {
  nodes_.clear();
  samples_seen_ = 0;
  std::fill(split_gain_.begin(), split_gain_.end(), 0.0);
  make_leaf(0, 0.5f);
  ++structure_epoch_;
  ++stats_epoch_;
}

std::int32_t OnlineTree::make_leaf(std::int16_t depth, float prior) {
  Node node;
  node.depth = depth;
  node.prob = prior;
  node.stats = std::make_unique<LeafStats>();
  if (depth >= params_.max_depth) {
    // Depth-capped leaf: still counts samples for its probability estimate,
    // but never creates candidate tests.
    node.stats->tests_ready = true;
  }
  nodes_.push_back(std::move(node));
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

void OnlineTree::create_tests(LeafStats& stats) {
  const auto n = static_cast<std::size_t>(params_.n_tests);
  stats.feature.resize(n);
  stats.threshold.resize(n);
  stats.right[0].assign(n, 0);
  stats.right[1].assign(n, 0);
  const std::size_t buffered = stats.buffer_y.size();
  for (std::size_t t = 0; t < n; ++t) {
    const auto feature = static_cast<std::uint16_t>(rng_.below(feature_count_));
    stats.feature[t] = feature;
    if (buffered != 0 && !rng_.bernoulli(params_.uniform_test_fraction)) {
      // Data-driven threshold: the observed value of a random buffered
      // sample on this feature.
      stats.threshold[t] =
          stats.buffered(rng_.below(buffered), feature_count_)[feature];
    } else {
      stats.threshold[t] = static_cast<float>(rng_.uniform());
    }
  }
  stats.tests_ready = true;
  // Replay the buffer so test statistics cover every sample this leaf saw.
  for (std::size_t i = 0; i < buffered; ++i) {
    apply_to_tests(stats, stats.buffered(i, feature_count_), stats.buffer_y[i]);
  }
  stats.buffer_x = {};
  stats.buffer_y = {};
}

void OnlineTree::apply_to_tests(LeafStats& stats, std::span<const float> x,
                                std::size_t cls) {
  const std::uint16_t* feature = stats.feature.data();
  const float* threshold = stats.threshold.data();
  std::uint32_t* right = stats.right[cls].data();
  // `x > θ` is a coin flip on the tests worth having, so add the compare's
  // result rather than branch on it.
  for (std::size_t t = 0; t < stats.test_count(); ++t) {
    right[t] += static_cast<std::uint32_t>(x[feature[t]] > threshold[t]);
  }
}

std::size_t OnlineTree::route_to_leaf(std::span<const float> x) const {
  std::size_t node = 0;
  for (;;) {
    const Node& n = nodes_[node];
    if (n.split_feature < 0) return node;
    node = static_cast<std::size_t>(
        x[static_cast<std::size_t>(n.split_feature)] > n.split_threshold
            ? n.right
            : n.left);
  }
}

void OnlineTree::update(std::span<const float> x, int y) {
  if (x.size() != feature_count_) {
    throw std::invalid_argument("OnlineTree::update: wrong feature count");
  }
  ++samples_seen_;
  ++stats_epoch_;  // the reached leaf's prob estimate is about to move
  const std::size_t leaf = route_to_leaf(x);
  Node& node = nodes_[leaf];
  LeafStats& stats = *node.stats;
  const std::size_t cls = y == 1 ? 1 : 0;
  ++stats.n[cls];
  if (!stats.tests_ready) {
    stats.buffer_x.insert(stats.buffer_x.end(), x.begin(), x.end());
    stats.buffer_y.push_back(static_cast<std::uint8_t>(cls));
    if (stats.buffer_y.size() >=
        static_cast<std::size_t>(params_.threshold_pool)) {
      create_tests(stats);
    }
  } else {
    apply_to_tests(stats, x, cls);
  }
  const std::uint32_t total = stats.n[0] + stats.n[1];
  node.prob = static_cast<float>((stats.n[1] + 1.0) / (total + 2.0));
  if (stats.test_count() != 0 &&
      total >= static_cast<std::uint32_t>(params_.min_parent_size)) {
    try_split(leaf);
  }
}

void OnlineTree::try_split(std::size_t leaf_index) {
  // NOTE: `nodes_` may reallocate in make_leaf; take copies before that.
  const LeafStats& stats = *nodes_[leaf_index].stats;
  const SplitDecision decision =
      choose_split(stats.n[0], stats.n[1], stats.right[0], stats.right[1],
                   params_.min_gain, params_.relative_gain);
  if (!decision.split) return;

  const std::size_t t = decision.test;
  const std::uint16_t feature = stats.feature[t];
  const float threshold = stats.threshold[t];
  const std::uint32_t r0 = stats.right[0][t];
  const std::uint32_t r1 = stats.right[1][t];
  const std::uint32_t l0 = stats.n[0] - r0;
  const std::uint32_t l1 = stats.n[1] - r1;

  const auto depth = nodes_[leaf_index].depth;
  const float left_prior =
      static_cast<float>((l1 + 1.0) / (l0 + l1 + 2.0));
  const float right_prior = static_cast<float>((r1 + 1.0) / (r0 + r1 + 2.0));

  const std::int32_t left_child =
      make_leaf(static_cast<std::int16_t>(depth + 1), left_prior);
  const std::int32_t right_child =
      make_leaf(static_cast<std::int16_t>(depth + 1), right_prior);

  Node& node = nodes_[leaf_index];  // revalidate after reallocation
  node.split_feature = feature;
  node.split_threshold = threshold;
  node.left = left_child;
  node.right = right_child;
  node.stats.reset();
  split_gain_[feature] += decision.gain;
  ++structure_epoch_;
}

double OnlineTree::predict_proba(std::span<const float> x) const {
  if (x.size() != feature_count_) {
    throw std::invalid_argument("OnlineTree::predict: wrong feature count");
  }
  return nodes_[route_to_leaf(x)].prob;
}

std::vector<OnlineTree::FrozenNode> OnlineTree::export_structure() const {
  std::vector<FrozenNode> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    FrozenNode frozen;
    frozen.feature = node.split_feature;
    frozen.threshold = node.split_threshold;
    frozen.left = node.left;
    frozen.right = node.right;
    frozen.prob = node.prob;
    out.push_back(frozen);
  }
  return out;
}

void OnlineTree::export_probs(std::vector<float>& out) const {
  out.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) out[i] = nodes_[i].prob;
}

std::size_t OnlineTree::leaf_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const Node& n) { return n.split_feature < 0; }));
}

int OnlineTree::depth() const {
  int max_depth = 0;
  for (const auto& n : nodes_) max_depth = std::max(max_depth, int{n.depth});
  return max_depth;
}

}  // namespace core
