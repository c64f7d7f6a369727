#include "core/mondrian_forest.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "robust/checkpoint_io.hpp"
#include "util/ordered_append.hpp"

namespace core {

// ---- MondrianTree ----------------------------------------------------------

MondrianTree::MondrianTree(std::size_t feature_count,
                           const MondrianForestParams& params)
    : feature_count_(feature_count), params_(params) {}

std::int32_t MondrianTree::make_leaf(std::span<const float> x, int y) {
  Node leaf;
  leaf.lower.assign(x.begin(), x.end());
  leaf.upper.assign(x.begin(), x.end());
  leaf.counts[y == 1 ? 1 : 0] = 1;
  nodes_.push_back(std::move(leaf));
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

double MondrianTree::deficit(const Node& node,
                             std::span<const float> x) const {
  double total = 0.0;
  for (std::size_t f = 0; f < feature_count_; ++f) {
    total += std::max<double>(node.lower[f] - x[f], 0.0) +
             std::max<double>(x[f] - node.upper[f], 0.0);
  }
  return total;
}

void MondrianTree::update(std::span<const float> x, int y, util::Rng& rng) {
  if (root_ < 0) {
    root_ = make_leaf(x, y);
    return;
  }
  std::int32_t j = root_;
  // Link from the parent into j, re-read after any push_back (node storage
  // may reallocate): -1 ⇒ j is the root, else (parent index, right?).
  std::int32_t parent = -1;
  bool from_right = false;
  double parent_time = 0.0;
  while (true) {
    const double e = deficit(nodes_[j], x);
    // Split-above competition (ExtendMondrianBlock): the farther x escapes
    // the box, the sooner the Exponential clock rings; a ring before this
    // node's own split time cuts a new split between parent and node.
    if (e > 0.0 &&
        nodes_.size() + 2 <= static_cast<std::size_t>(params_.max_nodes)) {
      const double split_time = parent_time + rng.exponential(e);
      const double node_time =
          nodes_[j].is_leaf() ? params_.lifetime : nodes_[j].time;
      if (split_time < node_time && split_time < params_.lifetime) {
        // Pick the split feature with probability ∝ its box deficit, then a
        // threshold uniformly inside the gap between box and point.
        double pick = rng.uniform() * e;
        std::size_t feature = 0;
        for (std::size_t f = 0; f < feature_count_; ++f) {
          const double d = std::max<double>(nodes_[j].lower[f] - x[f], 0.0) +
                           std::max<double>(x[f] - nodes_[j].upper[f], 0.0);
          if (d <= 0.0) continue;
          feature = f;
          pick -= d;
          if (pick <= 0.0) break;
        }
        const float threshold =
            x[feature] > nodes_[j].upper[feature]
                ? static_cast<float>(
                      rng.uniform(nodes_[j].upper[feature], x[feature]))
                : static_cast<float>(
                      rng.uniform(x[feature], nodes_[j].lower[feature]));
        const std::int32_t leaf = make_leaf(x, y);
        Node split;
        split.feature = static_cast<std::int32_t>(feature);
        split.threshold = threshold;
        split.time = split_time;
        split.lower.resize(feature_count_);
        split.upper.resize(feature_count_);
        for (std::size_t f = 0; f < feature_count_; ++f) {
          split.lower[f] = std::min(nodes_[j].lower[f], x[f]);
          split.upper[f] = std::max(nodes_[j].upper[f], x[f]);
        }
        if (x[feature] <= threshold) {
          split.left = leaf;
          split.right = j;
        } else {
          split.left = j;
          split.right = leaf;
        }
        nodes_.push_back(std::move(split));
        const auto s = static_cast<std::int32_t>(nodes_.size() - 1);
        if (parent < 0) {
          root_ = s;
        } else if (from_right) {
          nodes_[parent].right = s;
        } else {
          nodes_[parent].left = s;
        }
        return;
      }
    }
    // The clock did not ring (or the tree is full): extend the box and keep
    // descending. Leaves absorb into their counts — paused extension, no
    // within-block regrowth.
    Node& node = nodes_[j];
    for (std::size_t f = 0; f < feature_count_; ++f) {
      node.lower[f] = std::min(node.lower[f], x[f]);
      node.upper[f] = std::max(node.upper[f], x[f]);
    }
    if (node.is_leaf()) {
      ++node.counts[y == 1 ? 1 : 0];
      return;
    }
    parent = j;
    from_right = x[static_cast<std::size_t>(node.feature)] > node.threshold;
    parent_time = node.time;
    j = from_right ? node.right : node.left;
  }
}

double MondrianTree::predict_proba(std::span<const float> x) const {
  const double alpha = params_.smoothing;
  if (root_ < 0) return 0.5;
  std::int32_t j = root_;
  while (!nodes_[j].is_leaf()) {
    const Node& node = nodes_[j];
    j = x[static_cast<std::size_t>(node.feature)] > node.threshold
            ? node.right
            : node.left;
  }
  const Node& leaf = nodes_[j];
  const double n0 = leaf.counts[0];
  const double n1 = leaf.counts[1];
  return (n1 + alpha) / (n0 + n1 + 2.0 * alpha);
}

std::size_t MondrianTree::leaf_count() const {
  std::size_t leaves = 0;
  for (const auto& node : nodes_) leaves += node.is_leaf() ? 1 : 0;
  return leaves;
}

std::size_t MondrianTree::depth() const {
  if (root_ < 0) return 0;
  std::size_t deepest = 0;
  // Iterative DFS with explicit depth; trees are shallow (lifetime-bounded)
  // but recursion depth should not depend on data anyway.
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [j, d] = stack.back();
    stack.pop_back();
    deepest = std::max(deepest, d);
    const Node& node = nodes_[j];
    if (!node.is_leaf()) {
      stack.emplace_back(node.left, d + 1);
      stack.emplace_back(node.right, d + 1);
    }
  }
  return deepest;
}

std::size_t MondrianTree::save_bound() const {
  constexpr std::size_t kInt = checkpoint::kMaxIntChars + 1;
  return 64 + 3 * kInt +
         nodes_.size() *
             (5 * kInt + checkpoint::kMaxFloatChars +
              checkpoint::kMaxDoubleChars + 2 +
              2 * feature_count_ * (checkpoint::kMaxFloatChars + 1));
}

void MondrianTree::save(std::string& out) const {
  namespace cp = checkpoint;
  cp::Writer w(out);
  w << "mondrian-tree-state v1\n";
  w << feature_count_ << ' ' << nodes_.size() << ' ' << root_ << '\n';
  for (const auto& node : nodes_) {
    w << node.left << ' ' << node.right << ' ' << node.feature << ' '
      << cp::hex(node.threshold) << ' ' << cp::hex(node.time) << ' '
      << node.counts[0] << ' ' << node.counts[1];
    for (float v : node.lower) w << ' ' << cp::hex(v);
    for (float v : node.upper) w << ' ' << cp::hex(v);
    w << '\n';
  }
}

void MondrianTree::restore(std::istream& is) {
  namespace cp = checkpoint;
  is >> std::ws;
  std::string line;
  if (!std::getline(is, line) || line != "mondrian-tree-state v1") {
    throw std::runtime_error("checkpoint: not a mondrian-tree-state v1");
  }
  const auto feature_count = cp::get_u64(is, "tree feature count");
  if (feature_count != feature_count_) {
    throw std::runtime_error(
        "checkpoint: mondrian tree feature count does not match");
  }
  const auto node_count = cp::get_u64(is, "node count");
  std::int64_t root = 0;
  if (!(is >> root)) throw std::runtime_error("checkpoint: bad tree root");
  root_ = static_cast<std::int32_t>(root);
  nodes_.clear();
  nodes_.reserve(node_count);
  for (std::uint64_t i = 0; i < node_count; ++i) {
    Node node;
    if (!(is >> node.left >> node.right >> node.feature)) {
      throw std::runtime_error("checkpoint: bad mondrian node line");
    }
    node.threshold = cp::get_float(is);
    node.time = cp::get_double(is);
    node.counts[0] = static_cast<std::uint32_t>(cp::get_u64(is, "count0"));
    node.counts[1] = static_cast<std::uint32_t>(cp::get_u64(is, "count1"));
    node.lower.resize(feature_count_);
    node.upper.resize(feature_count_);
    for (auto& v : node.lower) v = cp::get_float(is);
    for (auto& v : node.upper) v = cp::get_float(is);
    nodes_.push_back(std::move(node));
  }
}

// ---- MondrianForest --------------------------------------------------------

MondrianForest::MondrianForest(std::size_t feature_count,
                               const MondrianForestParams& params,
                               std::uint64_t seed)
    : feature_count_(feature_count),
      params_(params),
      rate_{util::Rng::PoissonRate(params.lambda_neg),
            util::Rng::PoissonRate(params.lambda_pos)} {
  if (feature_count_ == 0) {
    throw std::invalid_argument("MondrianForest: feature_count must be > 0");
  }
  if (params_.n_trees <= 0) {
    throw std::invalid_argument("MondrianForest: n_trees must be > 0");
  }
  util::Rng root_rng(seed);
  trees_.reserve(static_cast<std::size_t>(params_.n_trees));
  tree_rngs_.reserve(static_cast<std::size_t>(params_.n_trees));
  for (int t = 0; t < params_.n_trees; ++t) {
    trees_.emplace_back(feature_count_, params_);
    tree_rngs_.push_back(root_rng.split());
  }
}

void MondrianForest::update(std::span<const float> x, int y,
                            util::ThreadPool* pool) {
  if (x.size() != feature_count_) {
    throw std::invalid_argument("MondrianForest::update: wrong feature count");
  }
  ++samples_seen_;
  const util::Rng::PoissonRate& rate = rate_[y == 1 ? 1 : 0];
  const auto apply = [&](std::size_t t) {
    util::Rng& rng = tree_rngs_[t];
    const unsigned k = rng.poisson(rate);
    for (unsigned i = 0; i < k; ++i) trees_[t].update(x, y, rng);
  };
  if (pool != nullptr && pool->thread_count() > 1) {
    pool->parallel_for(trees_.size(), apply);
  } else {
    for (std::size_t t = 0; t < trees_.size(); ++t) apply(t);
  }
}

void MondrianForest::update_batch(std::span<const LabeledVector> batch,
                                  util::ThreadPool* pool) {
  if (batch.empty()) return;
  for (const auto& s : batch) {
    if (s.x.size() != feature_count_) {
      throw std::invalid_argument(
          "MondrianForest::update_batch: wrong feature count");
    }
  }
  if (pool == nullptr || pool->thread_count() <= 1) {
    for (const auto& s : batch) update(s.x, s.y, nullptr);
    return;
  }
  samples_seen_ += batch.size();
  // Tree state and RNG stream are private per tree, so each tree sees the
  // same sample order as the sequential path — the loops interchange.
  pool->parallel_for(trees_.size(), [&](std::size_t t) {
    util::Rng& rng = tree_rngs_[t];
    for (const auto& s : batch) {
      const unsigned k = rng.poisson(rate_[s.y == 1 ? 1 : 0]);
      for (unsigned i = 0; i < k; ++i) trees_[t].update(s.x, s.y, rng);
    }
  });
}

double MondrianForest::predict_proba(std::span<const float> x) const {
  if (x.size() != feature_count_) {
    throw std::invalid_argument(
        "MondrianForest::predict: wrong feature count");
  }
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predict_proba(x);
  return sum / static_cast<double>(trees_.size());
}

std::size_t MondrianForest::total_nodes() const {
  std::size_t total = 0;
  for (const auto& tree : trees_) total += tree.node_count();
  return total;
}

void MondrianForest::bind_metrics(obs::Registry& registry) {
  metrics_.nodes = &registry.gauge("mondrian_forest_nodes",
                                   "total nodes across all Mondrian trees");
  metrics_.leaves = &registry.gauge("mondrian_forest_leaves",
                                    "total leaves across all Mondrian trees");
  metrics_.depth_mean = &registry.gauge("mondrian_forest_depth_mean",
                                        "mean tree depth across the forest");
  metrics_.samples_seen =
      &registry.counter("mondrian_forest_samples_seen_total",
                        "labeled samples the forest trained on");
}

void MondrianForest::publish_metrics() const {
  if (metrics_.nodes == nullptr) return;
  std::size_t nodes = 0;
  std::size_t leaves = 0;
  double depth = 0.0;
  for (const auto& tree : trees_) {
    nodes += tree.node_count();
    leaves += tree.leaf_count();
    depth += static_cast<double>(tree.depth());
  }
  metrics_.nodes->set(static_cast<double>(nodes));
  metrics_.leaves->set(static_cast<double>(leaves));
  metrics_.depth_mean->set(depth / static_cast<double>(trees_.size()));
  metrics_.samples_seen->set(samples_seen_);
}

void MondrianForest::save(std::string& out, util::ThreadPool* pool) const {
  namespace cp = checkpoint;
  cp::Writer(out) << "mondrian-forest-state v1\n"
                  << feature_count_ << ' ' << trees_.size() << ' '
                  << samples_seen_ << '\n';
  util::append_ordered(
      out, trees_.size(), pool,
      [&](std::size_t t) {
        return 8 + cp::kMaxIntChars + cp::kRngChars + trees_[t].save_bound();
      },
      [&](std::string& text, std::size_t t) {
        cp::Writer(text) << "tree " << t << tree_rngs_[t] << '\n';
        trees_[t].save(text);
      });
}

void MondrianForest::save(std::ostream& os) const {
  std::string out;
  save(out);
  os << out;
  robust::commit_stream(os, "mondrian forest checkpoint");
}

void MondrianForest::restore(std::istream& is) {
  namespace cp = checkpoint;
  is >> std::ws;
  std::string line;
  if (!std::getline(is, line) || line != "mondrian-forest-state v1") {
    throw std::runtime_error("checkpoint: not a mondrian-forest-state v1");
  }
  const auto feature_count = cp::get_u64(is, "forest feature count");
  const auto n_trees = cp::get_u64(is, "tree count");
  if (feature_count != feature_count_ || n_trees != trees_.size()) {
    throw std::runtime_error(
        "checkpoint: mondrian forest shape does not match the receiving "
        "object");
  }
  samples_seen_ = cp::get_u64(is, "samples_seen");
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    cp::expect_tag(is, "tree");
    const auto index = cp::get_u64(is, "tree index");
    if (index != t) throw std::runtime_error("checkpoint: tree order");
    tree_rngs_[t] = cp::get_rng(is);
    trees_[t].restore(is);
  }
}

}  // namespace core
