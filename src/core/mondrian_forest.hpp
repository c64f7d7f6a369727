// Mondrian Forest for online disk-failure prediction (Lakshminarayanan,
// Roy & Teh, "Mondrian Forests: Efficient Online Random Forests",
// arXiv:1406.2673) — the second model behind the engine::ModelBackend seam.
//
// Where the paper's ORF adapts by discarding decayed trees, a Mondrian tree
// adapts structurally: every node carries the bounding box of the data it
// has absorbed and a split time drawn from the Mondrian process. A sample
// that lands outside a node's box opens a competition between extending the
// box and cutting a brand-new split *above* the node (the new split's time
// is the parent time plus an Exponential draw with rate equal to the box
// deficit, accepted when it beats the node's own split time), so the tree's
// distribution stays invariant to the order of arrival.
//
// This implementation is the *paused-extension* online variant: blocks
// absorb in-box samples into leaf statistics without re-running the inner
// Mondrian sampler, and the tree only grows through the split-above
// mechanism. The `lifetime` parameter caps split times exactly as the
// Mondrian budget λ does, bounding depth; `max_nodes` hard-caps memory.
// Class imbalance uses the same Poisson(λp)/Poisson(λn) online bagging as
// the ORF (paper Eq. 3), so both backends see identical stream semantics.
//
// Determinism contract mirrors OnlineForest: per-tree RNG streams split
// from the seed, update_batch is bit-identical to per-sample updates for
// any thread pool, and save()/restore() round-trips the complete state
// (boxes, times, counts, RNG streams) exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/online_forest.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace core {

struct MondrianForestParams {
  int n_trees = 30;
  /// Mondrian budget λ: no split time may exceed it. Bounds tree depth in
  /// distribution; the default admits effectively unbounded growth on the
  /// unit-scaled SMART features (box deficits are O(1), so split times climb
  /// by ~1/deficit per level).
  double lifetime = 50.0;
  /// Online-bagging Poisson rates, shared semantics with OnlineForestParams
  /// (λp for positives, λn for negatives; Eq. 3 of the source paper).
  double lambda_pos = 1.0;
  double lambda_neg = 0.02;
  /// Hard cap on nodes per tree; a full tree keeps absorbing into leaves.
  std::uint32_t max_nodes = 16384;
  /// Laplace smoothing α on leaf class posteriors.
  double smoothing = 1.0;
  /// Decision threshold for predict().
  double decision_threshold = 0.5;
};

/// One tree of the Mondrian process. Nodes live in one contiguous vector;
/// leaves carry class counts, internal nodes a split (feature, threshold,
/// time). Every node keeps the bounding box of the samples routed to it.
class MondrianTree {
 public:
  MondrianTree(std::size_t feature_count, const MondrianForestParams& params);

  /// Absorb one scaled sample (ExtendMondrianBlock with paused inner
  /// sampling; see file header). `rng` is the owning tree's private stream.
  void update(std::span<const float> x, int y, util::Rng& rng);

  /// P(y = 1 | x): descend to the leaf owning x, Laplace-smoothed counts.
  double predict_proba(std::span<const float> x) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  std::size_t depth() const;

  /// Append the tree's complete state; save_bound() is an upper bound on
  /// the bytes it appends (a reserve-ahead size).
  void save(std::string& out) const;
  std::size_t save_bound() const;
  void restore(std::istream& is);

 private:
  friend class MondrianForest;
  friend struct checkpoint::StreamOracle;

  struct Node {
    std::int32_t left = -1;    ///< -1 ⇒ leaf
    std::int32_t right = -1;
    std::int32_t feature = -1;
    float threshold = 0.0f;
    double time = 0.0;  ///< split time; meaningful for internal nodes only
    std::vector<float> lower;  ///< bounding box of absorbed samples
    std::vector<float> upper;
    std::uint32_t counts[2] = {0, 0};  ///< leaf class counts
    bool is_leaf() const { return left < 0; }
  };

  std::int32_t make_leaf(std::span<const float> x, int y);
  /// Box deficit of x against node j: Σ_f max(l_f−x_f, 0) + max(x_f−u_f, 0).
  double deficit(const Node& node, std::span<const float> x) const;

  std::size_t feature_count_;
  MondrianForestParams params_;
  std::vector<Node> nodes_;  ///< empty until the first sample
  std::int32_t root_ = -1;
};

/// Ensemble of Mondrian trees with ORF-style imbalance-aware online bagging.
class MondrianForest {
 public:
  MondrianForest(std::size_t feature_count, const MondrianForestParams& params,
                 std::uint64_t seed);

  /// Process one scaled labeled sample: every tree draws its Poisson
  /// multiplicity from its private stream and absorbs the sample that many
  /// times. Optionally tree-parallel on `pool` (per-tree state is disjoint).
  void update(std::span<const float> x, int y,
              util::ThreadPool* pool = nullptr);

  /// Bit-identical to update() on each sample in sequence, for any pool:
  /// each tree's state depends only on the sample sequence it sees, so the
  /// tree/sample loops interchange (one fork/join per batch).
  void update_batch(std::span<const LabeledVector> batch,
                    util::ThreadPool* pool = nullptr);

  /// Mean of per-tree posteriors. Const and safe from many threads.
  double predict_proba(std::span<const float> x) const;
  int predict(std::span<const float> x) const {
    return predict_proba(x) >= params_.decision_threshold ? 1 : 0;
  }

  std::size_t feature_count() const { return feature_count_; }
  std::size_t tree_count() const { return trees_.size(); }
  const MondrianTree& tree(std::size_t i) const { return trees_.at(i); }
  std::uint64_t samples_seen() const { return samples_seen_; }
  std::size_t total_nodes() const;

  /// Register structural telemetry in `registry` (which must outlive the
  /// forest): node/leaf totals and mean depth as gauges, samples seen as a
  /// counter. Instruments refresh only in publish_metrics().
  void bind_metrics(obs::Registry& registry);
  void publish_metrics() const;

  /// Complete-state checkpoint ("mondrian-forest v1"): every node's box,
  /// split and counts plus the exact RNG streams. restore() requires
  /// identical construction parameters. save() appends to `out`,
  /// formatting trees on `pool` when given (same bytes for any pool); the
  /// ostream form wraps it.
  void save(std::string& out, util::ThreadPool* pool = nullptr) const;
  void save(std::ostream& os) const;
  void restore(std::istream& is);

  const MondrianForestParams& params() const { return params_; }

 private:
  friend struct checkpoint::StreamOracle;
  std::size_t feature_count_;
  MondrianForestParams params_;
  util::Rng::PoissonRate rate_[2];  ///< Poisson(λn), Poisson(λp) by label
  std::vector<MondrianTree> trees_;
  std::vector<util::Rng> tree_rngs_;  ///< per-tree Poisson + split streams
  std::uint64_t samples_seen_ = 0;

  struct Metrics {
    obs::Gauge* nodes = nullptr;
    obs::Gauge* leaves = nullptr;
    obs::Gauge* depth_mean = nullptr;
    obs::Counter* samples_seen = nullptr;
  };
  Metrics metrics_;
};

}  // namespace core
