// A single on-line random tree (Saffari et al. 2009, as adapted by the
// paper's Algorithm 1).
//
// Every leaf owns a set of N random tests "x[feature] > θ" (θ drawn
// uniformly from the feature's value range — inputs are min-max scaled to
// [0, 1] upstream). The leaf accumulates, per test, the class counts of the
// samples falling left/right of θ. Once the leaf has seen at least
// MinParentSize (α) samples and some test reaches a Gini information gain of
// at least MinGain (β, Eq. 2), the best test becomes the split and two fresh
// leaves are created, their class priors seeded from the winning test's
// observed partition.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace core {

namespace checkpoint {
struct StreamOracle;  // tests/support: the byte-for-byte save oracle
}  // namespace checkpoint

struct OnlineTreeParams {
  int n_tests = 256;         ///< N random tests per leaf (paper uses 5000)
  int min_parent_size = 200; ///< α: samples a leaf must see before splitting
  /// β: minimum Gini gain of the chosen split. With `relative_gain` (the
  /// default) the bar is β·G(D) — the split must remove at least a β
  /// fraction of the node's impurity. An absolute bar (ΔG ≥ β, the paper's
  /// literal reading) makes β = 0.1 unreachable on imbalance-corrected
  /// streams, where even a 40:1 node only has G(D) ≈ 0.05: no node could
  /// ever split. The relative form keeps the paper's constant meaningful
  /// at any class ratio.
  double min_gain = 0.1;
  bool relative_gain = true;
  int max_depth = 20;        ///< leaves at this depth stop growing
  /// Samples a fresh leaf buffers before creating its candidate tests.
  /// Thresholds are then drawn from the buffered *observed values* (with a
  /// uniform-[0,1] exploration fraction): SMART error counters are so
  /// skewed that blind uniform thresholds almost never land in the
  /// informative region. Must be ≤ min_parent_size (splits can't precede
  /// test creation anyway).
  int threshold_pool = 64;
  /// Fraction of tests with a uniform-[0,1] threshold instead of a
  /// data-driven one.
  double uniform_test_fraction = 0.25;
};

/// The outcome of one leaf's split decision: whether to split, on which
/// candidate test, and that test's Gini gain (paper Eq. 2).
struct SplitDecision {
  bool split = false;
  std::size_t test = 0;
  double gain = 0.0;
};

/// The bar a split's gain must reach: β, or β·G(D) with `relative_gain`
/// (see OnlineTreeParams::min_gain).
double split_bar(std::uint32_t n0, std::uint32_t n1, double min_gain,
                 bool relative_gain);

/// The reference decision: a first-max scan of gini_gain over every test
/// (right-side counts `right0[t]`, `right1[t]` of a leaf holding (n0, n1)),
/// then the bar. A split needs gain > 0, gain ≥ `bar` and a non-empty child
/// on each side; without one the result is a default SplitDecision.
SplitDecision reference_split(std::uint32_t n0, std::uint32_t n1,
                              std::span<const std::uint32_t> right0,
                              std::span<const std::uint32_t> right1,
                              double bar);

/// The decision OnlineTree makes: always reference_split's result against
/// split_bar (same split, test and gain bits), but cheap on the common
/// leaves. A one-class leaf returns at once (every gain there is exactly
/// 0); otherwise a division-free screen must find a test that may reach
/// the bar before reference_split runs. See DESIGN.md, "The learn kernel".
SplitDecision choose_split(std::uint32_t n0, std::uint32_t n1,
                           std::span<const std::uint32_t> right0,
                           std::span<const std::uint32_t> right1,
                           double min_gain, bool relative_gain);

class OnlineTree {
 public:
  /// `feature_count` fixes the input dimensionality; thresholds are drawn
  /// from [0, 1] (callers feed scaled features).
  OnlineTree(std::size_t feature_count, const OnlineTreeParams& params,
             util::Rng rng);

  /// Route ⟨x, y⟩ to its leaf, update statistics, split if α/β are met.
  void update(std::span<const float> x, int y);

  /// P(y = 1 | x) from the reached leaf (Laplace-smoothed).
  double predict_proba(std::span<const float> x) const;
  int predict(std::span<const float> x, double threshold = 0.5) const {
    return predict_proba(x) >= threshold ? 1 : 0;
  }

  /// Discard all structure and statistics; the tree restarts as a fresh
  /// root leaf (used when the forest replaces a decayed tree).
  void reset();

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  int depth() const;
  std::uint64_t samples_seen() const { return samples_seen_; }

  /// Cache-invalidation epochs for compiled inference snapshots (see
  /// core/flat_forest.hpp). `structure_epoch` moves only when the node
  /// topology changes (split, reset, restore); `stats_epoch` moves on every
  /// update as well, because a leaf's running P(y=1) estimate changes even
  /// when no split happens. A compiled form is exact iff both match:
  /// structure arrays may be reused while only `stats_epoch` moved, but the
  /// leaf probabilities must be re-read. Epochs are monotonic for the
  /// lifetime of the object and intentionally not checkpointed — restore()
  /// bumps both so stale caches can never survive a state swap.
  std::uint64_t structure_epoch() const { return structure_epoch_; }
  std::uint64_t stats_epoch() const { return stats_epoch_; }

  /// Copy the per-node P(y=1) estimates in node-index order (the same order
  /// export_structure uses). `out` is resized to node_count().
  void export_probs(std::vector<float>& out) const;

  /// Total Gini gain accrued by splits per feature (interpretability hook,
  /// same semantics as the offline forests' importance).
  const std::vector<double>& split_gain_by_feature() const {
    return split_gain_;
  }

  /// Inference-only structural snapshot (used by core::freeze to turn a live
  /// online forest into a serializable offline one).
  struct FrozenNode {
    int feature = -1;  ///< -1 = leaf; else go right when x[feature] > threshold
    float threshold = 0.0f;
    std::int32_t left = -1;
    std::int32_t right = -1;
    float prob = 0.0f;
  };
  std::vector<FrozenNode> export_structure() const;

  /// Checkpoint the complete learning state (structure, statistics,
  /// buffers, RNG stream) so learning can resume exactly after a restart.
  /// restore() requires the receiving tree to have identical parameters and
  /// feature count; see core/checkpoint.hpp for the forest-level API.
  /// save(std::string&) appends; the ostream form wraps it.
  void save(std::string& out) const;
  void save(std::ostream& os) const;
  void restore(std::istream& is);

  /// Upper bound on the bytes save() appends (a reserve-ahead size).
  std::size_t save_bound() const;

 private:
  friend struct checkpoint::StreamOracle;

  /// A leaf's statistics. The candidate tests "x[feature[t]] >
  /// threshold[t]" are stored as parallel arrays, so counting one sample is
  /// a straight-line compare-and-add over each array.
  struct LeafStats {
    std::uint32_t n[2] = {0, 0};  ///< class counts seen at this leaf
    std::vector<std::uint16_t> feature;
    std::vector<float> threshold;
    /// Per test and class: counts of samples with x[f] > θ ("right" side).
    std::vector<std::uint32_t> right[2];
    /// First samples routed here, buffered until tests are created (the
    /// buffered samples are replayed into the test statistics, so counts
    /// stay unbiased): row-major features and the class of each sample.
    std::vector<float> buffer_x;
    std::vector<std::uint8_t> buffer_y;
    bool tests_ready = false;

    std::size_t test_count() const { return feature.size(); }
    std::span<const float> buffered(std::size_t i, std::size_t f) const {
      return {buffer_x.data() + i * f, f};
    }
  };

  struct Node {
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int16_t depth = 0;
    std::int32_t split_feature = -1;  ///< -1 = leaf
    float split_threshold = 0.0f;
    float prob = 0.5f;  ///< running P(y=1) estimate (prior for fresh leaves)
    std::unique_ptr<LeafStats> stats;  ///< null once split or depth-capped
  };

  std::int32_t make_leaf(std::int16_t depth, float prior);
  void create_tests(LeafStats& stats);
  static void apply_to_tests(LeafStats& stats, std::span<const float> x,
                             std::size_t cls);
  std::size_t route_to_leaf(std::span<const float> x) const;
  void try_split(std::size_t leaf_index);

  std::size_t feature_count_;
  OnlineTreeParams params_;
  util::Rng rng_;
  std::vector<Node> nodes_;
  std::uint64_t samples_seen_ = 0;
  std::vector<double> split_gain_;
  std::uint64_t structure_epoch_ = 0;  ///< split / reset / restore
  std::uint64_t stats_epoch_ = 0;      ///< any update (leaf probs moved)
};

/// Gini gain of a candidate partition (paper Eq. 1–2):
/// ΔG = G(D) − |Dl|/|D| G(Dl) − |Dr|/|D| G(Dr), with counts
/// D = (n0, n1) and Dr = (r0, r1); Dl is the complement.
double gini_gain(std::uint32_t n0, std::uint32_t n1, std::uint32_t r0,
                 std::uint32_t r1);

}  // namespace core
