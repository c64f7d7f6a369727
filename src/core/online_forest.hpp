// Online Random Forest for disk-failure prediction (paper Algorithm 1).
//
// For each arriving labeled sample ⟨x, y⟩ every tree draws an update
// multiplicity k from Poisson(λp) when y = 1 or Poisson(λn) when y = 0
// (Eq. 3) — the paper's imbalance-aware extension of Oza's online bagging.
// With k > 0 the tree is updated k times; with k = 0 the sample is
// out-of-bag for that tree and instead refreshes the tree's OOBE estimate.
// A tree whose OOBE exceeds θ_OOBE after at least θ_AGE in-bag updates is
// discarded and regrown from scratch, which is what lets the forest track a
// drifting SMART distribution ("unlearning").
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/drift.hpp"
#include "core/flat_forest.hpp"
#include "core/online_tree.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace core {

struct OnlineForestParams {
  int n_trees = 30;  ///< T (§4.4)
  OnlineTreeParams tree = {};
  double lambda_pos = 1.0;   ///< λp (Eq. 3)
  double lambda_neg = 0.02;  ///< λn (Eq. 3); 1.0 disables imbalance handling

  /// Tree-replacement policy. OOBE is a class-balanced exponentially-
  /// weighted error (positives are rare; a plain average would let a tree
  /// predicting "healthy" forever look perfect).
  double oobe_threshold = 0.45;       ///< θ_OOBE
  std::uint64_t age_threshold = 3000; ///< θ_AGE, in-bag updates
  double oobe_decay = 0.005;          ///< EWMA step for the OOBE estimate
  std::uint32_t min_oob_evals = 100;  ///< per class, before a tree may be judged
  bool enable_replacement = true;     ///< ablation switch

  /// Optional Page–Hinkley monitor on the ensemble's prequential error
  /// (one detector per class; see core/drift.hpp). When it fires, the tree
  /// with the worst OOBE is rebuilt immediately — a sharper unlearning
  /// trigger than waiting for θ_OOBE/θ_AGE.
  bool enable_drift_monitor = false;
  PageHinkleyParams drift = {};

  /// Forest-level decision threshold for predict(); experiments calibrate
  /// their own thresholds on scores from predict_proba().
  double decision_threshold = 0.5;
};

/// One already-scaled sample with its label, ready for the forest.
struct LabeledVector {
  std::vector<float> x;
  int y = 0;
};

class OnlineForest {
 public:
  OnlineForest(std::size_t feature_count, const OnlineForestParams& params,
               std::uint64_t seed);

  // Movable despite the atomic counter (which only needs a plain load/store
  // here — nothing runs concurrently with a move).
  OnlineForest(OnlineForest&& other) noexcept
      : feature_count_(other.feature_count_),
        params_(other.params_),
        rate_{other.rate_[0], other.rate_[1]},
        trees_(std::move(other.trees_)),
        tree_rngs_(std::move(other.tree_rngs_)),
        oob_(std::move(other.oob_)),
        age_(std::move(other.age_)),
        drift_monitor_{other.drift_monitor_[0], other.drift_monitor_[1]},
        samples_seen_(other.samples_seen_),
        trees_replaced_(other.trees_replaced_.load(std::memory_order_relaxed)),
        drift_alarms_(other.drift_alarms_),
        metrics_(other.metrics_),
        flat_(std::move(other.flat_)) {}
  OnlineForest& operator=(OnlineForest&& other) noexcept {
    feature_count_ = other.feature_count_;
    params_ = other.params_;
    rate_[0] = other.rate_[0];
    rate_[1] = other.rate_[1];
    trees_ = std::move(other.trees_);
    tree_rngs_ = std::move(other.tree_rngs_);
    oob_ = std::move(other.oob_);
    age_ = std::move(other.age_);
    drift_monitor_[0] = other.drift_monitor_[0];
    drift_monitor_[1] = other.drift_monitor_[1];
    samples_seen_ = other.samples_seen_;
    trees_replaced_.store(
        other.trees_replaced_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    drift_alarms_ = other.drift_alarms_;
    metrics_ = other.metrics_;
    flat_ = std::move(other.flat_);
    return *this;
  }

  /// Process one labeled sample (Algorithm 1). Thread-safe across trees:
  /// per-tree work optionally runs on `pool`.
  void update(std::span<const float> x, int y,
              util::ThreadPool* pool = nullptr);

  /// Process a batch of labeled samples in order. Bit-identical to calling
  /// update() on each sample in sequence, for any pool: per-tree state
  /// (structure, RNG stream, OOBE, age) only ever depends on the sequence of
  /// samples that tree sees, so the loops can be interchanged — each tree
  /// consumes the whole batch — and the pool parallelises across trees with
  /// a single fork/join per batch instead of one per sample. Falls back to
  /// the sequential per-sample path when the drift monitor is enabled (its
  /// prequential test-then-train step orders ensemble reads between
  /// updates).
  void update_batch(std::span<const LabeledVector> batch,
                    util::ThreadPool* pool = nullptr);

  /// Mean of per-tree probabilities (reference traversal over the live
  /// learning structures).
  double predict_proba(std::span<const float> x) const;
  int predict(std::span<const float> x) const {
    return predict_proba(x) >= params_.decision_threshold ? 1 : 0;
  }

  /// Refresh the compiled flat inference cache (core/flat_forest.hpp) and
  /// return it. Cheap when no tree changed (per-tree epoch compares);
  /// otherwise rebuilds/resyncs only the trees that moved. Mutates the
  /// cache: call from the updating thread at a quiescent point, never
  /// concurrently with update() or predictions through flat().
  const FlatForestScorer& sync_flat();

  /// The flat cache as last synced. Predictions through it are
  /// bit-identical to predict_proba provided sync_flat() ran since the
  /// forest last changed; they are const and safe from many threads.
  const FlatForestScorer& flat() const { return flat_; }

  /// Score `out.size()` samples held row-major in `xs`
  /// (xs.size() == out.size() * feature_count()) through the flat layout,
  /// syncing it first. Bit-identical to predict_proba on each row.
  void predict_batch(std::span<const float> xs, std::span<double> out);

  std::size_t feature_count() const { return feature_count_; }
  std::size_t tree_count() const { return trees_.size(); }
  const OnlineTree& tree(std::size_t i) const { return trees_.at(i); }
  std::uint64_t samples_seen() const { return samples_seen_; }
  std::uint64_t trees_replaced() const {
    return trees_replaced_.load(std::memory_order_relaxed);
  }
  std::uint64_t drift_alarms() const { return drift_alarms_; }

  /// Class-balanced OOBE of tree i (0.5 until min_oob_evals per class).
  double oobe(std::size_t i) const;
  std::uint64_t tree_age(std::size_t i) const { return age_.at(i); }

  /// Aggregated split-gain importance across trees, normalised to sum to 1.
  std::vector<double> feature_importance() const;

  /// Register the forest's model-aging telemetry (§3.4 observability) in
  /// `registry`: balanced-OOBE mean/max and mean in-bag tree age as gauges,
  /// plus tree replacements, drift alarms and samples seen as counters.
  /// `registry` must outlive the forest (the engine owns both). The
  /// instruments are refreshed only by publish_metrics() — typically once
  /// per snapshot — so an unbound or unpublished forest pays nothing.
  void bind_metrics(obs::Registry& registry);

  /// Refresh the bound instruments from current state (O(trees); no-op when
  /// bind_metrics was never called). Reads forest state, so call it from the
  /// updating thread at a quiescent point (e.g. a day boundary), never
  /// concurrently with update().
  void publish_metrics() const;

  /// Checkpoint/restore the complete forest state (every tree's structure
  /// and statistics, OOBE/age bookkeeping, drift monitors, RNG streams).
  /// restore() requires identical construction parameters. save() appends
  /// to `out`, formatting trees on `pool` when given; the bytes are the
  /// same for any pool. The ostream form wraps it.
  void save(std::string& out, util::ThreadPool* pool = nullptr) const;
  void save(std::ostream& os) const;
  void restore(std::istream& is);

  const OnlineForestParams& params() const { return params_; }

 private:
  friend struct checkpoint::StreamOracle;

  struct OobState {
    double err[2] = {0.5, 0.5};     ///< EWMA error per true class
    std::uint32_t evals[2] = {0, 0};
  };

  void update_one_tree(std::size_t t, std::span<const float> x, int y);

  std::size_t feature_count_;
  OnlineForestParams params_;
  util::Rng::PoissonRate rate_[2];  ///< Poisson(λn), Poisson(λp) by label
  std::vector<OnlineTree> trees_;
  std::vector<util::Rng> tree_rngs_;  ///< per-tree Poisson streams
  std::vector<OobState> oob_;
  std::vector<std::uint64_t> age_;
  PageHinkley drift_monitor_[2];  ///< per true class
  std::uint64_t samples_seen_ = 0;
  /// Atomic: update()/update_batch() may replace decayed trees from several
  /// pool workers at once; everything else those workers touch is per-tree.
  std::atomic<std::uint64_t> trees_replaced_{0};
  std::uint64_t drift_alarms_ = 0;

  /// Telemetry instruments owned by the binding registry (see bind_metrics);
  /// all null until bound. Pointers stay valid across forest moves because
  /// the registry heap-allocates its instruments.
  struct Metrics {
    obs::Gauge* oobe_mean = nullptr;
    obs::Gauge* oobe_max = nullptr;
    obs::Gauge* tree_age_mean = nullptr;
    obs::Counter* trees_replaced = nullptr;
    obs::Counter* drift_alarms = nullptr;
    obs::Counter* samples_seen = nullptr;
    obs::Counter* flat_rebuilds = nullptr;
  };
  Metrics metrics_;

  /// Compiled flat inference cache (lazily synced; see sync_flat()).
  FlatForestScorer flat_;
};

}  // namespace core
