#include "core/online_forest.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace core {

OnlineForest::OnlineForest(std::size_t feature_count,
                           const OnlineForestParams& params,
                           std::uint64_t seed)
    : feature_count_(feature_count),
      params_(params),
      rate_{util::Rng::PoissonRate(params.lambda_neg),
            util::Rng::PoissonRate(params.lambda_pos)} {
  if (params_.n_trees <= 0) {
    throw std::invalid_argument("OnlineForest: n_trees must be > 0");
  }
  if (params_.lambda_pos < 0.0 || params_.lambda_neg < 0.0) {
    throw std::invalid_argument("OnlineForest: Poisson rates must be >= 0");
  }
  util::Rng root(seed);
  const auto n = static_cast<std::size_t>(params_.n_trees);
  trees_.reserve(n);
  tree_rngs_.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    trees_.emplace_back(feature_count_, params_.tree, root.split());
    tree_rngs_.push_back(root.split());
  }
  oob_.resize(n);
  age_.assign(n, 0);
  drift_monitor_[0] = PageHinkley(params_.drift);
  drift_monitor_[1] = PageHinkley(params_.drift);
}

void OnlineForest::update_one_tree(std::size_t t, std::span<const float> x,
                                   int y) {
  const unsigned k = tree_rngs_[t].poisson(rate_[y == 1 ? 1 : 0]);
  if (k > 0) {
    for (unsigned i = 0; i < k; ++i) trees_[t].update(x, y);
    age_[t] += k;
    return;
  }
  // Out-of-bag for this tree: refresh OOBE, then decide decay (Alg. 1
  // lines 21–27).
  OobState& oob = oob_[t];
  const std::size_t cls = y == 1 ? 1 : 0;
  const double wrong =
      trees_[t].predict(x, params_.decision_threshold) == y ? 0.0 : 1.0;
  oob.err[cls] += params_.oobe_decay * (wrong - oob.err[cls]);
  if (oob.evals[cls] < params_.min_oob_evals) ++oob.evals[cls];

  if (!params_.enable_replacement) return;
  const bool judged = oob.evals[0] >= params_.min_oob_evals &&
                      oob.evals[1] >= params_.min_oob_evals;
  const double balanced = 0.5 * (oob.err[0] + oob.err[1]);
  if (judged && balanced > params_.oobe_threshold &&
      age_[t] > params_.age_threshold) {
    trees_[t].reset();
    oob_[t] = OobState{};
    age_[t] = 0;
    trees_replaced_.fetch_add(1, std::memory_order_relaxed);
  }
}

void OnlineForest::update(std::span<const float> x, int y,
                          util::ThreadPool* pool) {
  if (x.size() != feature_count_) {
    throw std::invalid_argument("OnlineForest::update: wrong feature count");
  }
  ++samples_seen_;
  if (params_.enable_drift_monitor) {
    // Prequential test-then-train: score with the current ensemble before
    // it sees the label. Runs single-threaded, so the shared detectors need
    // no synchronisation with the per-tree updates below.
    const double wrong = predict(x) == y ? 0.0 : 1.0;
    const std::size_t cls = y == 1 ? 1 : 0;
    if (drift_monitor_[cls].add(wrong)) {
      ++drift_alarms_;
      drift_monitor_[cls].reset();
      // Rebuild the single worst tree by balanced OOBE (ties → oldest).
      std::size_t worst = 0;
      double worst_err = -1.0;
      for (std::size_t t = 0; t < trees_.size(); ++t) {
        const double err = 0.5 * (oob_[t].err[0] + oob_[t].err[1]);
        if (err > worst_err ||
            (err == worst_err && age_[t] > age_[worst])) {
          worst_err = err;
          worst = t;
        }
      }
      trees_[worst].reset();
      oob_[worst] = OobState{};
      age_[worst] = 0;
      trees_replaced_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (pool != nullptr && pool->thread_count() > 1) {
    pool->parallel_for(trees_.size(),
                       [&](std::size_t t) { update_one_tree(t, x, y); });
  } else {
    for (std::size_t t = 0; t < trees_.size(); ++t) update_one_tree(t, x, y);
  }
}

void OnlineForest::update_batch(std::span<const LabeledVector> batch,
                                util::ThreadPool* pool) {
  if (batch.empty()) return;
  for (const auto& s : batch) {
    if (s.x.size() != feature_count_) {
      throw std::invalid_argument(
          "OnlineForest::update_batch: wrong feature count");
    }
  }
  if (params_.enable_drift_monitor || pool == nullptr ||
      pool->thread_count() <= 1) {
    for (const auto& s : batch) update(s.x, s.y, pool);
    return;
  }
  samples_seen_ += batch.size();
  pool->parallel_for(trees_.size(), [&](std::size_t t) {
    for (const auto& s : batch) update_one_tree(t, s.x, s.y);
  });
}

double OnlineForest::predict_proba(std::span<const float> x) const {
  if (x.size() != feature_count_) {
    throw std::invalid_argument("OnlineForest::predict: wrong feature count");
  }
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predict_proba(x);
  return sum / static_cast<double>(trees_.size());
}

const FlatForestScorer& OnlineForest::sync_flat() {
  flat_.sync(trees_);
  return flat_;
}

void OnlineForest::predict_batch(std::span<const float> xs,
                                 std::span<double> out) {
  if (xs.size() != out.size() * feature_count_) {
    throw std::invalid_argument(
        "OnlineForest::predict_batch: xs must hold out.size() rows of "
        "feature_count() floats");
  }
  sync_flat();
  flat_.predict_batch(xs, feature_count_, out);
}

double OnlineForest::oobe(std::size_t i) const {
  const OobState& oob = oob_.at(i);
  if (oob.evals[0] < params_.min_oob_evals ||
      oob.evals[1] < params_.min_oob_evals) {
    return 0.5;
  }
  return 0.5 * (oob.err[0] + oob.err[1]);
}

void OnlineForest::bind_metrics(obs::Registry& registry) {
  metrics_.oobe_mean = &registry.gauge(
      "orf_forest_oobe_mean",
      "mean class-balanced out-of-bag error across trees");
  metrics_.oobe_max = &registry.gauge(
      "orf_forest_oobe_max",
      "worst class-balanced out-of-bag error across trees");
  metrics_.tree_age_mean = &registry.gauge(
      "orf_forest_tree_age_mean", "mean in-bag updates since tree (re)growth");
  metrics_.trees_replaced = &registry.counter(
      "orf_forest_trees_replaced_total",
      "decayed trees discarded and regrown (model aging, paper 3.4)");
  metrics_.drift_alarms = &registry.counter(
      "orf_forest_drift_alarms_total",
      "Page-Hinkley drift detections on the prequential error");
  metrics_.samples_seen = &registry.counter(
      "orf_forest_samples_seen_total", "labeled samples the forest trained on");
  metrics_.flat_rebuilds = &registry.counter(
      "orf_forest_flat_rebuilds_total",
      "flat-scorer structure recompiles (tree split/reset/restore)");
}

void OnlineForest::publish_metrics() const {
  if (metrics_.oobe_mean == nullptr) return;
  double mean = 0.0;
  double max = 0.0;
  double age = 0.0;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const double err = oobe(t);
    mean += err;
    max = std::max(max, err);
    age += static_cast<double>(age_[t]);
  }
  const auto n = static_cast<double>(trees_.size());
  metrics_.oobe_mean->set(mean / n);
  metrics_.oobe_max->set(max);
  metrics_.tree_age_mean->set(age / n);
  metrics_.trees_replaced->set(trees_replaced());
  metrics_.drift_alarms->set(drift_alarms_);
  metrics_.samples_seen->set(samples_seen_);
  metrics_.flat_rebuilds->set(flat_.rebuilds());
}

std::vector<double> OnlineForest::feature_importance() const {
  std::vector<double> importance(feature_count_, 0.0);
  for (const auto& tree : trees_) {
    const auto& gain = tree.split_gain_by_feature();
    for (std::size_t f = 0; f < importance.size(); ++f) {
      importance[f] += gain[f];
    }
  }
  const double total =
      std::accumulate(importance.begin(), importance.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : importance) v /= total;
  }
  return importance;
}

}  // namespace core
