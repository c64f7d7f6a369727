// The paper's Online Random Forest behind the ModelBackend seam.
//
// A thin adapter: every virtual forwards to the core::OnlineForest member
// the engine used to own directly, so the "orf" backend is bit-identical to
// the pre-seam engine (the differential, golden and determinism suites are
// the proof). The day-batch scoring decision — compiled flat SoA kernel for
// batches worth the cache sync, reference traversal otherwise — moves here
// from the engine, since it is an ORF-specific trade-off.
#pragma once

#include "core/online_forest.hpp"
#include "engine/model_backend.hpp"

namespace engine {

class OrfBackend final : public ModelBackend {
 public:
  OrfBackend(std::size_t feature_count, const EngineParams& params,
             std::uint64_t seed);

  std::string_view name() const override { return "orf"; }
  std::size_t feature_count() const override {
    return forest_.feature_count();
  }
  std::uint64_t samples_seen() const override {
    return forest_.samples_seen();
  }

  void learn_batch(std::span<const core::LabeledVector> batch,
                   util::ThreadPool* pool) override {
    forest_.update_batch(batch, pool);
  }
  double score_one(std::span<const float> scaled) const override {
    return forest_.predict_proba(scaled);
  }
  bool prepare_day_scoring(std::size_t batch_size) override;
  void score_batch(std::span<const float> rows,
                   std::span<double> out) const override {
    forest_.flat().predict_batch(rows, forest_.feature_count(), out);
  }
  void quiesce() override { forest_.sync_flat(); }

  void bind_metrics(obs::Registry& registry) override {
    forest_.bind_metrics(registry);
  }
  void publish_metrics() const override { forest_.publish_metrics(); }
  void save(std::string& out, util::ThreadPool* pool) const override {
    forest_.save(out, pool);
  }
  void restore(std::istream& is) override { forest_.restore(is); }

  /// The live forest, for ORF-specific callers (feature importance, OOBE,
  /// tree-replacement counters). FleetEngine::forest() funnels here.
  core::OnlineForest& forest() { return forest_; }
  const core::OnlineForest& forest() const { return forest_; }

 private:
  core::OnlineForest forest_;
  bool flat_scoring_;
};

}  // namespace engine
