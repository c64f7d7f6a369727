// Mondrian forest (core/mondrian_forest.hpp) behind the ModelBackend seam —
// the second backend, for head-to-head drift comparisons against the
// paper's ORF under identical stream/label-queue semantics.
//
// No compiled batch kernel yet: prepare_day_scoring declines, so the engine
// routes day batches through per-sample score_one (score_batch still works
// for callers that pack rows themselves, e.g. the serving layer).
#pragma once

#include "core/mondrian_forest.hpp"
#include "engine/model_backend.hpp"

namespace engine {

class MondrianBackend final : public ModelBackend {
 public:
  MondrianBackend(std::size_t feature_count, const EngineParams& params,
                  std::uint64_t seed);

  std::string_view name() const override { return "mondrian"; }
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
  bool prepare_day_scoring(std::size_t) override { return false; }
  void score_batch(std::span<const float> rows,
                   std::span<double> out) const override;
  void quiesce() override {}

  void bind_metrics(obs::Registry& registry) override {
    forest_.bind_metrics(registry);
  }
  void publish_metrics() const override { forest_.publish_metrics(); }
  void save(std::string& out, util::ThreadPool* pool) const override {
    forest_.save(out, pool);
  }
  void restore(std::istream& is) override { forest_.restore(is); }

  const core::MondrianForest& forest() const { return forest_; }

 private:
  core::MondrianForest forest_;
};

}  // namespace engine
