// Sharded, stage-based streaming engine for the paper's deployment loop.
//
// FleetEngine is the one place Algorithm 2 runs: callers use its day-batch
// and single-disk verbs (observe / disk_failed / disk_retired) directly,
// and OrfReplay and eval::stream_fleet drive it. It owns the shared model
// (a ModelBackend chosen by name — the paper's ORF by default; see
// engine/model_backend.hpp) and OnlineMinMaxScaler and N shards of per-disk
// LabelQueues (disk → shard by a fixed hash), and processes a calendar day
// as three stages:
//
//   1. scale  — sequential: extend the running min/max with every report.
//      A running range is commutative, so the result is order-independent.
//   2. label+score — shard-parallel on the ThreadPool: each shard pushes /
//      releases its own queues and scores its records against the *frozen*
//      pre-learn model (prequential) with the end-of-day ranges.
//   3. learn  — sequential: the shards' release lists are merged back into
//      batch-record order (each record is owned by exactly one shard, so the
//      merge is total and unambiguous), scaled, and fed to the model as one
//      learn_batch.
//
// Determinism contract: for a fixed seed the results are bit-identical
// across any shard count and any thread pool (including none). Stage 2 only
// reads shared state; stage 3 consumes a canonical sample order that does
// not depend on sharding; and ModelBackend::learn_batch is itself
// bit-equivalent to sequential updates (part of the backend contract; see
// model_backend.hpp).
//
// Checkpoints (save/restore) serialise queues in ascending-DiskId order and
// re-shard on restore, so a checkpoint written with one shard count restores
// into any other.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/mondrian_forest.hpp"
#include "core/online_forest.hpp"
#include "data/types.hpp"
#include "engine/model_backend.hpp"
#include "engine/batch.hpp"
#include "engine/counters.hpp"
#include "engine/shard.hpp"
#include "engine/stages.hpp"
#include "features/scaler.hpp"
#include "obs/registry.hpp"
#include "robust/quarantine.hpp"
#include "util/thread_pool.hpp"

namespace engine {

struct EngineParams {
  /// Model backend registry name ("orf" = the paper's Online Random Forest,
  /// "mondrian" = core::MondrianForest; see engine/model_backend.hpp).
  std::string backend = "orf";
  core::OnlineForestParams forest = {};
  /// Parameters of the "mondrian" backend (ignored by "orf").
  core::MondrianForestParams mondrian = {};
  /// Queue capacity in samples = prediction horizon in days (daily samples).
  std::size_t queue_capacity = static_cast<std::size_t>(data::kHorizonDays);
  /// Alarm threshold on the forest score; tune for the deployment's FAR
  /// budget (see eval::calibrate_threshold).
  double alarm_threshold = 0.5;
  /// Number of disk shards; 0 → hardware_concurrency clamped to [1, 32].
  /// Purely a parallelism knob: results do not depend on it.
  std::size_t shards = 0;
  /// Dirty-report policy for ingest_day: kStrict throws std::invalid_argument
  /// on a non-finite feature (a NaN would silently poison the min/max scaler
  /// forever); kSkip / kQuarantine instead drop such reports — and duplicate
  /// disks within one day batch — before any state is touched, mark their
  /// outcome rejected, and count them per cause as
  /// orf_ingest_rejected_total{cause=...} on the engine registry.
  robust::RowErrorPolicy ingest_errors = robust::RowErrorPolicy::kStrict;
  /// "orf" backend only: score day batches through the forest's compiled
  /// flat layout (core/flat_forest.hpp) instead of per-sample traversal.
  /// Bit-identical results either way (the differential suite proves it);
  /// purely a performance knob, and the off position is the reference
  /// baseline the tests and bench/micro_score compare against. Batches
  /// smaller than an internal floor fall back to the reference path, where
  /// the once-per-batch cache sync would cost more than it saves.
  bool flat_scoring = true;
};

class FleetEngine final : public SampleSink {
 public:
  FleetEngine(std::size_t feature_count, const EngineParams& params,
              std::uint64_t seed);

  /// Process one calendar day of fleet reports (stages 1–3 above).
  /// `outcomes` is resized to one verdict per report, in batch order.
  void ingest_day(std::span<const DiskReport> batch,
                  std::vector<DayOutcome>& outcomes,
                  util::ThreadPool* pool = nullptr) override;

  /// Single-disk front door (Algorithm 2, y = 0 path): a one-report day
  /// batch through the same three stages.
  DayOutcome observe(data::DiskId disk, std::span<const float> raw,
                     util::ThreadPool* pool = nullptr);

  /// Disk failed between reports (y = 1 path): its queued samples are
  /// released positive and learned in one batch; the disk is forgotten.
  void disk_failed(data::DiskId disk, util::ThreadPool* pool = nullptr);

  /// Disk left the fleet without failing; its queue is dropped unlabeled.
  void disk_retired(data::DiskId disk);

  /// Learn one already-labeled sample, bypassing the label stage: the
  /// scaler observes the raw vector, then the forest updates — exactly the
  /// per-sample replay step of §4.4 simulations.
  void learn_labeled(std::span<const float> raw, int label,
                     util::ThreadPool* pool = nullptr);

  /// Drain `source` through learn_labeled semantics until it yields nothing
  /// below `up_to_day`, batching forest updates (bit-identical to the
  /// per-sample loop). Returns the number of samples consumed.
  std::size_t consume(LearnSource& source, data::Day up_to_day,
                      util::ThreadPool* pool = nullptr);

  /// Score a raw sample without touching any state (pure prediction).
  double score(std::span<const float> raw) const;

  /// The model behind the seam.
  ModelBackend& backend() { return *backend_; }
  const ModelBackend& backend() const { return *backend_; }
  std::string_view backend_name() const { return backend_->name(); }

  /// The live ORF, for ORF-specific callers (feature importance, OOBE and
  /// tree-replacement counters, flat-kernel micro-benches). Throws
  /// std::logic_error when the engine runs a different backend — check
  /// backend_name() first on generic paths.
  const core::OnlineForest& forest() const;
  core::OnlineForest& forest();
  const features::OnlineMinMaxScaler& scaler() const { return scaler_; }
  std::size_t feature_count() const { return scaler_.feature_count(); }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t tracked_disks() const;

  void set_alarm_threshold(double threshold) {
    params_.alarm_threshold = threshold;
  }
  double alarm_threshold() const { return params_.alarm_threshold; }
  std::size_t queue_capacity() const { return params_.queue_capacity; }

  /// Deployment counters (resumable: checkpointed with the engine).
  std::uint64_t negatives_released() const { return negatives_released_; }
  std::uint64_t positives_released() const { return positives_released_; }

  /// Runtime observability snapshot (not checkpointed; see counters.hpp).
  /// A point-in-time view over the registry-backed instruments, kept for
  /// API compatibility with pre-registry callers.
  EngineCounters counters() const;

  /// The engine's telemetry registry: per-stage wall-time histograms
  /// (orf_engine_stage_seconds{stage=...}), per-shard flow counters
  /// (orf_engine_shard_*_total{shard=...}) and the forest's model-aging
  /// gauges (orf_forest_*). Increment paths are lock-free relaxed atomics
  /// and never feed back into the pipeline, so instrumentation is off the
  /// determinism surface. Callers may register their own instruments here
  /// to ride along in the same snapshot.
  obs::Registry& metrics_registry() { return registry_; }
  const obs::Registry& metrics_registry() const { return registry_; }

  /// Refresh the derived gauges (forest aging, tracked disks) and snapshot
  /// every instrument. Call at a quiescent point — between day batches —
  /// for a cross-instrument-consistent view; obs::to_prometheus and
  /// obs::to_json render the result.
  obs::Snapshot metrics_snapshot() const;

  /// Checkpoint/restore the complete engine (forest, scaler ranges, every
  /// disk's unlabeled queue, release counters). Queues are written in
  /// ascending-DiskId order and re-sharded on restore, so the shard counts
  /// of writer and reader are independent. restore() requires identical
  /// feature count and queue capacity. save() appends to `out`, formatting
  /// runs of queues and the model's trees on `pool` when given; the bytes
  /// are the same for any pool. The ostream form wraps it.
  void save(std::string& out, util::ThreadPool* pool = nullptr) const;
  void save(std::ostream& os) const;
  void restore(std::istream& is);
  void save_file(const std::string& path) const;
  void restore_file(const std::string& path);

 private:
  friend struct core::checkpoint::StreamOracle;

  std::uint32_t shard_of(data::DiskId disk) const;
  /// One timed model learn_batch over the first `count` staged samples in
  /// learn_batch_ (callers scale into the batch first).
  void learn_staged(std::size_t count, util::ThreadPool* pool);

  /// Declared first so every instrument outlives the components holding
  /// pointers into it (forest gauges, shard counters).
  obs::Registry registry_;

  /// Engine-level instruments (all owned by registry_). Stage histograms
  /// time one ingest_day stage per observation; the learn histogram also
  /// covers the disk_failed / learn_labeled / consume update paths, so its
  /// sum/count are the learn-cost numbers EngineCounters reports.
  struct Instruments {
    obs::Histogram* stage_scale = nullptr;
    obs::Histogram* stage_label_score = nullptr;
    obs::Histogram* stage_learn = nullptr;
    /// Flat-cache refresh cost, timed separately from label_score so the
    /// scoring wall-time split (sync vs traverse) is visible per day.
    obs::Histogram* flat_sync = nullptr;
    obs::Counter* days = nullptr;
    obs::Counter* samples_learned = nullptr;
    obs::Gauge* tracked_disks = nullptr;
    /// Dirty reports dropped by the ingest policy, by cause — the same
    /// orf_ingest_rejected_total family the CSV quarantine exports, so one
    /// query accounts for every rejected row at any layer.
    obs::Counter* rejected_non_finite = nullptr;
    obs::Counter* rejected_duplicate = nullptr;
  };
  Instruments instruments_;

  EngineParams params_;
  std::unique_ptr<ModelBackend> backend_;
  features::OnlineMinMaxScaler scaler_;
  std::vector<EngineShard> shards_;

  std::uint64_t negatives_released_ = 0;
  std::uint64_t positives_released_ = 0;

  // Reused scratch — the hot path allocates nothing once warm.
  std::vector<std::uint32_t> owner_scratch_;      ///< record → shard
  std::unordered_set<data::DiskId> seen_scratch_; ///< per-day duplicate check
  std::vector<std::size_t> cursor_scratch_;       ///< per-shard merge cursor
  std::vector<core::LabeledVector> learn_batch_;  ///< staged learn samples
  std::vector<DayOutcome> outcome_scratch_;       ///< observe() day batch
  mutable std::vector<float> scaled_;             ///< score() scratch
};

}  // namespace engine
