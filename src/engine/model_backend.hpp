// The pluggable model seam of the streaming engine.
//
// FleetEngine used to hard-code core::OnlineForest in its members, shard
// signatures, checkpoint writer and flat-kernel sync, which made the paper's
// learner the only one the system could evaluate or serve. ModelBackend is
// the extracted interface: everything the engine's three stages need from a
// model — batched learning, frozen-model scoring (per sample or per packed
// batch), checkpointing, telemetry — with the learner chosen by name through
// a registry-backed factory ("orf" is the paper's Online Random Forest,
// "mondrian" the Mondrian forest of arXiv:1406.2673).
//
// Contract highlights:
//   * learn_batch must be bit-identical to per-sample sequential updates for
//     any thread pool (the engine's determinism guarantee leans on it).
//   * score_one / score_batch are const and safe from concurrent threads
//     provided no learn/restore runs at the same time; score_batch
//     additionally requires a preceding quiesce() or a true-returning
//     prepare_day_scoring() at a sequential point (that is where a backend
//     refreshes internal scoring caches, e.g. the ORF's flat SoA compile).
//   * save/restore round-trip the complete learning state, RNG streams
//     included, so a restored backend continues bit-for-bit. The engine
//     checkpoint header records the backend's name() and refuses to restore
//     into a different one.
//
// To add a backend: implement ModelBackend, then register a factory under a
// unique name with register_backend() (built-ins live in
// backend_factory.cpp) — the conformance suite in
// tests/engine/test_backend_conformance.cpp picks it up automatically via
// registered_backends().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/online_forest.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace engine {

struct EngineParams;

class ModelBackend {
 public:
  virtual ~ModelBackend() = default;

  /// Registry name this backend was created under (e.g. "orf").
  virtual std::string_view name() const = 0;
  virtual std::size_t feature_count() const = 0;
  /// Labeled samples learned so far (multiplicity before online bagging).
  virtual std::uint64_t samples_seen() const = 0;

  /// Learn a batch of scaled, labeled samples. Must be bit-identical to
  /// updating per sample in batch order, for any `pool` including none.
  virtual void learn_batch(std::span<const core::LabeledVector> batch,
                           util::ThreadPool* pool) = 0;

  /// P(failure | scaled sample) against the current model. Const and safe
  /// from concurrent scorers while no mutation runs.
  virtual double score_one(std::span<const float> scaled) const = 0;

  /// Day-batch scoring hook, called at the last sequential point before the
  /// shards fan out. Returns true when the backend wants the batch path
  /// (shards then pack scaled rows and call score_batch once); false routes
  /// every record through score_one. Either way results are bit-identical —
  /// this is purely the backend's performance decision (the ORF declines
  /// small batches where its flat-cache sync would cost more than it saves).
  virtual bool prepare_day_scoring(std::size_t batch_size) = 0;

  /// Score `out.size()` rows packed row-major in `rows`
  /// (rows.size() == out.size() * feature_count()). Requires a preceding
  /// quiesce() or true-returning prepare_day_scoring() with no mutation in
  /// between.
  virtual void score_batch(std::span<const float> rows,
                           std::span<double> out) const = 0;

  /// Bring every internal scoring cache up to date with the learned state,
  /// so score_one/score_batch can run lock-shared until the next mutation.
  /// Called by serving layers at mutation boundaries; a no-op for backends
  /// without derived caches.
  virtual void quiesce() = 0;

  /// Register model telemetry in `registry` (must outlive the backend);
  /// publish_metrics() refreshes the derived instruments.
  virtual void bind_metrics(obs::Registry& registry) = 0;
  virtual void publish_metrics() const = 0;

  /// Complete-state checkpoint (format owned by the backend; the engine
  /// frames it and records name() in its own header), appended to `out`.
  /// A backend may format on `pool`, but the bytes must not depend on it.
  virtual void save(std::string& out, util::ThreadPool* pool) const = 0;
  virtual void restore(std::istream& is) = 0;
};

/// Builds a backend for an engine: `feature_count` scaled features, the
/// engine's parameter block (backends read their own sections), and the
/// pipeline seed.
using BackendFactory = std::function<std::unique_ptr<ModelBackend>(
    std::size_t feature_count, const EngineParams& params,
    std::uint64_t seed)>;

/// Register `factory` under `name`; throws std::invalid_argument if the
/// name is already taken. Built-ins ("orf", "mondrian") are pre-registered.
void register_backend(const std::string& name, BackendFactory factory);

/// Instantiate the backend registered as `name`; throws
/// std::invalid_argument naming the known backends when it is not.
std::unique_ptr<ModelBackend> make_backend(const std::string& name,
                                           std::size_t feature_count,
                                           const EngineParams& params,
                                           std::uint64_t seed);

bool backend_registered(const std::string& name);
/// Registered names in sorted order (drives the generic conformance suite).
std::vector<std::string> registered_backends();

}  // namespace engine
