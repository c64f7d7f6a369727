// Microbenchmarks + ablations for the ORF hot paths:
// update/predict throughput, Poisson-bagging cost, candidate-test count N
// (the paper uses 5000), parallel tree updates, the replacement policy, and
// steady-state learning of a forest warmed past α.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "core/online_forest.hpp"
#include "engine/fleet_engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr std::size_t kFeatures = 19;

std::vector<std::vector<float>> make_stream(std::size_t n, double pos_frac,
                                            std::vector<int>& labels) {
  util::Rng rng(42);
  std::vector<std::vector<float>> stream;
  stream.reserve(n);
  labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = rng.uniform() < pos_frac;
    labels[i] = positive ? 1 : 0;
    std::vector<float> x(kFeatures);
    for (auto& v : x) {
      v = static_cast<float>(
          positive ? rng.uniform(0.4, 1.0) : rng.uniform(0.0, 0.6));
    }
    stream.push_back(std::move(x));
  }
  return stream;
}

core::OnlineForestParams params_with_tests(int n_tests) {
  core::OnlineForestParams p;
  p.n_trees = 30;
  p.tree.n_tests = n_tests;
  p.tree.min_parent_size = 200;
  p.tree.min_gain = 0.1;
  p.lambda_pos = 1.0;
  p.lambda_neg = 0.02;
  return p;
}

/// ORF update throughput on an imbalanced stream (the production regime:
/// most negatives are out-of-bag).
void BM_OrfUpdateImbalanced(benchmark::State& state) {
  std::vector<int> labels;
  const auto stream = make_stream(20000, 0.01, labels);
  core::OnlineForest forest(kFeatures,
                            params_with_tests(static_cast<int>(state.range(0))),
                            7);
  std::size_t i = 0;
  for (auto _ : state) {
    forest.update(stream[i], labels[i]);
    i = (i + 1) % stream.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrfUpdateImbalanced)->Arg(64)->Arg(256)->Arg(1024)->Arg(5000);

/// Ablation: Poisson bagging with equal rates (λn = 1) — every sample is
/// in-bag for ~63% of trees, so updates are ~50× more expensive.
void BM_OrfUpdateBalancedRates(benchmark::State& state) {
  std::vector<int> labels;
  const auto stream = make_stream(20000, 0.01, labels);
  auto params = params_with_tests(256);
  params.lambda_neg = 1.0;
  core::OnlineForest forest(kFeatures, params, 7);
  std::size_t i = 0;
  for (auto _ : state) {
    forest.update(stream[i], labels[i]);
    i = (i + 1) % stream.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrfUpdateBalancedRates);

void BM_OrfPredict(benchmark::State& state) {
  std::vector<int> labels;
  const auto stream = make_stream(20000, 0.3, labels);
  core::OnlineForest forest(kFeatures, params_with_tests(256), 7);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    forest.update(stream[i], labels[i]);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_proba(stream[i]));
    i = (i + 1) % stream.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrfPredict);

/// Per-tree parallelism (the paper: "training and testing procedures of ORF
/// can be easily parallelized"). Thread count is the benchmark argument.
void BM_OrfUpdateParallel(benchmark::State& state) {
  std::vector<int> labels;
  const auto stream = make_stream(20000, 0.3, labels);
  auto params = params_with_tests(256);
  params.lambda_neg = 1.0;  // make per-tree work heavy enough to matter
  core::OnlineForest forest(kFeatures, params, 7);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    forest.update(stream[i], labels[i], &pool);
    i = (i + 1) % stream.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrfUpdateParallel)->Arg(1)->Arg(2)->Arg(4);

/// Steady-state learning: a 30-tree forest is first warmed on a skewed
/// stream (1% positives, λn = 0.02) until its trees hold leaves past α, so
/// the timed batches exercise split decisions and test counting rather
/// than the cold leaf buffering the cases above mostly time. Batches of 512
/// go through update_batch, as the engine's learn stage does; the argument
/// is the pool's thread count. Reports µs per learned sample (wall clock).
void BM_OrfLearnSteadyState(benchmark::State& state) {
  constexpr std::size_t kStream = 65536;
  constexpr std::size_t kWarmPasses = 3;
  constexpr std::size_t kBatch = 512;
  std::vector<int> labels;
  auto rows = make_stream(kStream, 0.01, labels);
  std::vector<core::LabeledVector> stream(kStream);
  for (std::size_t i = 0; i < kStream; ++i) {
    stream[i] = {std::move(rows[i]), labels[i]};
  }
  const std::span<const core::LabeledVector> all(stream);
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::ThreadPool pool(threads);
  util::ThreadPool* const use = threads > 1 ? &pool : nullptr;
  core::OnlineForest forest(kFeatures, params_with_tests(256), 7);
  for (std::size_t pass = 0; pass < kWarmPasses; ++pass) {
    for (std::size_t i = 0; i < kStream; i += kBatch) {
      forest.update_batch(all.subspan(i, kBatch), use);
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    forest.update_batch(all.subspan(next, kBatch), use);
    next = (next + kBatch) % kStream;
  }
  const auto samples = static_cast<double>(state.iterations() * kBatch);
  state.SetItemsProcessed(static_cast<std::int64_t>(samples));
  state.counters["us_per_sample"] = benchmark::Counter(
      samples * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_OrfLearnSteadyState)
    ->Arg(1)
    ->Arg(4)
    ->Iterations(200)
    ->UseRealTime();

/// Full Algorithm-2 path: queue + online scaling + forest.
void BM_OnlinePredictorObserve(benchmark::State& state) {
  std::vector<int> labels;
  const auto stream = make_stream(20000, 0.01, labels);
  engine::EngineParams params;
  params.forest = params_with_tests(256);
  engine::FleetEngine predictor(kFeatures, params, 7);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        predictor.observe(static_cast<data::DiskId>(i % 500), stream[i]));
    i = (i + 1) % stream.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlinePredictorObserve);

void BM_PoissonSampling(benchmark::State& state) {
  util::Rng rng(42);
  const double lambda = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(lambda));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoissonSampling)->Arg(2)->Arg(100)->Arg(4000);

}  // namespace
