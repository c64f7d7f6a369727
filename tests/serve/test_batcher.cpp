// ScoreBatcher unit tests — the invariants DESIGN.md §13 promises:
// batched responses bit-identical to per-request scoring, each response
// covering exactly its own rows in submission order under interleaving,
// a lone request flushed at once with no timer, everything queued during a
// flush coalescing into exactly the next one, and stop() draining every
// queued request. Runs against a real orf::Service (scoring is
// deterministic and non-mutating, so the same service produces the
// unbatched reference responses).
//
// Batch boundaries are made deterministic with a FlushGate, not with
// sleeps: its request's completion parks the flusher inside a flush, so
// whatever the test submits next is queued behind it.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "orf/orf.hpp"
#include "serve/batcher.hpp"
#include "serve/handlers.hpp"

namespace {

constexpr std::size_t kFeatures = 4;

orf::Config batcher_config() {
  orf::Config config;
  config.forest.n_trees = 5;
  config.forest.tree.n_tests = 16;
  config.engine.shards = 2;
  return config;
}

/// A /v1/score request whose rows are distinctive per (tag, row).
serve::Request score_request(int tag, std::size_t rows) {
  serve::Request request;
  request.method = "POST";
  request.target = "/v1/score";
  std::string body = "{\"rows\":[";
  for (std::size_t r = 0; r < rows; ++r) {
    if (r > 0) body += ',';
    body += '[';
    for (std::size_t f = 0; f < kFeatures; ++f) {
      if (f > 0) body += ',';
      body += std::to_string(tag * 100 + static_cast<int>(r * kFeatures + f));
    }
    body += ']';
  }
  body += "]}";
  request.body = std::move(body);
  return request;
}

std::uint64_t flush_count(obs::Registry& registry, const std::string& cause) {
  for (const auto& counter : registry.snapshot().counters) {
    if (counter.id.name == "orf_serve_batch_flush_total" &&
        !counter.id.labels.empty() && counter.id.labels[0].second == cause) {
      return counter.value;
    }
  }
  return 0;
}

obs::HistogramSnapshot batch_rows(obs::Registry& registry) {
  for (const auto& histogram : registry.snapshot().histograms) {
    if (histogram.id.name == "orf_serve_batch_rows") return histogram;
  }
  return {};
}

/// Parks the flusher inside a flush: submits a one-row request whose
/// completion blocks until release(), and returns once the flusher has
/// swapped that request out and is running its completion. The completion
/// shares ownership of its signals, so they outlive the gate on the flusher
/// side.
class FlushGate {
 public:
  static constexpr std::size_t kRows = 1;

  FlushGate(serve::Api& api, serve::ScoreBatcher& batcher)
      : entered_(std::make_shared<std::promise<void>>()),
        release_(std::make_shared<std::latch>(1)) {
    std::vector<float> xs;
    serve::Response error;
    EXPECT_TRUE(api.decode_score_rows(score_request(99, kRows), xs, error));
    std::future<void> entered = entered_->get_future();
    batcher.submit(std::move(xs), kRows,
                   [entered = entered_, release = release_](
                       serve::Response response) {
                     EXPECT_EQ(response.status, 200);
                     entered->set_value();
                     release->wait();
                   });
    EXPECT_EQ(entered.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "the flusher never picked up the gate request";
  }
  ~FlushGate() { release(); }

  FlushGate(const FlushGate&) = delete;
  FlushGate& operator=(const FlushGate&) = delete;

  /// Let the parked flush finish; idempotent.
  void release() {
    if (released_) return;
    released_ = true;
    release_->count_down();
  }

 private:
  std::shared_ptr<std::promise<void>> entered_;
  std::shared_ptr<std::latch> release_;
  bool released_ = false;
};

/// Decode `request` and submit it; its response lands in `done`.
void submit(serve::Api& api, serve::ScoreBatcher& batcher,
            const serve::Request& request,
            std::promise<serve::Response>& done) {
  std::vector<float> xs;
  serve::Response error;
  ASSERT_TRUE(api.decode_score_rows(request, xs, error));
  const std::size_t rows = xs.size() / kFeatures;
  batcher.submit(std::move(xs), rows, [&done](serve::Response response) {
    done.set_value(std::move(response));
  });
}

/// Wait (bounded, so a lost completion fails instead of hanging) for `done`.
serve::Response await(std::promise<serve::Response>& done) {
  auto future = done.get_future();
  if (future.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "request never completed";
    return {};
  }
  return future.get();
}

class BatcherTest : public ::testing::Test {
 protected:
  BatcherTest()
      : config_(batcher_config()), service_(kFeatures, config_),
        api_(service_) {}

  /// Unbatched reference: the exact bytes Api::handle answers in process.
  std::string reference_body(const serve::Request& request) {
    return api_.handle(request).body;
  }

  orf::Config config_;
  orf::Service service_;
  serve::Api api_;
};

TEST_F(BatcherTest, BatchedScoresBitIdenticalToPerRequest) {
  const std::size_t kRequests = 5;
  std::vector<serve::Request> requests;
  std::vector<std::string> expected;
  std::size_t total_rows = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests.push_back(score_request(static_cast<int>(i), i + 1));
    expected.push_back(reference_body(requests.back()));
    total_rows += i + 1;
  }

  serve::ScoreBatcher batcher(api_, config_.serve);
  batcher.start();

  // Everything queues behind the gate's flush, then one flush covers the
  // lot.
  std::vector<std::promise<serve::Response>> done(kRequests);
  FlushGate gate(api_, batcher);
  for (std::size_t i = 0; i < kRequests; ++i) {
    submit(api_, batcher, requests[i], done[i]);
  }
  gate.release();
  for (std::size_t i = 0; i < kRequests; ++i) {
    const serve::Response response = await(done[i]);
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, expected[i]) << "request " << i;
  }

  const obs::HistogramSnapshot histogram =
      batch_rows(service_.metrics_registry());
  EXPECT_EQ(histogram.count, 2u);  // the gate's flush, then all five
  EXPECT_DOUBLE_EQ(histogram.sum,
                   static_cast<double>(FlushGate::kRows + total_rows));
}

TEST_F(BatcherTest, MappingHoldsUnderConcurrentInterleavedSubmission) {
  const std::size_t kThreads = 8;
  std::vector<serve::Request> requests;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < kThreads; ++i) {
    requests.push_back(score_request(static_cast<int>(i) + 50, (i % 3) + 1));
    expected.push_back(reference_body(requests.back()));
  }

  // Free-running flusher: batch boundaries fall wherever the submitters'
  // timing puts them, and every split must map rows back correctly.
  serve::ScoreBatcher batcher(api_, config_.serve);
  batcher.start();

  std::vector<std::promise<serve::Response>> done(kThreads);
  std::vector<std::thread> submitters;
  for (std::size_t i = 0; i < kThreads; ++i) {
    submitters.emplace_back([this, &batcher, &requests, &done, i] {
      submit(api_, batcher, requests[i], done[i]);
    });
  }
  for (std::thread& thread : submitters) thread.join();
  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(await(done[i]).body, expected[i])
        << "request " << i << " got another request's rows";
  }
}

TEST_F(BatcherTest, LoneRequestFlushesWithoutATimer) {
  serve::ScoreBatcher batcher(api_, config_.serve);
  batcher.start();

  std::promise<serve::Response> done;
  submit(api_, batcher, score_request(7, 2), done);
  EXPECT_EQ(await(done).status, 200);

  obs::Registry& registry = service_.metrics_registry();
  EXPECT_EQ(flush_count(registry, "ready"), 1u);
  EXPECT_EQ(flush_count(registry, "drain"), 0u);
  const obs::HistogramSnapshot histogram = batch_rows(registry);
  EXPECT_EQ(histogram.count, 1u);
  EXPECT_DOUBLE_EQ(histogram.sum, 2.0);
}

TEST_F(BatcherTest, RequestsQueuedDuringAFlushCoalesceIntoTheNext) {
  serve::ScoreBatcher batcher(api_, config_.serve);
  batcher.start();

  const std::size_t kRequests = 4;
  std::vector<std::promise<serve::Response>> done(kRequests);
  std::size_t total_rows = FlushGate::kRows;
  {
    FlushGate gate(api_, batcher);
    for (std::size_t i = 0; i < kRequests; ++i) {
      submit(api_, batcher, score_request(10 + static_cast<int>(i), i + 1),
             done[i]);
      total_rows += i + 1;
    }
    EXPECT_GT(batcher.oldest_wait_seconds(), 0.0) << "nothing queued";
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(await(done[i]).status, 200) << "request " << i;
  }

  obs::Registry& registry = service_.metrics_registry();
  const obs::HistogramSnapshot histogram = batch_rows(registry);
  EXPECT_EQ(histogram.count, 2u) << "queued requests split across flushes";
  EXPECT_DOUBLE_EQ(histogram.sum, static_cast<double>(total_rows));
  EXPECT_EQ(flush_count(registry, "ready"), 2u);
  EXPECT_EQ(batcher.oldest_wait_seconds(), 0.0);
}

TEST_F(BatcherTest, StopDrainsEverythingStillQueued) {
  serve::ScoreBatcher batcher(api_, config_.serve);
  batcher.start();

  std::vector<std::promise<serve::Response>> done(2);
  FlushGate gate(api_, batcher);
  for (std::size_t i = 0; i < 2; ++i) {
    submit(api_, batcher, score_request(20 + static_cast<int>(i), 1),
           done[i]);
  }
  // stop() joins the parked flusher, so run it aside; it marks the batcher
  // degraded only after it has latched the stop, which is when releasing
  // the gate turns the next flush into the drain.
  std::thread stopper([&batcher] { batcher.stop(); });
  const auto stopped = [this] {
    for (const auto& component : service_.health().components()) {
      if (component.name == "batcher") {
        return component.state == robust::HealthState::kDegraded;
      }
    }
    return false;
  };
  while (!stopped()) std::this_thread::yield();
  gate.release();
  stopper.join();

  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(await(done[i]).status, 200) << "stop() abandoned request " << i;
  }
  obs::Registry& registry = service_.metrics_registry();
  EXPECT_EQ(flush_count(registry, "ready"), 1u);  // the gate's flush
  EXPECT_EQ(flush_count(registry, "drain"), 1u);
  EXPECT_DOUBLE_EQ(batch_rows(registry).sum,
                   static_cast<double>(FlushGate::kRows + 2));
}

TEST_F(BatcherTest, SubmitAfterStopScoresInline) {
  serve::ScoreBatcher batcher(api_, config_.serve);  // never started

  const serve::Request request = score_request(33, 3);
  const std::string expected = reference_body(request);
  std::vector<float> xs;
  serve::Response error;
  ASSERT_TRUE(api_.decode_score_rows(request, xs, error));
  bool completed = false;
  batcher.submit(std::move(xs), 3, [&](serve::Response response) {
    completed = true;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, expected);
  });
  EXPECT_TRUE(completed) << "inline fallback must complete synchronously";
  EXPECT_EQ(flush_count(service_.metrics_registry(), "drain"), 1u);
}

}  // namespace
