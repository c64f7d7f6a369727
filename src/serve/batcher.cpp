#include "serve/batcher.hpp"

#include <utility>

namespace serve {

ScoreBatcher::ScoreBatcher(Api& api, const orf::ServeSection& /*options*/)
    : api_(api) {
  obs::Registry& registry = api_.service().metrics_registry();
  batch_rows_ = &registry.histogram(
      "orf_serve_batch_rows", "rows coalesced per score_batch flush",
      obs::batch_rows_buckets());
  const char* help = "micro-batch flushes by cause";
  flush_ready_ = &registry.counter("orf_serve_batch_flush_total", help,
                                   {{"cause", "ready"}});
  flush_drain_ = &registry.counter("orf_serve_batch_flush_total", help,
                                   {{"cause", "drain"}});
}

ScoreBatcher::~ScoreBatcher() { stop(); }

void ScoreBatcher::start() {
  {
    std::lock_guard lock(mu_);
    if (!stopping_) return;
    stopping_ = false;
  }
  api_.service().health().set("batcher", robust::HealthState::kOk);
  flusher_ = std::thread([this] { flusher_loop(); });
}

void ScoreBatcher::stop() {
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Readiness goes honest during the drain: probes see "degraded" while
  // the flusher empties its queue and new scores run unbatched.
  api_.service().health().set("batcher", robust::HealthState::kDegraded,
                              "stopped (draining)");
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

double ScoreBatcher::oldest_wait_seconds() {
  std::lock_guard lock(mu_);
  if (pending_.empty()) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       pending_.front().enqueued)
      .count();
}

void ScoreBatcher::submit(std::vector<float> xs, std::size_t rows,
                          Completion done) {
  Pending pending{std::move(xs), rows, std::move(done),
                  std::chrono::steady_clock::now()};
  bool queued = false;
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    if (!stopping_) {
      wake = pending_.empty();
      pending_.push_back(std::move(pending));
      queued = true;
    }
  }
  if (!queued) {
    // Stopped (drain raced the submit, or no flusher was started): score
    // this request alone, preserving the response contract.
    std::vector<Pending> batch;
    batch.push_back(std::move(pending));
    flush(std::move(batch), *flush_drain_);
    return;
  }
  // The flusher sleeps only on an empty queue, and re-checks under the
  // mutex before sleeping, so only the first request onto an empty queue
  // needs to wake it; later ones ride along with the next swap.
  if (wake) cv_.notify_one();
}

void ScoreBatcher::flusher_loop() {
  std::unique_lock lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    // After stop() this is the drain: everything still queued is scored
    // before the thread exits, so stop() never abandons a request.
    if (pending_.empty()) break;
    obs::Counter& cause = stopping_ ? *flush_drain_ : *flush_ready_;
    std::vector<Pending> batch;
    batch.swap(pending_);
    lock.unlock();
    flush(std::move(batch), cause);
    lock.lock();
  }
}

void ScoreBatcher::flush(std::vector<Pending> batch, obs::Counter& cause) {
  // Deadline enforcement happens at the moment of truth — just before the
  // scoring call — so a request that waited out its budget in the queue is
  // answered an honest 503 instead of a late 200 the client gave up on.
  if (overload_ != nullptr && overload_->deadline_enabled()) {
    const auto now = std::chrono::steady_clock::now();
    std::vector<Pending> live;
    live.reserve(batch.size());
    for (Pending& pending : batch) {
      const double waited =
          std::chrono::duration<double>(now - pending.enqueued).count();
      if (overload_->expired(waited)) {
        pending.done(api_.finish(
            "/v1/score", overload_->shed_response("/v1/score", "deadline"),
            waited));
      } else {
        live.push_back(std::move(pending));
      }
    }
    batch.swap(live);
    if (batch.empty()) return;
  }

  const std::size_t features = api_.service().feature_count();
  std::size_t total_rows = 0;
  for (const Pending& pending : batch) total_rows += pending.rows;

  std::vector<float> xs;
  xs.reserve(total_rows * features);
  for (const Pending& pending : batch) {
    xs.insert(xs.end(), pending.xs.begin(), pending.xs.end());
  }

  std::vector<orf::Scored> scored;
  bool failed = false;
  try {
    api_.service().score(xs, scored);  // one shared-lock acquisition
  } catch (...) {
    failed = true;
  }

  batch_rows_->observe(static_cast<double>(total_rows));
  cause.inc();

  const auto now = std::chrono::steady_clock::now();
  std::size_t offset = 0;
  for (Pending& pending : batch) {
    Response response;
    if (failed) {
      response.status = 500;
      response.body = "{\"error\":\"internal error\"}";
    } else {
      response = api_.render_scores(
          std::span(scored).subspan(offset, pending.rows));
    }
    offset += pending.rows;
    const double seconds =
        std::chrono::duration<double>(now - pending.enqueued).count();
    pending.done(api_.finish("/v1/score", std::move(response), seconds));
  }
}

}  // namespace serve
