// Request micro-batching for /v1/score: concurrently arriving rows from
// many connections coalesce into one Service::score call — one shared-lock
// acquisition, one flat-kernel score_batch — instead of one per request.
//
// Reactor workers decode on the event loop and submit() row buffers with a
// completion; a dedicated flusher thread group-commits them: it sleeps only
// while the queue is empty, and whenever it is free it swaps the whole
// queue out under the mutex, scores it in one call, slices the results
// back per request in submission order, and runs every completion.
// Requests that arrive during a flush become the next batch, so batches
// are sized by the load itself — one request under light traffic, hundreds
// of rows under a burst — with no timer and no size knob. Per-request
// responses are bit-identical to unbatched scoring because Service::score
// is deterministic row-wise: batching changes only how many rows share a
// lock acquisition.
//
// Invariants the tests pin down:
//   - mapping: request i's response covers exactly its own rows, in order;
//   - bit-identity: batched scores equal per-request scores exactly;
//   - latency: a request is flushed as soon as the flusher is free — it
//     waits at most for the one flush already in progress — and stop()
//     drains everything still queued;
//   - telemetry: every flush lands in the orf_serve_batch_rows histogram
//     and a flush-cause counter (ready | drain), every request in
//     orf_serve_requests_total via Api::finish.
//
// Lock discipline: the batcher mutex guards only the pending queue (never
// held while scoring); the Service shared lock is taken once per flush,
// inside Service::score. Completions run on the flusher thread and must not
// block on the event loops (the reactor's completions only enqueue to a
// worker inbox and wake an eventfd).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "orf/config.hpp"
#include "serve/handlers.hpp"
#include "serve/overload.hpp"

namespace serve {

/// Response consumer; invoked exactly once, possibly on the flusher thread.
using Completion = std::function<void(Response)>;

class ScoreBatcher {
 public:
  /// Instruments register on the service's registry (one /metrics scrape
  /// covers batching next to the engine and HTTP series). The serve
  /// section holds no batching knobs — batch size follows the queue — and
  /// is taken so every server is built from the same config.
  ScoreBatcher(Api& api, const orf::ServeSection& options);
  ~ScoreBatcher();

  ScoreBatcher(const ScoreBatcher&) = delete;
  ScoreBatcher& operator=(const ScoreBatcher&) = delete;

  void start();

  /// Flush everything still pending (cause "drain"), run the completions,
  /// join the flusher. Idempotent; submit() after stop() scores inline.
  void stop();

  /// Queue `rows` row-major scaled-width rows for the next batch. Callable
  /// from any thread; `done` fires with the rendered + finish()ed response.
  void submit(std::vector<float> xs, std::size_t rows, Completion done);

  /// Deadline policy + shed accounting: when set (before start()), every
  /// flush first answers requests older than the request deadline with the
  /// counted 503 instead of scoring them late.
  void set_overload(Overload* overload) { overload_ = overload; }

  /// Age in seconds of the oldest queued request (0 when the queue is
  /// empty) — the Overload queue-age probe behind Retry-After hints.
  double oldest_wait_seconds();

 private:
  struct Pending {
    std::vector<float> xs;
    std::size_t rows = 0;
    Completion done;
    std::chrono::steady_clock::time_point enqueued;
  };

  void flusher_loop();
  /// Score one swapped-out batch, complete every request in it, and count
  /// the flush on `cause`.
  void flush(std::vector<Pending> batch, obs::Counter& cause);

  Api& api_;
  Overload* overload_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending> pending_;
  bool stopping_ = true;  ///< start() arms; guarded by mu_

  std::thread flusher_;

  obs::Histogram* batch_rows_ = nullptr;
  obs::Counter* flush_ready_ = nullptr;
  obs::Counter* flush_drain_ = nullptr;
};

}  // namespace serve
