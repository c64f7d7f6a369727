// Epoll reactor for orfd: a non-blocking listener multiplexed across a
// fixed set of worker threads, each running its own epoll loop over the
// connections it owns (netdata's static-threaded web server is the shape:
// thousands of keep-alive connections per worker, no thread per request).
//
// Threading model — the part the TSan CI lane exists to prove:
//
//   * The listener is registered in every worker's epoll set with
//     EPOLLEXCLUSIVE, so one worker wakes per connection burst and the
//     accepting worker owns the connection for its whole life. Connection
//     state is therefore single-threaded by construction; no locks.
//   * Requests are handed to the dispatch callback with a Completion.
//     Inline routes (ingest/metrics/healthz) complete on the worker thread
//     and short-circuit straight into the connection. Batched /v1/score
//     completes later on the batcher's flusher thread: the completion
//     posts {connection id, slot, response} into the owning worker's
//     mutex-guarded inbox and wakes its eventfd. Connection ids are
//     generation-unique, so a completion for a connection that died in the
//     meantime is dropped at lookup — never a use-after-free.
//   * Shared state across threads is confined to: the admission count
//     (atomic), the drain flags (atomic), the inboxes (mutex + eventfd),
//     and the obs instruments (lock-free).
//
// Event handling is edge-triggered (EPOLLIN | EPOLLOUT | EPOLLET |
// EPOLLRDHUP armed once per connection): reads drain to EAGAIN, writes
// buffer and resume on the next writable edge (serve/connection.hpp), and
// each loop iteration sweeps idle or stalled connections against
// serve.idle_timeout_ms.
//
// Admission control: a connection accepted while open connections >=
// serve.max_in_flight is answered a canned 429 + Retry-After and closed,
// without parsing a byte.
//
// stop() drains in three beats: (1) close the listener and flip the drain
// flag — every response from here serializes Connection: close; (2) run the
// drain hook (orfd stops the score batcher here, flushing every in-flight
// batch into still-live workers); (3) tell workers to finish — they empty
// their inboxes, flush buffered writes for a bounded grace period, close
// everything and join.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "orf/config.hpp"
#include "serve/batcher.hpp"
#include "serve/connection.hpp"
#include "serve/overload.hpp"

namespace serve {

class ReactorServer {
 public:
  /// Route one request; the Completion may be invoked synchronously (inline
  /// routes) or later from another thread (the score batcher).
  using Dispatch = std::function<void(const Request&, Completion)>;

  /// `registry` (optional) receives orf_serve_connections_total,
  /// orf_serve_overflow_total and the orf_serve_open_connections gauge.
  ReactorServer(const orf::ServeSection& options, Dispatch dispatch,
                obs::Registry* registry = nullptr);
  ~ReactorServer();

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// Bind + listen + spawn the workers. Throws std::system_error when the
  /// address cannot be bound.
  void start();
  /// Graceful drain (see above); idempotent.
  void stop();
  /// The bound TCP port (resolves port 0 after start()).
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Runs inside stop() between closing the listener and joining the
  /// workers — the daemon points this at ScoreBatcher::stop so outstanding
  /// batches complete into workers that are still processing inboxes.
  void set_drain_hook(std::function<void()> hook) {
    drain_hook_ = std::move(hook);
  }

  std::size_t worker_count() const { return workers_.size(); }

  /// When set (before start()), admission 429s carry a computed Retry-After
  /// that grows with queue pressure instead of the canned constant.
  void set_overload(const Overload* overload) { overload_ = overload; }

 private:
  struct InboxItem {
    std::uint64_t conn_id = 0;
    std::uint64_t slot = 0;
    Response response;
  };

  struct Worker {
    std::size_t index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::mutex inbox_mu;
    std::vector<InboxItem> inbox;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
    std::vector<std::uint64_t> dead;  ///< to erase after the current event
  };

  void worker_loop(std::size_t index);
  void accept_some(Worker& worker);
  void reject_overflow(int fd);
  void handle_event(Worker& worker, std::uint64_t conn_id, std::uint32_t
                    events);
  void process_inbox(Worker& worker);
  /// Complete a slot on the owning worker's thread; queues the connection
  /// for erasure on failure instead of erasing mid-stack.
  void direct_complete(Worker& worker, std::uint64_t conn_id,
                       std::uint64_t slot, Response response);
  /// Route a completion to the worker owning `conn_id`: same thread →
  /// direct, otherwise inbox + eventfd wake.
  void post(std::size_t worker_index, std::uint64_t conn_id,
            std::uint64_t slot, Response response);
  Connection::Sink make_sink(std::size_t worker_index, std::uint64_t conn_id);
  void erase_connection(Worker& worker, std::uint64_t conn_id);
  void sweep(Worker& worker);
  void wake(Worker& worker);

  orf::ServeSection options_;
  Dispatch dispatch_;
  std::function<void()> drain_hook_;
  const Overload* overload_ = nullptr;

  /// Atomic: stop() retires the fd (exchange to -1) while workers still
  /// read it in accept_some after a listener edge.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};  ///< responses now close connections
  std::atomic<bool> stopping_{false};  ///< workers finish and exit

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> next_conn_id_{2};  ///< 0 = listener, 1 = wake
  std::atomic<std::size_t> open_connections_{0};

  struct Instruments {
    obs::Counter* connections = nullptr;
    obs::Counter* overflow = nullptr;
    obs::Gauge* open = nullptr;
  };
  Instruments instruments_;
};

}  // namespace serve
