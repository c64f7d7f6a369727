// One reactor connection: the edge-triggered state machine between a
// non-blocking socket and the dispatch layer.
//
// A Connection is owned by exactly one reactor worker and every method runs
// on that worker's thread — no locking here; cross-thread completions reach
// it through the worker's inbox (see reactor.hpp). It wraps the
// incremental RequestParser (torn reads at any byte, pipelining, protocol
// errors latching with a status), and adds the two things an event loop
// needs that a thread-per-connection server gets for free:
//
//   Response ordering. Each parsed request claims the next response *slot*
//   (a per-connection sequence number) before being dispatched. Responses
//   may complete out of order — a batched /v1/score finishing after a
//   pipelined /healthz answered inline — but bytes only leave in slot
//   order: flushing serializes the longest ready prefix and holds the rest.
//
//   Write continuation. serialize()d responses append to an output buffer
//   that drains opportunistically; when send() hits EAGAIN the remainder
//   stays buffered and the worker resumes on the next EPOLLOUT edge, so a
//   slow client costs a buffer, never a blocked thread.
//
// Lifecycle: on_readable/on_writable/complete return false when the
// connection is dead (peer reset, protocol error fully answered); the
// worker erases it and the destructor closes the fd (the kernel drops it
// from every epoll set). done() reports the clean-close condition — output
// drained and either close-after-response or peer EOF with nothing in
// flight. last_activity() feeds the worker's idle/stall sweep: a connection
// making no socket progress (idle keep-alive, or a stalled reader mid-
// response) past serve.idle_timeout_ms is culled.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "serve/http.hpp"

namespace serve {

class Connection {
 public:
  /// `draining` is the server's stop flag: once set, every response is
  /// serialized Connection: close so keep-alive clients let go.
  Connection(int fd, std::uint64_t id, const RequestParser::Limits& limits,
             const std::atomic<bool>* draining);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Dispatch one parsed request; its response must arrive via
  /// complete(slot, ...) exactly once.
  using Sink = std::function<void(Request&&, std::uint64_t slot)>;

  int fd() const { return fd_; }
  std::uint64_t id() const { return id_; }

  /// Drain the socket (edge-triggered: reads to EAGAIN), parse, dispatch.
  /// Pauses past kMaxPipelined outstanding responses and resumes from
  /// complete(). Returns false when the connection is dead.
  bool on_readable(const Sink& sink);

  /// Continue a partial write after an EPOLLOUT edge. False when dead.
  bool on_writable();

  /// Fill a response slot (stale slots from an earlier error are ignored),
  /// flush the ready prefix, resume reading if it was paused. False = dead.
  bool complete(std::uint64_t slot, Response response, const Sink& sink);

  /// Clean close: everything written and no further responses can come.
  bool done() const;

  bool has_output() const { return out_.size() > out_off_; }

  std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }

  /// Pipelined responses in flight above this pause reading: bounds memory
  /// per connection without a config knob nobody would tune.
  static constexpr std::size_t kMaxPipelined = 128;

 private:
  /// Serialize the ready prefix of the slot queue and push bytes into the
  /// socket. False when the peer is gone.
  bool flush();
  bool write_some();

  struct Slot {
    bool ready = false;
    bool keep_alive = true;
    Response response;
  };

  int fd_;
  std::uint64_t id_;
  const std::atomic<bool>* draining_;
  RequestParser parser_;

  std::deque<Slot> slots_;
  std::uint64_t next_slot_ = 0;  ///< slots_.front() is next_slot_ - size()

  std::string out_;
  std::size_t out_off_ = 0;
  bool close_after_write_ = false;
  bool read_closed_ = false;  ///< peer EOF, protocol error, or server drain
  bool read_paused_ = false;

  std::chrono::steady_clock::time_point last_activity_;
};

}  // namespace serve
