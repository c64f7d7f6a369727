// Incremental HTTP/1.1 for the orfd daemon: a push parser built for torn
// reads, and a response serializer.
//
// RequestParser consumes bytes exactly as the kernel hands them over — one
// byte at a time, a header split mid-name, a body across many segments —
// and surfaces each complete request in arrival order, including several
// pipelined on one connection (bytes past the first request stay buffered
// and parse after take()). Limits are enforced while reading, not after:
// a Content-Length beyond max_body_bytes is rejected (413) before a single
// body byte is buffered, and runaway header sections cut off at
// max_header_bytes (431). Framing is strict where leniency would let a
// proxy and the daemon disagree on where a request ends: repeated
// Content-Length headers must agree, and a bare CR or LF (or a NUL) in the
// head is refused, both with 400. Protocol errors latch: the parser
// reports the HTTP status to answer with (400/411/413/431/501) plus a
// one-line cause, and the connection must close (framing is unrecoverable
// after a malformed request).
//
// Scope: the subset orfd speaks — methods GET/POST/HEAD/PUT/DELETE,
// Content-Length framing (chunked transfer encoding is answered 501),
// HTTP/1.1 keep-alive defaults with Connection: close respected.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace serve {

struct Request {
  std::string method;
  std::string target;  ///< origin-form, e.g. "/v1/score"
  std::string version; ///< "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Whether the connection may carry another request after this one
  /// (HTTP/1.1 default unless Connection: close; HTTP/1.0 opt-in).
  bool keep_alive = true;

  /// First header with this name, case-insensitively; nullptr when absent.
  const std::string* header(std::string_view name) const;
};

struct Response {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers beyond Content-Type/Content-Length/Connection
  /// (e.g. {"Retry-After", "1"}).
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Standard reason phrase for the handful of statuses orfd emits.
std::string_view reason_phrase(int status);

/// Split an origin-form target at '?': route_of("/healthz?ready") is
/// "/healthz", query_of is "ready" (empty when there is no query). Routing,
/// shedding and metric labels all use the route so query strings never
/// explode label cardinality.
std::string_view route_of(std::string_view target);
std::string_view query_of(std::string_view target);

/// Wire form of `response`; `keep_alive` controls the Connection header.
std::string serialize(const Response& response, bool keep_alive);

/// recv()/send() with socket fault injection: the reactor runs all
/// connection I/O through these, so the failpoint sites serve.conn_read /
/// serve.conn_write can simulate short reads/writes (the syscall is capped
/// to one byte — no stream bytes are lost, torn-frame paths just get
/// exercised), peer resets (ECONNRESET) and stalls (EAGAIN, no progress).
/// With no failpoint armed they are the bare syscalls.
ssize_t faulty_recv(int fd, char* buf, std::size_t len);
ssize_t faulty_send(int fd, const char* data, std::size_t len);

class RequestParser {
 public:
  struct Limits {
    std::size_t max_body_bytes = 8u << 20;
    std::size_t max_header_bytes = 64u << 10;
  };

  enum class State {
    kNeedMore,  ///< feed more bytes
    kComplete,  ///< a full request is ready — call take()
    kError,     ///< protocol error — answer error_status() and close
  };

  RequestParser() : RequestParser(Limits{}) {}
  explicit RequestParser(Limits limits) : limits_(limits) {}

  /// Buffer `bytes` and advance the parse as far as possible.
  State feed(std::string_view bytes);

  State state() const { return state_; }

  /// The completed request (valid in kComplete). Resets the parser and
  /// immediately parses any pipelined bytes already buffered — check
  /// state() again after every take().
  Request take();

  /// HTTP status (and one-line cause) to answer with in kError.
  int error_status() const { return error_status_; }
  const std::string& error_detail() const { return error_detail_; }

 private:
  void advance();
  bool parse_head(std::string_view head);
  void fail(int status, std::string detail);

  Limits limits_;
  State state_ = State::kNeedMore;
  std::string buffer_;
  Request request_;
  bool head_done_ = false;
  std::size_t body_needed_ = 0;
  int error_status_ = 400;
  std::string error_detail_;
};

}  // namespace serve
