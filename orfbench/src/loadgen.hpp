// Single-threaded HTTP/1.1 load generator over keep-alive connections.
//
// One epoll loop drives every stream of a workload. A stream owns a fixed
// set of connections and is either closed-loop (the next request goes out
// when the previous response arrives) or open-loop (requests are due on an
// OpenLoopScheduler and wait in the generator when every connection of
// the stream is busy). Latency is measured from send time in a closed loop
// and from due time in an open loop; a failed request — non-200, torn
// connection, timeout, or a response the stream's check rejects — is
// recorded with kFailedLatencyMs so it misses every latency limit.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace orfbench {

inline constexpr double kFailedLatencyMs = 1e9;

/// A serialized request: head and body are sent back to back.
struct WireRequest {
  std::string_view head;
  std::string_view body;
};

/// "POST <target> HTTP/1.1" head with Content-Length for `body_bytes`.
std::string post_head(std::string_view target, std::size_t body_bytes);
/// "GET <target> HTTP/1.1" head.
std::string get_head(std::string_view target);

struct Completion {
  std::uint64_t seq = 0;
  int status = 0;          ///< HTTP status; 0 = I/O failure or timeout
  double due = 0.0;        ///< seconds, generator clock
  double sent = 0.0;
  double done = 0.0;
  std::string* body = nullptr;  ///< response body (may be moved from)
};

struct StreamSpec {
  std::string name;
  std::size_t connections = 1;
  /// Requests per second; 0 = closed loop.
  double rate = 0.0;
  /// Closed loop: keep sending past the window until this many completed.
  std::uint64_t min_requests = 0;
  /// Either loop: never send more than this many.
  std::uint64_t max_requests = std::numeric_limits<std::uint64_t>::max();
  std::function<WireRequest(std::uint64_t seq)> request;
  /// Called for every 200 response; returns whether the body is correct.
  std::function<bool(Completion&)> check;
};

struct StreamStats {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> failed_by_status;  ///< index = status / 100 (0 = I/O)
  std::vector<double> latencies_ms;  ///< one per attempted request
  std::vector<double> late_ms;       ///< generator lateness per open-loop send
  std::uint64_t backlog_at_end = 0;  ///< open loop: due but unsent at window end
  std::uint64_t backlog_at_mid = 0;  ///< open loop: due but unsent mid-window
  double window_s = 0.0;             ///< first due/send to last completion
};

class Loadgen {
 public:
  explicit Loadgen(int port, double request_timeout_s = 30.0);
  ~Loadgen();

  Loadgen(const Loadgen&) = delete;
  Loadgen& operator=(const Loadgen&) = delete;

  /// Run the streams for `seconds` of schedule (plus whatever closed-loop
  /// minimum remains), then drain for up to `drain_s`.
  std::vector<StreamStats> run(std::vector<StreamSpec>& streams,
                               double seconds, double drain_s = 30.0);

  /// One blocking request on a fresh connection (set-up and probes).
  Completion request_once(WireRequest request, double timeout_s = 30.0);

  static double now();

 private:
  struct Connection;
  int open_connection();

  int port_;
  double request_timeout_s_;
  int epoll_fd_ = -1;
};

}  // namespace orfbench
