// ReactorServer integration tests: a real orf::Service behind the epoll
// reactor (Dispatcher + ScoreBatcher) on an ephemeral port, driven through
// raw sockets. Pins down what the event loop must get right that a
// thread-per-connection server gets for free: pipelined responses leaving
// in request order even when completions land out of order, a stalled
// reader costing a buffer instead of a worker (the slow-client regression
// test, with a tiny SO_RCVBUF), idle keep-alive connections culled by the
// sweep, 429 admission control, and reactor responses byte-identical to
// serve::Api::handle run in process on a twin Service.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "orf/orf.hpp"
#include "serve/batcher.hpp"
#include "serve/dispatch.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/reactor.hpp"

namespace {

constexpr std::size_t kFeatures = 4;

orf::Config reactor_config() {
  orf::Config config;
  config.forest.n_trees = 5;
  config.forest.tree.n_tests = 16;
  config.engine.shards = 2;
  config.serve.port = 0;  // ephemeral
  config.serve.workers = 2;
  return config;
}

std::string score_body(int tag, std::size_t rows) {
  std::string body = "{\"rows\":[";
  for (std::size_t r = 0; r < rows; ++r) {
    if (r > 0) body += ',';
    body += '[';
    for (std::size_t f = 0; f < kFeatures; ++f) {
      if (f > 0) body += ',';
      body += std::to_string(tag + static_cast<int>(r * kFeatures + f));
    }
    body += ']';
  }
  body += "]}";
  return body;
}

struct ClientResponse {
  int status = 0;
  std::string headers;
  std::string body;
};

/// Minimal blocking client against the reactor; `rcvbuf` (when > 0) shrinks
/// SO_RCVBUF before connect for the slow-reader tests.
class Client {
 public:
  explicit Client(int port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  void send_raw(const std::string& wire) {
    ASSERT_EQ(::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
  }

  ClientResponse request(const std::string& method, const std::string& target,
                         const std::string& body = "") {
    std::string wire = method + " " + target + " HTTP/1.1\r\n";
    if (!body.empty() || method == "POST") {
      wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    wire += "\r\n" + body;
    send_raw(wire);
    return read_response();
  }

  ClientResponse read_response() {
    ClientResponse response;
    while (true) {
      const std::size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        response.headers = buffer_.substr(0, header_end + 4);
        std::size_t length = 0;
        const std::size_t cl = response.headers.find("Content-Length: ");
        if (cl != std::string::npos) {
          length = static_cast<std::size_t>(
              std::strtoull(response.headers.c_str() + cl + 16, nullptr, 10));
        }
        if (buffer_.size() >= header_end + 4 + length) {
          response.body = buffer_.substr(header_end + 4, length);
          std::sscanf(response.headers.c_str(), "HTTP/1.1 %d",
                      &response.status);
          buffer_.erase(0, header_end + 4 + length);  // keep pipelined rest
          return response;
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return response;  // peer closed mid-response
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closed the connection (EOF) within `deadline`.
  bool wait_eof(std::chrono::milliseconds deadline) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    char chunk[4096];
    while (std::chrono::steady_clock::now() < until) {
      timeval tv{0, 50 * 1000};
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n == 0) return true;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// One running reactor daemon: Service, Api, ScoreBatcher, Dispatcher and
/// ReactorServer, wired as orfd wires them (without the overload policy).
class ReactorDaemon {
 public:
  explicit ReactorDaemon(const orf::Config& config)
      : service_(kFeatures, config),
        api_(service_),
        batcher_(api_, config.serve),
        server_(config.serve, serve::Dispatcher(api_, batcher_),
                &service_.metrics_registry()) {
    batcher_.start();
    server_.set_drain_hook([this] { batcher_.stop(); });
    server_.start();
  }
  ~ReactorDaemon() { server_.stop(); }

  int port() const { return server_.port(); }
  orf::Service& service() { return service_; }
  serve::Api& api() { return api_; }
  serve::ReactorServer& server() { return server_; }

  std::uint64_t counter(const std::string& name,
                        const std::string& label_value = "") {
    for (const auto& counter : service_.metrics_registry().snapshot()
             .counters) {
      if (counter.id.name != name) continue;
      if (!label_value.empty() &&
          (counter.id.labels.empty() ||
           counter.id.labels[0].second != label_value)) {
        continue;
      }
      return counter.value;
    }
    return 0;
  }

  double gauge(const std::string& name) {
    for (const auto& gauge : service_.metrics_registry().snapshot().gauges) {
      if (gauge.id.name == name) return gauge.value;
    }
    return 0.0;
  }

 private:
  orf::Service service_;
  serve::Api api_;
  serve::ScoreBatcher batcher_;
  serve::ReactorServer server_;
};

TEST(ReactorServerTest, RoundTripsEveryRoute) {
  ReactorDaemon daemon(reactor_config());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  ClientResponse health = client.request("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"ok\""), std::string::npos);

  ClientResponse scores = client.request("POST", "/v1/score",
                                         score_body(1, 3));
  EXPECT_EQ(scores.status, 200);
  EXPECT_NE(scores.body.find("\"score\""), std::string::npos);

  ClientResponse metrics = client.request("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("orf_serve_batch_rows"), std::string::npos);

  EXPECT_EQ(client.request("GET", "/nope").status, 404);
  // Wrong method on a known route: the Api's 400-with-Allow contract.
  const ClientResponse wrong = client.request("GET", "/v1/score");
  EXPECT_EQ(wrong.status, 400);
  EXPECT_NE(wrong.headers.find("Allow: POST"), std::string::npos);
}

TEST(ReactorServerTest, MatchesInProcessApiByteForByte) {
  // Two Services built from one config see the same request sequence: one
  // behind the reactor (batched /v1/score included), one through
  // Api::handle in process. Any divergence in a response's wire bytes is
  // the reactor's (or the batcher's) fault, not the forest's.
  const orf::Config config = reactor_config();
  ReactorDaemon daemon(config);
  orf::Service twin_service(kFeatures, config);
  serve::Api twin(twin_service);
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  struct Case {
    std::string method;
    std::string target;
    std::string body;
  };
  const std::string day0 =
      "{\"reports\":[{\"disk\":0,\"features\":[1,2,3,4]},"
      "{\"disk\":1,\"features\":[4,3,2,1]}]}";
  const std::string day1 =
      "{\"reports\":[{\"disk\":0,\"features\":[2,2,3,5]},"
      "{\"disk\":1,\"features\":[4,1,2,1],\"fate\":\"failure\"}]}";
  const std::vector<Case> cases = {
      {"GET", "/healthz", ""},
      {"GET", "/healthz?ready", ""},
      {"POST", "/v1/score", score_body(10, 1)},
      {"POST", "/v1/ingest", day0},
      {"POST", "/v1/score", score_body(20, 2)},
      {"POST", "/v1/ingest", day1},
      {"POST", "/v1/score", score_body(30, 3)},
      {"GET", "/healthz", ""},
      {"POST", "/v1/score", "{\"rows\":"},         // malformed JSON
      {"POST", "/v1/score", "{\"rows\":[[1,2]]}"},  // wrong row width
      {"POST", "/v1/ingest", "{\"reports\":[{\"disk\":0}]}"},
      {"GET", "/v1/score", ""},   // known route, wrong method
      {"POST", "/metrics", ""},   // known route, wrong method
      {"GET", "/nope", ""},       // unknown route
  };
  const auto wire_of = [](const Case& c) {
    std::string wire = c.method + " " + c.target + " HTTP/1.1\r\n";
    if (c.method == "POST") {
      wire += "Content-Length: " + std::to_string(c.body.size()) + "\r\n";
    }
    return wire + "\r\n" + c.body;
  };
  const auto in_process = [&twin](const std::string& wire) {
    serve::RequestParser parser;
    EXPECT_EQ(parser.feed(wire), serve::RequestParser::State::kComplete);
    return serve::serialize(twin.handle(parser.take()), /*keep_alive=*/true);
  };
  for (const Case& c : cases) {
    const std::string wire = wire_of(c);
    const std::string expected = in_process(wire);
    client.send_raw(wire);
    const ClientResponse got = client.read_response();
    EXPECT_EQ(got.headers + got.body, expected)
        << c.method << " " << c.target << " " << c.body;
  }

  // /metrics counts the very requests above, and the reactor and batcher
  // add series of their own, so only the head up to Content-Length can
  // match byte for byte.
  const std::string wire = wire_of({"GET", "/metrics", ""});
  const std::string expected = in_process(wire);
  client.send_raw(wire);
  const ClientResponse metrics = client.read_response();
  EXPECT_EQ(metrics.headers.substr(0, metrics.headers.find("Content-Length")),
            expected.substr(0, expected.find("Content-Length")));
}

TEST(ReactorServerTest, PipelinedResponsesLeaveInRequestOrder) {
  ReactorDaemon daemon(reactor_config());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  // Batched /v1/score completes on the flusher thread, /healthz inline on
  // the worker: interleaving them pipelined forces out-of-order completion
  // while the wire must stay in order.
  const std::string score = score_body(5, 2);
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    wire += "POST /v1/score HTTP/1.1\r\nContent-Length: " +
            std::to_string(score.size()) + "\r\n\r\n" + score;
    wire += "GET /healthz HTTP/1.1\r\n\r\n";
  }
  client.send_raw(wire);

  for (int i = 0; i < 3; ++i) {
    const ClientResponse scores = client.read_response();
    EXPECT_EQ(scores.status, 200);
    EXPECT_NE(scores.body.find("\"score\""), std::string::npos)
        << "pipelined slot " << 2 * i << " out of order";
    const ClientResponse health = client.read_response();
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("\"ok\""), std::string::npos)
        << "pipelined slot " << 2 * i + 1 << " out of order";
  }
}

TEST(ReactorServerTest, ConcurrentKeepAliveConnectionsAllServed) {
  orf::Config config = reactor_config();
  config.serve.max_in_flight = 4096;
  ReactorDaemon daemon(config);

  const std::size_t kClients = 64;
  const int kRequestsEach = 3;
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(daemon.port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  std::atomic<int> ok{0};
  std::vector<std::thread> drivers;
  for (std::size_t i = 0; i < kClients; ++i) {
    drivers.emplace_back([&, i] {
      for (int r = 0; r < kRequestsEach; ++r) {
        const ClientResponse response = clients[i]->request(
            "POST", "/v1/score", score_body(static_cast<int>(i), 1));
        if (response.status == 200) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : drivers) thread.join();
  EXPECT_EQ(ok.load(), static_cast<int>(kClients) * kRequestsEach);

  // Server-side accounting reconciles with what the clients did.
  EXPECT_GE(daemon.counter("orf_serve_connections_total"), kClients);
  EXPECT_GE(daemon.gauge("orf_serve_open_connections"),
            static_cast<double>(kClients));
  clients.clear();  // all sockets close...
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (daemon.gauge("orf_serve_open_connections") > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(daemon.gauge("orf_serve_open_connections"), 0.0)
      << "closed connections were not swept";
}

TEST(ReactorServerTest, StalledReaderDoesNotBlockOtherClients) {
  ReactorDaemon daemon(reactor_config());

  // The slow client pipelines megabytes' worth of responses into a tiny
  // receive window and refuses to read — far beyond what the kernel's send
  // buffer absorbs, so the server's writes hit EAGAIN and the remainder
  // must sit in the connection's output buffer, not in a blocked worker.
  constexpr int kPipelined = 40;
  constexpr std::size_t kRowsEach = 1500;
  Client slow(daemon.port(), /*rcvbuf=*/1024);
  ASSERT_TRUE(slow.connected());
  const std::string big = score_body(3, kRowsEach);
  std::string wire;
  for (int i = 0; i < kPipelined; ++i) {
    wire += "POST /v1/score HTTP/1.1\r\nContent-Length: " +
            std::to_string(big.size()) + "\r\n\r\n" + big;
  }
  slow.send_raw(wire);

  // While the slow client stalls mid-response, well-behaved clients get
  // served — repeatedly, on every worker's watch, well inside the stall.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    Client fast(daemon.port());
    ASSERT_TRUE(fast.connected());
    EXPECT_EQ(fast.request("GET", "/healthz").status, 200);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10))
      << "a stalled reader starved the event loop";

  // The slow client finally reads: every buffered response arrives complete
  // and in order.
  for (int i = 0; i < kPipelined; ++i) {
    const ClientResponse response = slow.read_response();
    ASSERT_EQ(response.status, 200) << "response " << i << " corrupted";
    EXPECT_EQ(response.body.find("\"error\""), std::string::npos);
    EXPECT_EQ(response.body.back(), '}') << "response " << i << " truncated";
  }
}

TEST(ReactorServerTest, OverflowAnswered429WithRetryAfter) {
  orf::Config config = reactor_config();
  config.serve.max_in_flight = 2;
  ReactorDaemon daemon(config);

  Client first(daemon.port());
  Client second(daemon.port());
  ASSERT_EQ(first.request("GET", "/healthz").status, 200);
  ASSERT_EQ(second.request("GET", "/healthz").status, 200);

  Client third(daemon.port());
  ASSERT_TRUE(third.connected());
  const ClientResponse rejected = third.read_response();  // canned, no request
  EXPECT_EQ(rejected.status, 429);
  EXPECT_NE(rejected.headers.find("Retry-After:"), std::string::npos);
  EXPECT_GE(daemon.counter("orf_serve_overflow_total"), 1u);
}

TEST(ReactorServerTest, IdleConnectionsAreCulled) {
  orf::Config config = reactor_config();
  config.serve.idle_timeout_ms = 150;
  ReactorDaemon daemon(config);

  Client client(daemon.port());
  ASSERT_EQ(client.request("GET", "/healthz").status, 200);
  EXPECT_TRUE(client.wait_eof(std::chrono::milliseconds(3000)))
      << "idle keep-alive connection was never culled";
}

TEST(ReactorServerTest, ProtocolErrorsAnswerAndClose) {
  ReactorDaemon daemon(reactor_config());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());
  client.send_raw("NOT A REQUEST\r\n\r\n");
  const ClientResponse response = client.read_response();
  // The parser picks the status (501 unknown method here, 400 for framing
  // noise); the reactor's contract is an error answer and a closed socket.
  EXPECT_GE(response.status, 400);
  EXPECT_TRUE(client.wait_eof(std::chrono::milliseconds(2000)));
}

TEST(ReactorServerTest, StopDrainsInFlightWorkAndClosesKeepAlive) {
  auto daemon = std::make_unique<ReactorDaemon>(reactor_config());
  Client client(daemon->port());
  ASSERT_EQ(client.request("POST", "/v1/score", score_body(9, 2)).status,
            200);
  daemon->server().stop();
  EXPECT_TRUE(client.wait_eof(std::chrono::milliseconds(2000)))
      << "drain left the keep-alive connection open";
  daemon.reset();  // second stop() via destructor: idempotent
}

}  // namespace
