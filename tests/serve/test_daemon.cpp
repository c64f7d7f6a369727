// End-to-end daemon tests: a real orf::Service behind the epoll reactor on
// an ephemeral port, wired as orfd wires it (score batcher, overload
// policy, drain hook), driven through actual sockets. Covers the serving
// contract of DESIGN.md §11: score/ingest/metrics/healthz round trips,
// concurrent scoring with the flat kernel quiescent, admission-control 429
// with Retry-After, malformed bodies answered 400 with a cause, WAL
// degrade/recover, load shedding reconciled with its counter, and the
// drain → final checkpoint → resume path being bit-identical to an
// uninterrupted run.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "orf/orf.hpp"
#include "robust/failpoint.hpp"
#include "serve/batcher.hpp"
#include "serve/dispatch.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "serve/overload.hpp"
#include "serve/reactor.hpp"

namespace {

constexpr std::size_t kFeatures = 4;

orf::Config daemon_config() {
  orf::Config config;
  config.forest.n_trees = 5;
  config.forest.tree.n_tests = 16;
  config.serve.port = 0;  // ephemeral
  config.serve.workers = 2;
  config.engine.shards = 2;
  return config;
}

/// Minimal blocking HTTP client: one request, read to Content-Length.
struct ClientResponse {
  int status = 0;
  std::string headers;
  std::string body;
};

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
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

  ClientResponse request(const std::string& method, const std::string& target,
                         const std::string& body = "") {
    std::string wire = method + " " + target + " HTTP/1.1\r\n";
    if (!body.empty() || method == "POST") {
      wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    wire += "\r\n" + body;
    EXPECT_EQ(::send(fd_, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    return read_response();
  }

  ClientResponse read_response() {
    std::string buffer;
    char chunk[4096];
    ClientResponse response;
    while (true) {
      const std::size_t header_end = buffer.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        response.headers = buffer.substr(0, header_end + 4);
        std::size_t length = 0;
        const std::size_t cl = response.headers.find("Content-Length: ");
        if (cl != std::string::npos) {
          length = static_cast<std::size_t>(
              std::strtoull(response.headers.c_str() + cl + 16, nullptr, 10));
        }
        if (buffer.size() >= header_end + 4 + length) {
          response.body = buffer.substr(header_end + 4, length);
          std::sscanf(response.headers.c_str(), "HTTP/1.1 %d",
                      &response.status);
          return response;
        }
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return response;  // peer closed mid-response
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// One running daemon on an ephemeral port: Service, Api, Overload,
/// ScoreBatcher, Dispatcher and ReactorServer, wired as orfd wires them.
class Daemon {
 public:
  explicit Daemon(const orf::Config& config)
      : service_(kFeatures, config),
        api_(service_),
        overload_(config.serve, service_.metrics_registry()),
        batcher_(api_, config.serve),
        server_(config.serve, serve::Dispatcher(api_, batcher_, &overload_),
                &service_.metrics_registry()) {
    batcher_.set_overload(&overload_);
    overload_.set_queue_age_probe(
        [this] { return batcher_.oldest_wait_seconds(); });
    batcher_.start();
    server_.set_overload(&overload_);
    server_.set_drain_hook([this] { batcher_.stop(); });
    server_.start();
  }
  ~Daemon() { server_.stop(); }

  orf::Service& service() { return service_; }
  serve::Overload& overload() { return overload_; }
  serve::ReactorServer& server() { return server_; }
  int port() const { return server_.port(); }

 private:
  orf::Service service_;
  serve::Api api_;
  serve::Overload overload_;
  serve::ScoreBatcher batcher_;
  serve::ReactorServer server_;
};

std::string ingest_body(data::Day day, std::size_t disks,
                        bool fail_last = false) {
  std::string body = "{\"reports\":[";
  for (std::size_t d = 0; d < disks; ++d) {
    if (d > 0) body += ',';
    body += "{\"disk\":" + std::to_string(d) + ",\"features\":[";
    for (std::size_t f = 0; f < kFeatures; ++f) {
      if (f > 0) body += ',';
      body += std::to_string(0.1 * static_cast<double>(day + 1) *
                             static_cast<double>(f + d + 1));
    }
    body += "]";
    if (fail_last && d + 1 == disks) body += ",\"fate\":\"failure\"";
    body += "}";
  }
  body += "]}";
  return body;
}

std::uint64_t counter_value(const obs::Snapshot& snapshot,
                            const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& c : snapshot.counters) {
    if (c.id.name == name) total += c.value;
  }
  return total;
}

std::string service_state(orf::Service& service) {
  std::ostringstream os;
  service.save(os);
  return os.str();
}

TEST(Daemon, HealthzScoreIngestMetricsRoundTrip) {
  Daemon daemon(daemon_config());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  // Liveness first: fresh daemon at day 0, not resumed.
  ClientResponse health = client.request("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  const serve::json::Value health_doc = serve::json::parse(health.body);
  EXPECT_DOUBLE_EQ(health_doc.find("next_day")->number, 0.0);
  EXPECT_FALSE(health_doc.find("resumed")->boolean);

  // Ingest two days (same keep-alive connection).
  ClientResponse ingest =
      client.request("POST", "/v1/ingest", ingest_body(0, 3));
  ASSERT_EQ(ingest.status, 200) << ingest.body;
  serve::json::Value ingest_doc = serve::json::parse(ingest.body);
  EXPECT_DOUBLE_EQ(ingest_doc.find("day")->number, 0.0);
  EXPECT_DOUBLE_EQ(ingest_doc.find("accepted")->number, 3.0);
  EXPECT_EQ(ingest_doc.find("outcomes")->array.size(), 3u);
  ingest = client.request("POST", "/v1/ingest", ingest_body(1, 3, true));
  ASSERT_EQ(ingest.status, 200);
  EXPECT_DOUBLE_EQ(serve::json::parse(ingest.body).find("day")->number, 1.0);

  // Score a batch through the same connection.
  ClientResponse score = client.request(
      "POST", "/v1/score",
      "{\"rows\":[[0.1,0.2,0.3,0.4],[0.5,0.6,0.7,0.8]]}");
  ASSERT_EQ(score.status, 200) << score.body;
  const serve::json::Value score_doc = serve::json::parse(score.body);
  ASSERT_EQ(score_doc.find("results")->array.size(), 2u);
  for (const auto& result : score_doc.find("results")->array) {
    const double s = result.find("score")->number;
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }

  // The scrape covers serving, engine and forest series in one exposition.
  ClientResponse metrics = client.request("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  for (const char* series :
       {"orf_serve_requests_total", "orf_serve_request_seconds",
        "orf_serve_open_connections", "orf_engine_shard_ingested_total",
        "orf_forest_flat_rebuilds_total"}) {
    EXPECT_NE(metrics.body.find(series), std::string::npos) << series;
  }
}

TEST(Daemon, MalformedBodiesAnswer400WithCause) {
  Daemon daemon(daemon_config());
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  ClientResponse bad = client.request("POST", "/v1/score", "{\"rows\":");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("error"), std::string::npos);

  bad = client.request("POST", "/v1/score", "{\"rows\":[[1,2]]}");
  EXPECT_EQ(bad.status, 400);  // wrong row width
  EXPECT_NE(bad.body.find("4"), std::string::npos);

  // Strict policy: a non-finite feature rejects the whole batch as 400.
  bad = client.request(
      "POST", "/v1/ingest",
      "{\"reports\":[{\"disk\":0,\"features\":[1,2,3,1e400]}]}");
  EXPECT_EQ(bad.status, 400);

  bad = client.request("GET", "/nope");
  EXPECT_EQ(bad.status, 404);

  // Known route, wrong method: 400 with the cause and an Allow header
  // naming what the route accepts (404 stays reserved for unknown routes).
  bad = client.request("GET", "/v1/score");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("use POST"), std::string::npos);
  EXPECT_NE(bad.headers.find("Allow: POST"), std::string::npos);

  bad = client.request("POST", "/metrics");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.headers.find("Allow: GET, HEAD"), std::string::npos);
}

TEST(Daemon, ConcurrentScoresKeepTheFlatKernelQuiescent) {
  Daemon daemon(daemon_config());
  {
    Client seed(daemon.port());
    ASSERT_EQ(seed.request("POST", "/v1/ingest", ingest_body(0, 4)).status,
              200);
  }
  const std::uint64_t rebuilds_before = counter_value(
      daemon.service().metrics_snapshot(), "orf_forest_flat_rebuilds_total");

  std::vector<std::thread> scorers;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    scorers.emplace_back([&daemon, &ok] {
      Client client(daemon.port());
      if (!client.connected()) return;
      for (int i = 0; i < 20; ++i) {
        const ClientResponse response = client.request(
            "POST", "/v1/score", "{\"rows\":[[0.1,0.2,0.3,0.4]]}");
        if (response.status == 200) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : scorers) t.join();
  EXPECT_EQ(ok.load(), 80);

  // Pure scoring is const: the flat cache was never rebuilt or resynced.
  const std::uint64_t rebuilds_after = counter_value(
      daemon.service().metrics_snapshot(), "orf_forest_flat_rebuilds_total");
  EXPECT_EQ(rebuilds_before, rebuilds_after);
}

TEST(Daemon, AdmissionControlAnswers429WithRetryAfter) {
  orf::Config config = daemon_config();
  config.serve.max_in_flight = 0;  // admit nothing: every connection is 429
  config.serve.retry_after_seconds = 7;
  Daemon daemon(config);

  Client client(daemon.port());
  ASSERT_TRUE(client.connected());
  const ClientResponse response = client.request("GET", "/healthz");
  EXPECT_EQ(response.status, 429);
  EXPECT_NE(response.headers.find("Retry-After: 7"), std::string::npos);
  EXPECT_NE(response.headers.find("Connection: close"), std::string::npos);

  const obs::Snapshot snapshot = daemon.service().metrics_snapshot();
  EXPECT_GE(counter_value(snapshot, "orf_serve_overflow_total"), 1u);
}

TEST(Daemon, DrainFinalCheckpointResumeIsBitIdentical) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      "orf_daemon_resume_test";
  std::filesystem::remove_all(dir);
  constexpr data::Day kDays = 12;
  constexpr data::Day kStopAfter = 7;

  orf::Config config = daemon_config();
  config.robust.checkpoint_dir = dir.string();
  config.robust.checkpoint_every = 3;  // periodic snapshots ride along

  // Reference: one uninterrupted service consuming every day directly.
  orf::Config plain = daemon_config();
  orf::Service uninterrupted(kFeatures, plain);
  {
    Daemon first(config);
    Client client(first.port());
    ASSERT_TRUE(client.connected());
    for (data::Day day = 0; day < kStopAfter; ++day) {
      ASSERT_EQ(
          client.request("POST", "/v1/ingest", ingest_body(day, 5)).status,
          200);
    }
    // SIGTERM path: drain the server, then the final checkpoint.
    first.server().stop();
    EXPECT_FALSE(first.service().checkpoint_now().empty());
  }

  orf::Config resumed_config = config;
  resumed_config.robust.resume = true;
  Daemon second(resumed_config);
  EXPECT_TRUE(second.service().resumed());
  EXPECT_EQ(second.service().next_day(), kStopAfter);
  {
    Client client(second.port());
    ASSERT_TRUE(client.connected());
    for (data::Day day = kStopAfter; day < kDays; ++day) {
      ASSERT_EQ(
          client.request("POST", "/v1/ingest", ingest_body(day, 5)).status,
          200);
    }
  }

  std::vector<engine::DayOutcome> outcomes;
  std::vector<std::vector<float>> rows(5);
  std::vector<engine::DiskReport> reports(5);
  for (data::Day day = 0; day < kDays; ++day) {
    // Rebuild the exact batches the HTTP path carried.
    const serve::json::Value doc = serve::json::parse(ingest_body(day, 5));
    const serve::json::Array& parsed = doc.find("reports")->array;
    for (std::size_t d = 0; d < parsed.size(); ++d) {
      rows[d].clear();
      for (const auto& cell : parsed[d].find("features")->array) {
        rows[d].push_back(static_cast<float>(cell.number));
      }
      reports[d] = engine::DiskReport{
          .disk = static_cast<data::DiskId>(d), .features = rows[d]};
    }
    uninterrupted.ingest(reports, outcomes);
  }

  // Bit-identical: the resumed service's complete serialized state equals
  // the never-interrupted run's.
  EXPECT_EQ(service_state(second.service()), service_state(uninterrupted));
}

TEST(Daemon, WalFailureDegradesToScoreOnlyOverHttpAndRecoversInPlace) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "orf_daemon_degraded_test";
  std::filesystem::remove_all(dir);
  orf::Config config = daemon_config();
  config.robust.checkpoint_dir = dir.string();
  Daemon daemon(config);
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());
  ASSERT_EQ(client.request("POST", "/v1/ingest", ingest_body(0, 3)).status,
            200);

  // The WAL device dies: ingest is refused rather than acked un-durably.
  robust::failpoints::arm("wal.append", {robust::FaultKind::kIoError});
  const ClientResponse refused =
      client.request("POST", "/v1/ingest", ingest_body(1, 3));
  EXPECT_EQ(refused.status, 503);
  EXPECT_NE(refused.body.find("degraded"), std::string::npos);

  // Liveness stays green — degraded must never get the process restarted —
  // while the readiness probe answers 503 naming the failed component.
  EXPECT_EQ(client.request("GET", "/healthz").status, 200);
  ClientResponse ready = client.request("GET", "/healthz?ready");
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("degraded"), std::string::npos);
  EXPECT_NE(ready.body.find("wal"), std::string::npos);

  // Score-only mode: prediction still answers normally.
  EXPECT_EQ(client
                .request("POST", "/v1/score",
                         "{\"rows\":[[0.1,0.2,0.3,0.4]]}")
                .status,
            200);

  // Device heals: the next readiness probe recovers in place — no restart.
  robust::failpoints::disarm_all();
  ready = client.request("GET", "/healthz?ready");
  EXPECT_EQ(ready.status, 200);
  EXPECT_NE(ready.body.find("\"ok\""), std::string::npos);
  EXPECT_EQ(client.request("POST", "/v1/ingest", ingest_body(1, 3)).status,
            200);
  EXPECT_EQ(daemon.service().next_day(), 2);
  std::filesystem::remove_all(dir);
}

TEST(Daemon, OverloadShedsIngestFirstOverHttpAndTheCounterReconciles) {
  // The Dispatcher consults the Overload policy before touching the Api.
  orf::Config config = daemon_config();
  config.serve.shed_high_water = 2;
  Daemon daemon(config);
  serve::Overload& overload = daemon.overload();
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());

  // Quiet daemon: everything admitted.
  EXPECT_EQ(client.request("POST", "/v1/ingest", ingest_body(0, 3)).status,
            200);

  // Pin synthetic pressure at the high-water mark: ingest sheds with a
  // Retry-After, score and the probes keep answering.
  overload.begin_request();
  overload.begin_request();
  int shed_observed = 0;
  const ClientResponse shed =
      client.request("POST", "/v1/ingest", ingest_body(1, 3));
  EXPECT_EQ(shed.status, 503);
  if (shed.status == 503) ++shed_observed;
  EXPECT_NE(shed.body.find("shed"), std::string::npos);
  EXPECT_NE(shed.headers.find("Retry-After: "), std::string::npos);
  EXPECT_EQ(client
                .request("POST", "/v1/score",
                         "{\"rows\":[[0.1,0.2,0.3,0.4]]}")
                .status,
            200);
  EXPECT_EQ(client.request("GET", "/healthz").status, 200);
  EXPECT_EQ(client.request("GET", "/metrics").status, 200);

  // Pressure releases: ingest is admitted again, and the shed counter
  // reconciles exactly with what the client saw.
  overload.end_request();
  overload.end_request();
  EXPECT_EQ(client.request("POST", "/v1/ingest", ingest_body(1, 3)).status,
            200);
  EXPECT_EQ(counter_value(daemon.service().metrics_snapshot(),
                          "orf_serve_shed_total"),
            static_cast<std::uint64_t>(shed_observed));
}

}  // namespace
