// Serving benchmark: the reactor measured end-to-end through real sockets
// against one orf::Service, beside the same score request run in process
// through serve::Api::handle (no socket, no batcher), one closed loop per
// usable CPU. A single-threaded epoll load generator drives N keep-alive
// connections in a closed loop — each holds one POST /v1/score in flight.
// The two measurements alternate in kRounds slices that add up to
// --duration-s each, so drift in the host's speed lands on both rates
// alike. Results go to stdout and machine-readably to BENCH_serve.json (one
// JSONL line: the service registry snapshot plus bench_* extras), which
// scripts/bench_compare.py gates as reactor rps >= R x in-process rps.
//
//   micro_serve [--duration-s 2] [--connections 64] [--rows 8]
//               [--workers 0] [--bench-json BENCH_serve.json]
//
// --attach HOST:PORT skips the in-process server and drives an external
// orfd instead (scripts/serve_smoke.sh uses this for the ≥1k-connection
// soak, reconciling the printed client totals against /metrics); --pipeline
// D keeps D requests in flight per connection.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "orf/orf.hpp"
#include "serve/batcher.hpp"
#include "serve/dispatch.hpp"
#include "serve/handlers.hpp"
#include "serve/reactor.hpp"

namespace {

constexpr std::size_t kFeatures = 19;  // the paper's Table 2 SMART set
constexpr int kRounds = 4;             // alternating measurement slices

std::string score_wire(std::size_t rows) {
  std::string body = "{\"rows\":[";
  for (std::size_t r = 0; r < rows; ++r) {
    if (r > 0) body += ',';
    body += '[';
    for (std::size_t f = 0; f < kFeatures; ++f) {
      if (f > 0) body += ',';
      body += std::to_string((r * kFeatures + f) % 97);
    }
    body += ']';
  }
  body += "]}";
  return "POST /v1/score HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

struct LoadStats {
  std::uint64_t requests = 0;  ///< completed 200s within the window
  std::uint64_t errors = 0;    ///< non-200 or torn responses
  std::size_t connected = 0;   ///< connections that finished the handshake
  double wall_seconds = 0.0;
  std::vector<double> latencies_ms;

  double rps() const {
    return wall_seconds > 0 ? static_cast<double>(requests) / wall_seconds
                            : 0.0;
  }
  double percentile_ms(double q) const {
    if (latencies_ms.empty()) return 0.0;
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[rank];
  }
  void merge(const LoadStats& slice) {
    requests += slice.requests;
    errors += slice.errors;
    connected = std::max(connected, slice.connected);
    wall_seconds += slice.wall_seconds;
    latencies_ms.insert(latencies_ms.end(), slice.latencies_ms.begin(),
                        slice.latencies_ms.end());
  }
};

/// Closed-loop epoll client: `connections` keep-alive sockets, `depth`
/// pipelined requests in flight on each, new requests issued until the
/// deadline, then the loop drains what is still outstanding.
class LoadGen {
 public:
  LoadGen(const std::string& host, int port, std::size_t connections,
          std::size_t depth, std::string wire, double duration_s)
      : host_(host), port_(port), n_connections_(connections), depth_(depth),
        wire_(std::move(wire)), duration_s_(duration_s) {}

  LoadStats run() {
    LoadStats stats;
    const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) return stats;

    std::vector<std::unique_ptr<Conn>> conns;
    conns.reserve(n_connections_);
    for (std::size_t i = 0; i < n_connections_; ++i) {
      auto conn = open_connection(epoll_fd);
      if (conn) conns.push_back(std::move(conn));
    }
    stats.connected = conns.size();

    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(duration_s_));
    deadline_ = deadline;
    epoll_event events[128];
    std::size_t live = conns.size();
    while (live > 0) {
      const auto now = std::chrono::steady_clock::now();
      const bool closing = now >= deadline;
      int wait_ms = 100;
      if (!closing) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - now);
        wait_ms = std::max(1, static_cast<int>(left.count()) + 1);
      }
      const int n = ::epoll_wait(epoll_fd, events,
                                 static_cast<int>(std::size(events)),
                                 wait_ms);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        auto* conn = static_cast<Conn*>(events[i].data.ptr);
        if (conn->fd < 0) continue;
        if (!drive(epoll_fd, *conn, stats)) {
          close_conn(epoll_fd, *conn);
          --live;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        // Stop issuing; close connections with nothing left in flight.
        for (auto& conn : conns) {
          if (conn->fd >= 0 && conn->in_flight == 0) {
            close_conn(epoll_fd, *conn);
            --live;
          }
        }
        if (std::chrono::steady_clock::now() >=
            deadline + std::chrono::seconds(5)) {
          break;  // stragglers: count what completed, stop waiting
        }
      }
    }
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    // The drain tail runs past the deadline but its requests were issued
    // before it; clamp the rate window to the configured duration.
    stats.wall_seconds = std::min(stats.wall_seconds, duration_s_);
    for (auto& conn : conns) {
      if (conn->fd >= 0) close_conn(epoll_fd, *conn);
    }
    ::close(epoll_fd);
    return stats;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t in_flight = 0;
    bool connecting = true;
    bool want_write = true;
    std::vector<std::chrono::steady_clock::time_point> sent_at;  ///< FIFO
  };

  std::unique_ptr<Conn> open_connection(int epoll_fd) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return nullptr;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      return nullptr;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      return nullptr;
    }
    return conn;
  }

  static void close_conn(int epoll_fd, Conn& conn) {
    if (conn.fd < 0) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
  }

  void update_interest(int epoll_fd, Conn& conn) {
    const bool want = conn.out.size() > conn.out_off;
    if (want == conn.want_write) return;
    conn.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.ptr = &conn;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void issue(Conn& conn, const std::chrono::steady_clock::time_point& now) {
    conn.out += wire_;
    conn.sent_at.push_back(now);
    ++conn.in_flight;
  }

  /// Pump one connection: finish connecting, fill the pipeline while the
  /// deadline allows, write, read, account completed responses — and loop,
  /// since a completed response frees pipeline capacity for the next
  /// request (the closed loop lives here, not in epoll edges). False when
  /// the connection is finished (error, or drained after the deadline).
  bool drive(int epoll_fd, Conn& conn, LoadStats& stats) {
    if (conn.connecting) {
      int err = 0;
      socklen_t len = sizeof err;
      ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) return false;
      conn.connecting = false;
    }
    while (true) {
      const auto now = std::chrono::steady_clock::now();
      const bool deadline_passed = now >= deadline_;
      while (!deadline_passed && conn.in_flight < depth_) issue(conn, now);

      while (conn.out.size() > conn.out_off) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return false;
        }
        conn.out_off += static_cast<std::size_t>(n);
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }

      std::uint64_t completed = 0;
      char buf[32 * 1024];
      while (true) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n == 0) return false;  // server closed (drain, cull, error)
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return false;
        }
        conn.in.append(buf, static_cast<std::size_t>(n));
        while (consume_response(conn, stats, completed)) {
        }
      }
      // Only go around again when responses freed capacity to refill.
      if (completed == 0 || deadline_passed) break;
    }
    update_interest(epoll_fd, conn);
    return !(conn.in_flight == 0 &&
             std::chrono::steady_clock::now() >= deadline_);
  }

  bool consume_response(Conn& conn, LoadStats& stats,
                        std::uint64_t& completed) {
    const std::size_t header_end = conn.in.find("\r\n\r\n");
    if (header_end == std::string::npos) return false;
    std::size_t length = 0;
    const std::size_t cl = conn.in.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
      length = static_cast<std::size_t>(
          std::strtoull(conn.in.c_str() + cl + 16, nullptr, 10));
    }
    if (conn.in.size() < header_end + 4 + length) return false;
    int status = 0;
    std::sscanf(conn.in.c_str(), "HTTP/1.1 %d", &status);
    conn.in.erase(0, header_end + 4 + length);
    if (conn.in_flight > 0) {
      --conn.in_flight;
      ++completed;
      const auto sent = conn.sent_at.front();
      conn.sent_at.erase(conn.sent_at.begin());
      if (status == 200) {
        ++stats.requests;
        stats.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - sent)
                .count());
      } else {
        ++stats.errors;
      }
    }
    return true;
  }

  std::string host_;
  int port_;
  std::size_t n_connections_;
  std::size_t depth_;
  std::string wire_;
  double duration_s_;
  std::chrono::steady_clock::time_point deadline_{};
};

void report(const char* mode, const LoadStats& stats) {
  std::printf(
      "SERVE_BENCH mode=%s connections=%zu requests=%llu errors=%llu "
      "rps=%.0f p50_ms=%.3f p99_ms=%.3f\n",
      mode, stats.connected,
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.errors), stats.rps(),
      stats.percentile_ms(0.50), stats.percentile_ms(0.99));
  std::fflush(stdout);
}

struct Options {
  double duration_s = 2.0;
  std::size_t connections = 64;
  std::size_t rows = 8;
  std::size_t depth = 1;
  std::size_t workers = 0;
  std::string bench_json = "BENCH_serve.json";
  std::string attach;  ///< "HOST:PORT" — drive an external orfd
};

/// CPUs this process may run on (its affinity mask, so taskset counts).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// Closed loops on `threads` threads, each sending `request` through
/// Api::handle until `duration_s` has passed. Spread over every usable CPU
/// like the reactor and its load generator, the rate moves with the host's
/// parallelism the way the served rate does.
LoadStats run_in_process(serve::Api& api, const serve::Request& request,
                         double duration_s, std::size_t threads) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration_s));
  std::vector<LoadStats> per_thread(threads);
  std::vector<std::thread> loops;
  for (LoadStats& stats : per_thread) {
    loops.emplace_back([&api, &request, &stats, deadline] {
      auto now = std::chrono::steady_clock::now();
      while (now < deadline) {
        const serve::Response response = api.handle(request);
        const auto done = std::chrono::steady_clock::now();
        if (response.status == 200) {
          ++stats.requests;
          stats.latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(done - now).count());
        } else {
          ++stats.errors;
        }
        now = done;
      }
    });
  }
  for (std::thread& loop : loops) loop.join();
  LoadStats total;
  for (const LoadStats& stats : per_thread) total.merge(stats);
  total.connected = threads;
  total.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  static constexpr util::FlagSpec kSpecs[] = {
      {"duration-s", "SEC", "measurement window per path"},
      {"connections", "N", "concurrent keep-alive connections"},
      {"rows", "N", "rows per /v1/score request"},
      {"pipeline", "D", "requests in flight per connection"},
      {"workers", "N", "reactor event-loop threads (0 = auto)"},
      {"bench-json", "PATH", "JSONL output"},
      {"attach", "HOST:PORT", "drive an external orfd instead"},
  };
  try {
    flags.enforce("micro_serve", kSpecs);

    Options options;
    options.duration_s = flags.get_double("duration-s", options.duration_s);
    options.connections = static_cast<std::size_t>(
        flags.get_int("connections", static_cast<std::int64_t>(
                                         options.connections)));
    options.rows = static_cast<std::size_t>(
        flags.get_int("rows", static_cast<std::int64_t>(options.rows)));
    options.depth = static_cast<std::size_t>(
        flags.get_int("pipeline", static_cast<std::int64_t>(options.depth)));
    options.workers = static_cast<std::size_t>(
        flags.get_int("workers", static_cast<std::int64_t>(options.workers)));
    options.bench_json = flags.get("bench-json", options.bench_json);
    options.attach = flags.get("attach", options.attach);

    if (!options.attach.empty()) {
      const std::size_t colon = options.attach.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "micro_serve: --attach wants HOST:PORT\n");
        return 2;
      }
      const std::string host = options.attach.substr(0, colon);
      const int port = std::atoi(options.attach.c_str() + colon + 1);
      LoadGen generator(host, port, options.connections, options.depth,
                        score_wire(options.rows), options.duration_s);
      const LoadStats stats = generator.run();
      report("attach", stats);
      return stats.connected == 0 ? 1 : 0;
    }

    orf::Config config;
    config.serve.port = 0;
    config.serve.workers = options.workers;
    config.serve.max_in_flight =
        std::max<std::size_t>(config.serve.max_in_flight,
                              2 * options.connections);
    orf::Service service(kFeatures, config);
    serve::Api api(service);

    const std::string wire = score_wire(options.rows);
    serve::RequestParser parser;
    if (parser.feed(wire) != serve::RequestParser::State::kComplete) {
      std::fprintf(stderr, "micro_serve: score request does not parse\n");
      return 1;
    }
    const serve::Request request = parser.take();

    serve::ScoreBatcher batcher(api, config.serve);
    batcher.start();
    serve::ReactorServer server(config.serve, serve::Dispatcher(api, batcher),
                                &service.metrics_registry());
    server.set_drain_hook([&batcher] { batcher.stop(); });
    server.start();
    const double slice_s = options.duration_s / kRounds;
    const std::size_t cpus = usable_cpus();
    LoadStats inprocess_stats;
    LoadStats reactor_stats;
    for (int round = 0; round < kRounds; ++round) {
      inprocess_stats.merge(run_in_process(api, request, slice_s, cpus));
      LoadGen generator("127.0.0.1", server.port(), options.connections,
                        options.depth, wire, slice_s);
      reactor_stats.merge(generator.run());
    }
    server.stop();
    report("inprocess", inprocess_stats);
    report("reactor", reactor_stats);

    std::ofstream os(options.bench_json, std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "micro_serve: cannot write %s\n",
                   options.bench_json.c_str());
      return 1;
    }
    os << obs::to_json(
              service.metrics_registry().snapshot(),
              obs::JsonExtras{
                  {"bench_connections",
                   static_cast<double>(reactor_stats.connected)},
                  {"bench_rows", static_cast<double>(options.rows)},
                  {"bench_duration_seconds", reactor_stats.wall_seconds},
                  {"bench_requests",
                   static_cast<double>(reactor_stats.requests)},
                  {"bench_errors", static_cast<double>(reactor_stats.errors)},
                  {"bench_rps", reactor_stats.rps()},
                  {"bench_p50_ms", reactor_stats.percentile_ms(0.50)},
                  {"bench_p99_ms", reactor_stats.percentile_ms(0.99)},
                  {"bench_inprocess_requests",
                   static_cast<double>(inprocess_stats.requests)},
                  {"bench_inprocess_errors",
                   static_cast<double>(inprocess_stats.errors)},
                  {"bench_inprocess_rps", inprocess_stats.rps()},
              })
       << '\n';
    std::fprintf(stderr, "serve bench written to %s\n",
                 options.bench_json.c_str());
    return 0;
  } catch (const util::FlagError& error) {
    std::fprintf(stderr, "micro_serve: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "micro_serve: fatal: %s\n", error.what());
    return 1;
  }
}
