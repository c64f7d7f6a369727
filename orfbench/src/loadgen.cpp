#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <optional>
#include <stdexcept>

#include "schedule.hpp"

namespace orfbench {

namespace {

bool iequals_prefix(std::string_view text, std::string_view prefix) {
  if (text.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    const char a = text[i] >= 'A' && text[i] <= 'Z' ? text[i] - 'A' + 'a' : text[i];
    if (a != prefix[i]) return false;
  }
  return true;
}

/// Consumes one complete response from the front of `in`, if there is one.
bool take_response(std::string& in, int& status, std::string& body) {
  const auto head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  const std::string_view head(in.data(), head_end);
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
    throw std::runtime_error("malformed response head");
  }
  std::size_t length = 0;
  std::size_t at = head.find("\r\n");
  while (at != std::string_view::npos && at < head.size()) {
    const std::size_t next = head.find("\r\n", at + 2);
    const std::string_view line = head.substr(
        at + 2, (next == std::string_view::npos ? head.size() : next) - at - 2);
    if (iequals_prefix(line, "content-length:")) {
      length = std::strtoull(std::string(line.substr(15)).c_str(), nullptr, 10);
    }
    at = next;
  }
  const std::size_t total = head_end + 4 + length;
  if (in.size() < total) return false;
  status = std::atoi(std::string(head.substr(9, 3)).c_str());
  body.assign(in, head_end + 4, length);
  in.erase(0, total);
  return true;
}

int connect_to(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

std::string post_head(std::string_view target, std::size_t body_bytes) {
  return "POST " + std::string(target) +
         " HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body_bytes) + "\r\n\r\n";
}

std::string get_head(std::string_view target) {
  return "GET " + std::string(target) + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

double Loadgen::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Loadgen::Connection {
  int fd = -1;
  std::size_t stream = 0;
  bool busy = false;
  std::uint64_t seq = 0;
  double due = 0.0;
  double sent = 0.0;
  double idle_since = 0.0;
  WireRequest request;
  std::size_t written = 0;
  bool want_out = false;
  std::string in;
};

Loadgen::Loadgen(int port, double request_timeout_s)
    : port_(port), request_timeout_s_(request_timeout_s) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1");
}

Loadgen::~Loadgen() {
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

namespace {

/// One blocking request/response on `fd`; returns the status (0 = failed).
int round_trip(int fd, WireRequest request, double timeout_s,
               std::string& body) {
  timeval tv{static_cast<time_t>(timeout_s),
             static_cast<suseconds_t>(
                 (timeout_s - static_cast<double>(static_cast<long>(timeout_s))) * 1e6)};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  std::string wire(request.head);
  wire += request.body;
  for (std::size_t at = 0; at < wire.size();) {
    const ssize_t n = send(fd, wire.data() + at, wire.size() - at, MSG_NOSIGNAL);
    if (n <= 0) return 0;
    at += static_cast<std::size_t>(n);
  }
  std::string in;
  char buf[65536];
  int status = 0;
  while (!take_response(in, status, body)) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return 0;
    in.append(buf, static_cast<std::size_t>(n));
  }
  return status;
}

}  // namespace

int Loadgen::open_connection() {
  // One round trip before the stream may use it, so a connection the
  // daemon has not accepted yet never charges its wait to a request.
  const int fd = connect_to(port_);
  std::string body;
  if (round_trip(fd, {get_head("/healthz"), {}}, request_timeout_s_, body) != 200) {
    close(fd);
    throw std::runtime_error("connection warm-up request failed");
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

Completion Loadgen::request_once(WireRequest request, double timeout_s) {
  static thread_local std::string body;
  Completion out;
  out.sent = out.due = now();
  const int fd = connect_to(port_);
  out.status = round_trip(fd, request, timeout_s, body);
  close(fd);
  out.body = &body;
  out.done = now();
  return out;
}

std::vector<StreamStats> Loadgen::run(std::vector<StreamSpec>& streams,
                                      double seconds, double drain_s) {
  // Wake on time: the default 50 us timer slack would show up as
  // generator lateness at every due time.
  prctl(PR_SET_TIMERSLACK, 1UL);
  std::vector<Connection> conns;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t c = 0; c < streams[s].connections; ++c) {
      Connection conn;
      conn.fd = open_connection();
      conn.stream = s;
      conns.push_back(std::move(conn));
    }
  }
  // The schedule starts once every connection is up.
  const double t0 = now();
  const double end = t0 + seconds;
  const double deadline = end + drain_s;
  for (Connection& conn : conns) conn.idle_since = t0;

  std::vector<StreamStats> stats(streams.size());
  std::vector<std::optional<OpenLoopScheduler>> schedules(streams.size());
  std::vector<std::uint64_t> closed_next(streams.size(), 0);
  std::vector<std::uint64_t> completed(streams.size(), 0);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    stats[s].name = streams[s].name;
    stats[s].failed_by_status.assign(6, 0);
    if (streams[s].rate > 0.0) {
      const double cap_end =
          std::min(end, t0 + static_cast<double>(streams[s].max_requests) /
                                 streams[s].rate);
      schedules[s].emplace(t0, streams[s].rate, cap_end);
    }
  }
  for (std::size_t i = 0; i < conns.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns[i].fd, &ev);
  }

  std::string body;
  auto finish = [&](Connection& c, int status, double t) {
    StreamStats& st = stats[c.stream];
    Completion done;
    done.seq = c.seq;
    done.status = status;
    done.due = c.due;
    done.sent = c.sent;
    done.done = t;
    done.body = &body;
    const bool open_loop = schedules[c.stream].has_value();
    bool ok = status == 200;
    if (ok && streams[c.stream].check) ok = streams[c.stream].check(done);
    if (ok) {
      ++st.succeeded;
      st.latencies_ms.push_back(1e3 * (t - (open_loop ? c.due : c.sent)));
    } else {
      ++st.failed;
      ++st.failed_by_status[std::min(status / 100, 5)];
      st.latencies_ms.push_back(kFailedLatencyMs);
    }
    ++completed[c.stream];
    st.window_s = std::max(st.window_s, t - t0);
    c.busy = false;
    c.idle_since = t;
    c.in.clear();
  };
  auto set_out = [&](std::size_t i, bool want) {
    Connection& c = conns[i];
    if (c.want_out == want) return;
    c.want_out = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  };
  auto reconnect = [&](std::size_t i) {
    Connection& c = conns[i];
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    close(c.fd);
    c.fd = open_connection();
    c.want_out = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
  };
  auto fail = [&](std::size_t i, double t) {
    finish(conns[i], 0, t);
    reconnect(i);
  };
  auto pump_out = [&](std::size_t i, double t) {
    Connection& c = conns[i];
    while (true) {
      const std::size_t total = c.request.head.size() + c.request.body.size();
      if (c.written >= total) break;
      iovec iov[2];
      int n = 0;
      if (c.written < c.request.head.size()) {
        iov[n++] = {const_cast<char*>(c.request.head.data()) + c.written,
                    c.request.head.size() - c.written};
        iov[n++] = {const_cast<char*>(c.request.body.data()),
                    c.request.body.size()};
      } else {
        const std::size_t at = c.written - c.request.head.size();
        iov[n++] = {const_cast<char*>(c.request.body.data()) + at,
                    c.request.body.size() - at};
      }
      const ssize_t wrote = writev(c.fd, iov, n);
      if (wrote < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          set_out(i, true);
          return;
        }
        if (errno == EINTR) continue;
        fail(i, t);
        return;
      }
      c.written += static_cast<std::size_t>(wrote);
    }
    set_out(i, false);
  };
  auto send_on = [&](std::size_t i, std::uint64_t seq, double due, double t) {
    Connection& c = conns[i];
    c.busy = true;
    c.seq = seq;
    c.due = due;
    c.sent = t;
    c.request = streams[c.stream].request(seq);
    c.written = 0;
    ++stats[c.stream].attempted;
    pump_out(i, t);
  };
  auto closed_may_send = [&](std::size_t s, double t) {
    return closed_next[s] < streams[s].max_requests &&
           (t < end || completed[s] < streams[s].min_requests);
  };

  bool mid_taken = false;
  bool end_taken = false;
  std::vector<epoll_event> events(conns.size() + 1);
  char buf[1 << 16];
  while (true) {
    double t = now();
    // Hand due work to idle connections.
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      if (c.busy) continue;
      const std::size_t s = c.stream;
      if (schedules[s]) {
        const auto dispatch = schedules[s]->next(t, c.idle_since);
        if (!dispatch) continue;
        stats[s].late_ms.push_back(1e3 * dispatch->late);
        send_on(i, dispatch->seq, dispatch->due, t);
      } else if (closed_may_send(s, t)) {
        send_on(i, closed_next[s]++, t, t);
      }
    }
    if (!mid_taken && t >= t0 + seconds / 2) {
      mid_taken = true;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        if (schedules[s]) stats[s].backlog_at_mid = schedules[s]->backlog(t);
      }
    }
    if (!end_taken && t >= end) {
      end_taken = true;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        if (schedules[s]) stats[s].backlog_at_end = schedules[s]->backlog(t);
      }
    }
    // Done when no stream can send and nothing is in flight.
    bool busy = false;
    bool pending = false;
    double wake = t + 0.05;
    std::vector<bool> has_idle(streams.size(), false);
    for (const Connection& c : conns) {
      busy = busy || c.busy;
      if (!c.busy) has_idle[c.stream] = true;
    }
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (schedules[s]) {
        if (!schedules[s]->exhausted()) {
          pending = true;
          // A stream with every connection busy waits for a response, not
          // for its next due time: never spin while the server is behind.
          if (has_idle[s]) wake = std::min(wake, schedules[s]->next_due());
        }
      } else if (closed_may_send(s, t)) {
        pending = true;
      }
    }
    if (!busy && !pending) break;
    if (t > deadline) {
      // Out of time: whatever is in flight or still unsent failed.
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if (conns[i].busy) fail(i, t);
      }
      for (std::size_t s = 0; s < streams.size(); ++s) {
        if (!schedules[s]) continue;
        while (auto d = schedules[s]->next(t, t)) {
          ++stats[s].attempted;
          ++stats[s].failed;
          ++stats[s].failed_by_status[0];
          stats[s].latencies_ms.push_back(kFailedLatencyMs);
        }
      }
      break;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].busy && t - conns[i].sent > request_timeout_s_) fail(i, t);
    }
    const double wait = std::max(0.0, wake - t);
    const timespec ts{static_cast<time_t>(wait),
                      static_cast<long>((wait - std::floor(wait)) * 1e9)};
    const int n = epoll_pwait2(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), &ts, nullptr);
    t = now();
    for (int e = 0; e < n; ++e) {
      const std::size_t i = events[e].data.u64;
      Connection& c = conns[i];
      if (events[e].events & EPOLLOUT) {
        if (c.busy) pump_out(i, t);
        else set_out(i, false);
      }
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        bool closed = false;
        while (true) {
          const ssize_t got = recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
          if (got > 0) {
            c.in.append(buf, static_cast<std::size_t>(got));
            continue;
          }
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (got < 0 && errno == EINTR) continue;
          closed = true;
          break;
        }
        int status = 0;
        if (c.busy && take_response(c.in, status, body)) {
          finish(c, status, t);
        }
        if (closed) {
          if (c.busy) fail(i, t);
          else reconnect(i);
        }
      }
    }
  }
  for (Connection& c : conns) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    close(c.fd);
  }
  return stats;
}

}  // namespace orfbench
