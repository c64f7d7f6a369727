// serve::RequestParser — the wire cases a daemon actually sees: requests
// torn at every possible byte boundary, several requests pipelined into one
// segment, limits enforced before buffering, and the protocol-error → HTTP
// status mapping the connection loop answers with.
#include "serve/http.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <string_view>

#include "robust/failpoint.hpp"

namespace {

using serve::Request;
using serve::RequestParser;
using State = serve::RequestParser::State;

constexpr const char* kScoreRequest =
    "POST /v1/score HTTP/1.1\r\n"
    "Host: localhost\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 12\r\n"
    "\r\n"
    "{\"rows\":[]}X";

TEST(HttpParser, ParsesACompleteRequestInOneFeed) {
  RequestParser parser;
  ASSERT_EQ(parser.feed(kScoreRequest), State::kComplete);
  const Request request = parser.take();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/score");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.body, "{\"rows\":[]}X");
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(request.header("content-type"), nullptr);  // case-insensitive
  EXPECT_EQ(*request.header("CONTENT-TYPE"), "application/json");
  EXPECT_EQ(request.header("x-missing"), nullptr);
}

TEST(HttpParser, TornReadsByteByByteReassemble) {
  const std::string wire = kScoreRequest;
  RequestParser parser;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const State state = parser.feed(std::string_view(&wire[i], 1));
    if (i + 1 < wire.size()) {
      ASSERT_EQ(state, State::kNeedMore) << "byte " << i;
    } else {
      ASSERT_EQ(state, State::kComplete);
    }
  }
  const Request request = parser.take();
  EXPECT_EQ(request.body, "{\"rows\":[]}X");
}

TEST(HttpParser, TornAtEverySplitPoint) {
  const std::string wire = kScoreRequest;
  for (std::size_t split = 1; split < wire.size(); ++split) {
    RequestParser parser;
    parser.feed(std::string_view(wire).substr(0, split));
    ASSERT_EQ(parser.feed(std::string_view(wire).substr(split)),
              State::kComplete)
        << "split at " << split;
    EXPECT_EQ(parser.take().target, "/v1/score");
  }
}

TEST(HttpParser, PipelinedKeepAliveRequestsParseInOrder) {
  const std::string wire =
      "GET /healthz HTTP/1.1\r\n\r\n"
      "POST /v1/ingest HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
      "GET /metrics HTTP/1.1\r\n\r\n";
  RequestParser parser;
  ASSERT_EQ(parser.feed(wire), State::kComplete);

  Request first = parser.take();
  EXPECT_EQ(first.target, "/healthz");
  ASSERT_EQ(parser.state(), State::kComplete);  // take() re-parses leftovers

  Request second = parser.take();
  EXPECT_EQ(second.target, "/v1/ingest");
  EXPECT_EQ(second.body, "abcd");
  ASSERT_EQ(parser.state(), State::kComplete);

  Request third = parser.take();
  EXPECT_EQ(third.target, "/metrics");
  EXPECT_EQ(parser.state(), State::kNeedMore);
}

TEST(HttpParser, OversizedBodyRejectedBeforeBuffering) {
  RequestParser parser({.max_body_bytes = 64});
  const State state = parser.feed(
      "POST /v1/score HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
  ASSERT_EQ(state, State::kError);
  EXPECT_EQ(parser.error_status(), 413);
  EXPECT_NE(parser.error_detail().find("65"), std::string::npos);
}

TEST(HttpParser, OversizedHeaderSectionIs431) {
  RequestParser parser({.max_header_bytes = 128});
  std::string wire = "GET / HTTP/1.1\r\nX-Pad: ";
  wire += std::string(256, 'a');
  ASSERT_EQ(parser.feed(wire), State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, ProtocolErrorsMapToStatuses) {
  const struct {
    std::string_view wire;
    int status;
  } cases[] = {
      {"GARBAGE\r\n\r\n", 400},
      {"GET / HTTP/2.0\r\n\r\n", 400},
      {"GET noslash HTTP/1.1\r\n\r\n", 400},
      {"BREW /coffee HTTP/1.1\r\n\r\n", 501},
      {"POST /x HTTP/1.1\r\n\r\n", 411},  // no Content-Length
      {"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400},
      {"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
      // Content-Length values a lenient peer might read differently.
      {"POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
       400},
      {"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"POST /x HTTP/1.1\r\nContent-Length: +1\r\n\r\nx", 400},
      {"POST /x HTTP/1.1\r\nContent-Length: 1, 1\r\n\r\nx", 400},
      {"POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 01\r\n"
       "\r\nx",
       400},
      {"POST /x HTTP/1.1\r\nContent-Length: 1\r\n"
       "Transfer-Encoding: chunked\r\n\r\n",
       501},
      // Bare line breaks and NULs in the head.
      {"POST /x HTTP/1.1\nContent-Length: 1\r\n\r\nx", 400},
      {"GET / HTTP/1.1\r\nHost: a\nX-Smuggled: b\r\n\r\n", 400},
      {"GET /a\rb HTTP/1.1\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\r\n\r\n", 400},
      {std::string_view("GET /x\0y HTTP/1.1\r\n\r\n", 22), 400},
  };
  for (const auto& c : cases) {
    const std::string wire(c.wire);
    RequestParser parser;
    ASSERT_EQ(parser.feed(c.wire), State::kError) << wire;
    EXPECT_EQ(parser.error_status(), c.status) << wire;
    EXPECT_FALSE(parser.error_detail().empty());
  }
}

TEST(HttpParser, ConflictingContentLengthsAre400) {
  // Two framings for one request: a peer honouring the other copy would
  // lose sync with us on the keep-alive connection.
  RequestParser parser;
  ASSERT_EQ(parser.feed("POST /v1/score HTTP/1.1\r\nContent-Length: 2\r\n"
                        "Content-Length: 40\r\n\r\n{}"),
            State::kError);
  EXPECT_EQ(parser.error_status(), 400);
  EXPECT_NE(parser.error_detail().find("Content-Length"), std::string::npos);
}

TEST(HttpParser, RepeatedEqualContentLengthsFrameOnce) {
  RequestParser parser;
  ASSERT_EQ(parser.feed("POST /v1/score HTTP/1.1\r\ncontent-length: 2\r\n"
                        "Content-Length: 2\r\n\r\n{}"
                        "GET /healthz HTTP/1.1\r\n\r\n"),
            State::kComplete);
  EXPECT_EQ(parser.take().body, "{}");
  ASSERT_EQ(parser.state(), State::kComplete);
  EXPECT_EQ(parser.take().target, "/healthz");
}

TEST(HttpParser, ErrorLatches) {
  RequestParser parser;
  ASSERT_EQ(parser.feed("GARBAGE\r\n\r\n"), State::kError);
  EXPECT_EQ(parser.feed("GET / HTTP/1.1\r\n\r\n"), State::kError);
}

TEST(HttpParser, ConnectionHeaderControlsKeepAlive) {
  RequestParser parser;
  parser.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_FALSE(parser.take().keep_alive);
  parser.feed("GET / HTTP/1.0\r\n\r\n");
  EXPECT_FALSE(parser.take().keep_alive);  // 1.0 defaults to close
  parser.feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_TRUE(parser.take().keep_alive);
}

TEST(HttpResponse, SerializesStatusHeadersAndBody) {
  serve::Response response;
  response.status = 429;
  response.body = "{}";
  response.headers.emplace_back("Retry-After", "2");
  const std::string wire = serve::serialize(response, /*keep_alive=*/false);
  EXPECT_NE(wire.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{}"), std::string::npos);

  serve::Response ok;
  ok.body = "x";
  EXPECT_NE(serve::serialize(ok, true).find("Connection: keep-alive"),
            std::string::npos);
}

TEST(RouteSplit, SeparatesPathFromQuery) {
  EXPECT_EQ(serve::route_of("/healthz?ready"), "/healthz");
  EXPECT_EQ(serve::query_of("/healthz?ready"), "ready");
  EXPECT_EQ(serve::route_of("/healthz"), "/healthz");
  EXPECT_EQ(serve::query_of("/healthz"), "");
  EXPECT_EQ(serve::route_of("/v1/score?"), "/v1/score");
  EXPECT_EQ(serve::query_of("/v1/score?"), "");
}

class SocketFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    robust::failpoints::disarm_all();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(SocketFaults, DisarmedWrappersAreTheBareSyscalls) {
  ASSERT_EQ(serve::faulty_send(fds_[0], "hello", 5), 5);
  char buf[16];
  EXPECT_EQ(serve::faulty_recv(fds_[1], buf, sizeof buf), 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
}

TEST_F(SocketFaults, ShortReadCapsTheSyscallWithoutLosingBytes) {
  ASSERT_EQ(::send(fds_[0], "abc", 3, 0), 3);
  robust::failpoints::arm("serve.conn_read",
                          {robust::FaultKind::kShortRead});
  // Every read now returns at most one byte — but all bytes arrive.
  std::string got;
  char buf[16];
  while (got.size() < 3) {
    const ssize_t n = serve::faulty_recv(fds_[1], buf, sizeof buf);
    ASSERT_EQ(n, 1);
    got.append(buf, 1);
  }
  EXPECT_EQ(got, "abc");
}

TEST_F(SocketFaults, ShortWriteCapsTheSyscallWithoutLosingBytes) {
  robust::failpoints::arm("serve.conn_write",
                          {robust::FaultKind::kShortWrite});
  const char* data = "xyz";
  std::size_t off = 0;
  while (off < 3) {
    const ssize_t n = serve::faulty_send(fds_[0], data + off, 3 - off);
    ASSERT_EQ(n, 1);
    off += static_cast<std::size_t>(n);
  }
  char buf[16];
  robust::failpoints::disarm_all();
  EXPECT_EQ(serve::faulty_recv(fds_[1], buf, sizeof buf), 3);
  EXPECT_EQ(std::string(buf, 3), "xyz");
}

TEST_F(SocketFaults, ResetAndStallInjectTheirErrnos) {
  robust::failpoints::arm("serve.conn_read",
                          {robust::FaultKind::kEconnReset, 0, 1});
  char buf[16];
  errno = 0;
  EXPECT_EQ(serve::faulty_recv(fds_[1], buf, sizeof buf), -1);
  EXPECT_EQ(errno, ECONNRESET);

  robust::failpoints::arm("serve.conn_write",
                          {robust::FaultKind::kStall, 0, 1});
  errno = 0;
  EXPECT_EQ(serve::faulty_send(fds_[0], "x", 1), -1);
  EXPECT_EQ(errno, EAGAIN);

  // Counts exhausted: the stream carries on where it left off.
  EXPECT_EQ(serve::faulty_send(fds_[0], "x", 1), 1);
  EXPECT_EQ(serve::faulty_recv(fds_[1], buf, sizeof buf), 1);
}

}  // namespace
