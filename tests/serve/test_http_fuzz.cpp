// Seeded fuzz suite for serve::RequestParser, the first code to touch every
// byte a client sends. A pipelined stream of valid /v1/score, /v1/ingest
// and probe requests is fed split at every boundary, truncated at every
// offset, byte-flipped at every offset and put through seeded compound
// mutations (huge, negative and conflicting Content-Lengths, duplicated
// header lines, bare LFs, chunked framing, tiny limits). The contract:
//   * valid bytes give back exactly the requests that were sent, however
//     the stream is torn, and a truncated stream only ever needs more;
//   * damaged bytes end in a typed kError (400/411/413/431/501 with a
//     cause), a wait for more, or requests that are still well framed,
//     and never change the requests sent before the damage;
//   * every request that does come back is well framed — known method,
//     origin-form target, body length equal to its Content-Length, no CR,
//     LF or NUL inside a field;
//   * the outcome does not depend on how the bytes are split across
//     feed() calls; and the parser never crashes, hangs or reads past its
//     buffer (the suite runs under ASan/UBSan via scripts/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "serve/http.hpp"
#include "util/rng.hpp"

namespace {

using serve::Request;
using serve::RequestParser;
using State = serve::RequestParser::State;

/// One request as a client would send it: wire bytes plus what the parser
/// must hand back for them.
struct Sent {
  std::string wire;
  Request request;
};

Sent make_request(std::string method, std::string target,
                  std::vector<std::pair<std::string, std::string>> headers,
                  std::string body) {
  Sent sent;
  sent.wire = method + " " + target + " HTTP/1.1\r\n";
  for (const auto& [name, value] : headers) {
    sent.wire += name + ": " + value + "\r\n";
  }
  sent.wire += "\r\n" + body;
  sent.request.method = std::move(method);
  sent.request.target = std::move(target);
  sent.request.version = "HTTP/1.1";
  sent.request.headers = std::move(headers);
  sent.request.body = std::move(body);
  return sent;
}

Sent post(std::string target, std::string body) {
  const std::string length = std::to_string(body.size());
  return make_request("POST", std::move(target),
                      {{"Host", "localhost"},
                       {"Content-Type", "application/json"},
                       {"Content-Length", length}},
                      std::move(body));
}

/// The pipelined keep-alive stream every test starts from.
const std::vector<Sent> kSent = {
    post("/v1/score", "{\"rows\":[[0.5,1,2,3],[1e-3,-2,0,4.5]]}"),
    post("/v1/ingest",
         "{\"reports\":[{\"disk\":0,\"features\":[0.5,-1.25,3e-05,12],"
         "\"fate\":\"failure\"}]}"),
    make_request("GET", "/metrics", {{"Host", "localhost"}}, ""),
    post("/v1/score", "{\"rows\":[]}"),
    make_request("GET", "/healthz?ready", {{"Connection", "close"}}, ""),
};

std::string stream() {
  std::string wire;
  for (const Sent& sent : kSent) wire += sent.wire;
  return wire;
}

/// Offset just past request i in stream().
std::size_t end_of(std::size_t i) {
  std::size_t end = 0;
  for (std::size_t k = 0; k <= i; ++k) end += kSent[k].wire.size();
  return end;
}

/// Everything the parser produced for one byte stream.
struct Outcome {
  std::vector<Request> requests;
  State state = State::kNeedMore;
  int error_status = 0;
  std::string error_detail;
};

/// Feed `wire` cut at the (sorted) offsets in `cuts`, draining every
/// completed request as it appears.
Outcome parse(std::string_view wire, const std::vector<std::size_t>& cuts,
              RequestParser::Limits limits = {}) {
  RequestParser parser(limits);
  Outcome outcome;
  std::size_t from = 0;
  const auto feed = [&](std::size_t to) {
    parser.feed(wire.substr(from, to - from));
    from = to;
    while (parser.state() == State::kComplete) {
      outcome.requests.push_back(parser.take());
    }
  };
  for (const std::size_t cut : cuts) feed(cut);
  feed(wire.size());
  outcome.state = parser.state();
  if (outcome.state == State::kError) {
    outcome.error_status = parser.error_status();
    outcome.error_detail = parser.error_detail();
  }
  return outcome;
}

Outcome parse_whole(std::string_view wire, RequestParser::Limits limits = {}) {
  return parse(wire, {}, limits);
}

void expect_same_request(const Request& got, const Request& want) {
  EXPECT_EQ(got.method, want.method);
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.headers, want.headers);
  EXPECT_EQ(got.body, want.body);
  EXPECT_EQ(got.keep_alive, want.keep_alive);
}

void expect_same_outcome(const Outcome& got, const Outcome& want) {
  ASSERT_EQ(got.requests.size(), want.requests.size());
  for (std::size_t i = 0; i < got.requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    expect_same_request(got.requests[i], want.requests[i]);
  }
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.error_status, want.error_status);
  EXPECT_EQ(got.error_detail, want.error_detail);
}

bool has_line_break_or_nul(std::string_view field) {
  return field.find_first_of(std::string_view("\r\n\0", 3)) !=
         std::string_view::npos;
}

/// Cut points 1, 2, ..., size - 1: one feed() per byte.
std::vector<std::size_t> every_byte(std::size_t size) {
  std::vector<std::size_t> cuts;
  for (std::size_t i = 1; i < size; ++i) cuts.push_back(i);
  return cuts;
}

bool iequals(std::string_view a, std::string_view b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](unsigned char x, unsigned char y) {
                      return std::tolower(x) == std::tolower(y);
                    });
}

/// The contract for arbitrary bytes: well-framed requests, then a typed
/// error or a wait for more — the same whether fed whole or cut at `cuts`.
void check_contract(const std::string& wire,
                    const std::vector<std::size_t>& cuts,
                    RequestParser::Limits limits = {}) {
  const Outcome whole = parse_whole(wire, limits);
  for (const Request& request : whole.requests) {
    EXPECT_TRUE(request.method == "GET" || request.method == "POST" ||
                request.method == "HEAD" || request.method == "PUT" ||
                request.method == "DELETE")
        << request.method;
    ASSERT_FALSE(request.target.empty());
    EXPECT_EQ(request.target.front(), '/');
    EXPECT_TRUE(request.version == "HTTP/1.1" || request.version == "HTTP/1.0");
    EXPECT_FALSE(has_line_break_or_nul(request.method));
    EXPECT_FALSE(has_line_break_or_nul(request.target));
    const std::string* cl = request.header("Content-Length");
    for (const auto& [name, value] : request.headers) {
      EXPECT_FALSE(has_line_break_or_nul(name));
      EXPECT_FALSE(has_line_break_or_nul(value));
      if (iequals(name, "Content-Length")) {
        EXPECT_EQ(value, *cl);
      }
    }
    std::size_t length = 0;
    if (cl != nullptr) {
      const auto [end, err] =
          std::from_chars(cl->data(), cl->data() + cl->size(), length);
      EXPECT_TRUE(err == std::errc() && end == cl->data() + cl->size())
          << *cl;
    }
    EXPECT_EQ(request.body.size(), length);
    EXPECT_LE(request.body.size(), limits.max_body_bytes);
  }
  if (whole.state == State::kError) {
    EXPECT_TRUE(whole.error_status == 400 || whole.error_status == 411 ||
                whole.error_status == 413 || whole.error_status == 431 ||
                whole.error_status == 501)
        << whole.error_status;
    EXPECT_FALSE(whole.error_detail.empty());
  }
  {
    SCOPED_TRACE("fed in pieces");
    expect_same_outcome(parse(wire, cuts, limits), whole);
  }
  SCOPED_TRACE("fed byte by byte");
  expect_same_outcome(parse(wire, every_byte(wire.size()), limits), whole);
}

/// Sorted random cut points into a `size`-byte stream.
std::vector<std::size_t> random_cuts(std::size_t size, util::Rng& rng) {
  std::vector<std::size_t> cuts;
  const int pieces = static_cast<int>(rng.range(1, 12));
  for (int p = 0; p < pieces && size > 0; ++p) cuts.push_back(rng.below(size));
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

/// Damage at `pos` cannot reach the requests that end before it: those
/// come back exactly, ahead of whatever the damage turns into.
void expect_intact_before(const std::string& wire, std::size_t pos) {
  const Outcome outcome = parse_whole(wire);
  for (std::size_t i = 0; i < kSent.size() && end_of(i) <= pos; ++i) {
    ASSERT_GT(outcome.requests.size(), i) << "request " << i << " lost";
    SCOPED_TRACE("intact request " + std::to_string(i));
    expect_same_request(outcome.requests[i], kSent[i].request);
  }
}

/// Bytes worth trying at every offset: line structure, header syntax,
/// digits and signs for lengths, case, NUL, a control and a high byte.
const char kProbeBytes[] = {'\r', '\n', '\0', ':', ' ', '\t', '0', '9',
                            '-',  '+',  '/',  '?', 'a', 'Z',  '{', '\x01',
                            '\x7f', '\xff'};

TEST(HttpFuzz, ValidStreamRoundTripsAtEverySplit) {
  const std::string wire = stream();
  Outcome want;
  for (const Sent& sent : kSent) want.requests.push_back(sent.request);
  want.requests.back().keep_alive = false;  // Connection: close

  SCOPED_TRACE("whole");
  expect_same_outcome(parse_whole(wire), want);
  for (std::size_t split = 1; split < wire.size(); ++split) {
    SCOPED_TRACE("split at " + std::to_string(split));
    expect_same_outcome(parse(wire, {split}), want);
    if (HasFailure()) return;
  }
  {
    SCOPED_TRACE("byte by byte");
    expect_same_outcome(parse(wire, every_byte(wire.size())), want);
  }
  util::Rng rng(0x5eed'4771ULL);
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_outcome(parse(wire, random_cuts(wire.size(), rng)), want);
    if (HasFailure()) return;
  }
}

TEST(HttpFuzz, TruncationOnlyEverNeedsMore) {
  const std::string wire = stream();
  for (std::size_t length = 0; length < wire.size(); ++length) {
    SCOPED_TRACE("truncated to " + std::to_string(length));
    const Outcome outcome = parse_whole(wire.substr(0, length));
    EXPECT_EQ(outcome.state, State::kNeedMore);
    std::size_t complete = 0;
    while (complete < kSent.size() && end_of(complete) <= length) ++complete;
    ASSERT_EQ(outcome.requests.size(), complete);
    for (std::size_t i = 0; i < complete; ++i) {
      expect_same_request(outcome.requests[i], kSent[i].request);
    }
    if (HasFailure()) return;
  }
}

TEST(HttpFuzz, ByteSubstitutionAtEveryOffset) {
  const std::string seed = stream();
  util::Rng rng(0xb17e'f119ULL);
  std::size_t errors = 0;
  for (std::size_t pos = 0; pos < seed.size(); ++pos) {
    SCOPED_TRACE("offset " + std::to_string(pos));
    for (const char byte : kProbeBytes) {
      if (seed[pos] == byte) continue;
      std::string wire = seed;
      wire[pos] = byte;
      check_contract(wire, random_cuts(wire.size(), rng));
      expect_intact_before(wire, pos);
      if (parse_whole(wire).state == State::kError) ++errors;
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(errors, 0u) << "no substitution broke the framing";
}

/// Structured damage aimed at framing: each returns the mutated stream.
std::string mutate(std::string wire, util::Rng& rng) {
  const auto pos = static_cast<std::size_t>(rng.below(wire.size()));
  // The header line holding `pos` (or the next one), when there is one.
  const std::size_t line = wire.rfind("\r\n", pos);
  const std::size_t begin = line == std::string::npos ? 0 : line + 2;
  const std::size_t end = wire.find("\r\n", begin);
  switch (rng.below(10)) {
    case 0:
      wire[pos] = kProbeBytes[rng.below(sizeof kProbeBytes)];
      break;
    case 1:
      wire.erase(pos, 1);
      break;
    case 2:
      wire.insert(pos, 1, kProbeBytes[rng.below(sizeof kProbeBytes)]);
      break;
    case 3: {
      const auto len = static_cast<std::size_t>(
          rng.below(std::min<std::size_t>(64, wire.size() - pos)) + 1);
      wire.insert(pos, wire.substr(pos, len));
      break;
    }
    case 4: {
      // Rewrite one Content-Length to a hostile value.
      static const char* const kLengths[] = {
          "99999999999999999999999", "18446744073709551615", "-1", "-0",
          "0",  "1",  "+5", "0x10", "5 5", "", "4294967297", "65"};
      const std::size_t at = wire.find("Content-Length: ", pos);
      if (at == std::string::npos) break;
      const std::size_t value = at + 16;
      wire.replace(value, wire.find("\r\n", value) - value,
                   kLengths[rng.below(std::size(kLengths))]);
      break;
    }
    case 5:
      // Duplicate a whole header line (same Content-Length twice, or any
      // other header repeated).
      if (end != std::string::npos) {
        wire.insert(begin, wire.substr(begin, end + 2 - begin));
      }
      break;
    case 6: {
      // A second, conflicting Content-Length right after this line.
      if (end == std::string::npos) break;
      wire.insert(end + 2, "Content-Length: " +
                               std::to_string(rng.below(100)) + "\r\n");
      break;
    }
    case 7: {
      // Bare LF: drop the CR of the next line break.
      const std::size_t crlf = wire.find("\r\n", pos);
      if (crlf != std::string::npos) wire.erase(crlf, 1);
      break;
    }
    case 8:
      if (end != std::string::npos) {
        wire.insert(end + 2, "Transfer-Encoding: chunked\r\n");
      }
      break;
    default:
      wire[pos] = static_cast<char>(rng.below(256));
      break;
  }
  return wire;
}

TEST(HttpFuzz, SeededCompoundMutations) {
  const std::string seed = stream();
  util::Rng rng(0x4774'f022ULL);
  std::size_t errors = 0;
  std::size_t statuses[6] = {};  // 400, 411, 413, 431, 501, other
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::string wire = seed;
    const int mutations = static_cast<int>(rng.range(1, 5));
    for (int m = 0; m < mutations && !wire.empty(); ++m) {
      wire = mutate(std::move(wire), rng);
    }
    // Some trials run under tight limits so 413 and 431 fire too.
    RequestParser::Limits limits;
    if (trial % 8 == 0) limits.max_header_bytes = 64;
    if (trial % 8 == 4) limits.max_body_bytes = 40;
    check_contract(wire, random_cuts(wire.size(), rng), limits);
    const Outcome whole = parse_whole(wire, limits);
    if (whole.state == State::kError) {
      ++errors;
      switch (whole.error_status) {
        case 400: ++statuses[0]; break;
        case 411: ++statuses[1]; break;
        case 413: ++statuses[2]; break;
        case 431: ++statuses[3]; break;
        case 501: ++statuses[4]; break;
        default: ++statuses[5]; break;
      }
    }
    if (HasFailure()) return;
  }
  // The mutations must actually reach every error class.
  EXPECT_GT(errors, 0u);
  for (int i = 0; i < 5; ++i) EXPECT_GT(statuses[i], 0u) << "class " << i;
  EXPECT_EQ(statuses[5], 0u);
}

}  // namespace
