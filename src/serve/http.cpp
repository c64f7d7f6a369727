#include "serve/http.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>

#include "robust/failpoint.hpp"

namespace serve {

std::string_view route_of(std::string_view target) {
  return target.substr(0, target.find('?'));
}

std::string_view query_of(std::string_view target) {
  const std::size_t q = target.find('?');
  return q == std::string_view::npos ? std::string_view{}
                                     : target.substr(q + 1);
}

ssize_t faulty_recv(int fd, char* buf, std::size_t len) {
  if (robust::failpoints_armed()) {
    switch (robust::failpoint_socket("serve.conn_read")) {
      case robust::SocketFault::kShortRead:
        len = std::min<std::size_t>(len, 1);  // torn frame, no bytes lost
        break;
      case robust::SocketFault::kReset:
        errno = ECONNRESET;
        return -1;
      case robust::SocketFault::kStall:
        errno = EAGAIN;
        return -1;
      default:
        break;
    }
  }
  return ::recv(fd, buf, len, 0);
}

ssize_t faulty_send(int fd, const char* data, std::size_t len) {
  if (robust::failpoints_armed()) {
    switch (robust::failpoint_socket("serve.conn_write")) {
      case robust::SocketFault::kShortWrite:
        len = std::min<std::size_t>(len, 1);  // exercise resume-from-offset
        break;
      case robust::SocketFault::kReset:
        errno = ECONNRESET;
        return -1;
      case robust::SocketFault::kStall:
        errno = EAGAIN;
        return -1;
      default:
        break;
    }
  }
  return ::send(fd, data, len, MSG_NOSIGNAL);
}

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool known_method(std::string_view method) {
  return method == "GET" || method == "POST" || method == "HEAD" ||
         method == "PUT" || method == "DELETE";
}

}  // namespace

const std::string* Request::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return &value;
  }
  return nullptr;
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string serialize(const Response& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += reason_phrase(response.status);
  out += "\r\nContent-Type: " + response.content_type;
  out += "\r\nContent-Length: " + std::to_string(response.body.size());
  out += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  for (const auto& [name, value] : response.headers) {
    out += "\r\n" + name + ": " + value;
  }
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

void RequestParser::fail(int status, std::string detail) {
  state_ = State::kError;
  error_status_ = status;
  error_detail_ = std::move(detail);
}

RequestParser::State RequestParser::feed(std::string_view bytes) {
  if (state_ == State::kError) return state_;
  buffer_.append(bytes);
  if (state_ == State::kNeedMore) advance();
  return state_;
}

Request RequestParser::take() {
  Request done = std::move(request_);
  request_ = {};
  head_done_ = false;
  body_needed_ = 0;
  state_ = State::kNeedMore;
  advance();  // pipelined bytes may already complete the next request
  return done;
}

void RequestParser::advance() {
  if (!head_done_) {
    const std::size_t end = buffer_.find("\r\n\r\n");
    if (end == std::string::npos) {
      if (buffer_.size() > limits_.max_header_bytes) {
        fail(431, "header section exceeds " +
                      std::to_string(limits_.max_header_bytes) + " bytes");
      }
      return;
    }
    if (end + 4 > limits_.max_header_bytes) {
      fail(431, "header section exceeds " +
                    std::to_string(limits_.max_header_bytes) + " bytes");
      return;
    }
    if (!parse_head(std::string_view(buffer_).substr(0, end))) return;
    buffer_.erase(0, end + 4);
    head_done_ = true;
  }
  if (buffer_.size() >= body_needed_) {
    request_.body = buffer_.substr(0, body_needed_);
    buffer_.erase(0, body_needed_);
    state_ = State::kComplete;
  }
}

bool RequestParser::parse_head(std::string_view head) {
  // Lines are CRLF-delimited; a CR, LF or NUL left inside one after the
  // split is a bare line break or a control byte smuggled into a field,
  // which RFC 9112 lets the server refuse rather than guess at.
  for (std::size_t at = head.find_first_of(std::string_view("\r\n\0", 3));
       at != std::string_view::npos;
       at = head.find_first_of(std::string_view("\r\n\0", 3), at + 2)) {
    if (head.compare(at, 2, "\r\n") != 0) {
      fail(400, "bare CR, LF or NUL in request head");
      return false;
    }
  }

  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    fail(400, "malformed request line");
    return false;
  }
  request_.method = std::string(request_line.substr(0, sp1));
  request_.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request_.version = std::string(request_line.substr(sp2 + 1));
  if (!known_method(request_.method)) {
    fail(501, "method '" + request_.method + "' not implemented");
    return false;
  }
  if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
    fail(400, "unsupported version '" + request_.version + "'");
    return false;
  }
  if (request_.target.empty() || request_.target.front() != '/') {
    fail(400, "request target must be origin-form");
    return false;
  }

  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      fail(400, "malformed header line");
      return false;
    }
    const std::string_view name = line.substr(0, colon);
    if (name != trim(name)) {
      fail(400, "whitespace around header name");
      return false;
    }
    request_.headers.emplace_back(std::string(name),
                                  std::string(trim(line.substr(colon + 1))));
  }

  // Framing: Content-Length only; chunked bodies are out of scope.
  if (const std::string* te = request_.header("Transfer-Encoding")) {
    (void)te;
    fail(501, "chunked transfer encoding not supported");
    return false;
  }
  // Repeated Content-Length headers must agree (RFC 9112 §6.3): a proxy
  // that framed the body by another copy would desync from us on a
  // keep-alive connection.
  const std::string* cl = nullptr;
  for (const auto& [name, value] : request_.headers) {
    if (!iequals(name, "Content-Length")) continue;
    if (cl != nullptr && value != *cl) {
      fail(400, "conflicting Content-Length headers");
      return false;
    }
    cl = &value;
  }
  body_needed_ = 0;
  if (cl != nullptr) {
    std::size_t length = 0;
    const auto [end, err] =
        std::from_chars(cl->data(), cl->data() + cl->size(), length);
    if (err != std::errc() || end != cl->data() + cl->size()) {
      fail(400, "malformed Content-Length '" + *cl + "'");
      return false;
    }
    if (length > limits_.max_body_bytes) {
      fail(413, "body of " + std::to_string(length) + " bytes exceeds limit " +
                    std::to_string(limits_.max_body_bytes));
      return false;
    }
    body_needed_ = length;
  } else if (request_.method == "POST" || request_.method == "PUT") {
    fail(411, "POST/PUT require Content-Length");
    return false;
  }

  request_.keep_alive = request_.version == "HTTP/1.1";
  if (const std::string* connection = request_.header("Connection")) {
    if (iequals(*connection, "close")) request_.keep_alive = false;
    if (iequals(*connection, "keep-alive")) request_.keep_alive = true;
  }
  return true;
}

}  // namespace serve
