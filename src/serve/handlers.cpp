#include "serve/handlers.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/export.hpp"
#include "serve/json.hpp"
#include "util/stopwatch.hpp"

namespace serve {

namespace {

/// Thrown by body decoding; becomes a 400 with the cause in the JSON body.
class BadRequest : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

Response json_response(int status, json::Value body) {
  Response response;
  response.status = status;
  response.body = json::dump(body);
  return response;
}

Response error_response(int status, const std::string& cause) {
  return json_response(
      status, json::Value::of(json::Object{
                  {"error", json::Value::of(std::string(cause))}}));
}

/// Known route, wrong method: a client bug, answered 400 with the cause in
/// the body and an Allow header naming what the route accepts.
Response wrong_method(const std::string& method, const std::string& target,
                      const std::string& allow) {
  Response response = error_response(
      400, "method " + method + " not allowed on " + target + "; use " +
               allow);
  response.headers.emplace_back("Allow", allow);
  return response;
}

/// Streaming body decoding over json::Reader: values go straight into row
/// buffers, and the walk visits the document exactly as json::parse does,
/// so a syntax error is the same ParseError. The first semantic error is
/// held until the whole document has parsed, so a syntax error anywhere in
/// the body takes precedence and a 400's cause does not depend on where in
/// the body the two sit. Once an error is held, the rest of the document is
/// only validated.
class BodyDecoder {
 public:
  using Kind = json::Reader::Kind;

  explicit BodyDecoder(std::string_view body) : reader_(body) {}

  json::Reader& reader() { return reader_; }
  bool rejected() const { return cause_.has_value(); }
  void reject(std::string cause) {
    if (!cause_) cause_ = std::move(cause);
  }

  /// Decode the document's top-level `name` member with read() (positioned
  /// before that array); every other member is skipped but validated.
  /// `shape` is the cause when there is no such array member.
  template <typename Read>
  void top_array(std::string_view name, const char* shape, Read&& read) {
    const Kind kind = reader_.peek_value(0);
    bool found = false;
    if (kind == Kind::kObject) {
      reader_.read_object([&](const std::string& key) {
        const bool wanted = key == name;
        const Kind value = reader_.peek_value(1);
        if (wanted && value == Kind::kArray) {
          found = true;
          read();
        } else {
          reader_.skip(value, 1);
        }
      });
    } else {
      reader_.skip(kind, 0);
    }
    if (!found) reject(shape);
    reader_.finish();
    if (cause_) throw BadRequest(*cause_);
  }

  /// Read an array of cells at `depth` (its '[' next), appending its first
  /// `feature_count` numbers to `out`. Returns the element count; `numeric`
  /// turns false on any element that is not a number.
  std::size_t read_cells(int depth, std::size_t feature_count,
                         std::vector<float>& out, bool& numeric) {
    std::size_t cells = 0;
    reader_.read_array([&] {
      const Kind cell = reader_.peek_value(depth + 1);
      ++cells;
      if (cell != Kind::kNumber) numeric = false;
      if (cell == Kind::kNumber && cells <= feature_count) {
        out.push_back(static_cast<float>(reader_.read_number()));
      } else {
        reader_.skip(cell, depth + 1);
      }
    });
    return cells;
  }

 private:
  json::Reader reader_;
  std::optional<std::string> cause_;
};

/// Decode {"rows":[[...],...]} into one row-major float buffer.
std::vector<float> decode_rows(std::string_view body,
                               std::size_t feature_count) {
  using Kind = BodyDecoder::Kind;
  BodyDecoder decoder(body);
  json::Reader& reader = decoder.reader();
  std::vector<float> xs;
  const std::string shape = " must be an array of " +
                            std::to_string(feature_count) + " numbers";
  std::size_t index = 0;
  decoder.top_array("rows", "body must be {\"rows\": [[...], ...]}", [&] {
    reader.read_array([&] {
      const std::size_t i = index++;
      const auto row = [i] { return "row " + std::to_string(i); };
      const Kind kind = reader.peek_value(2);
      if (decoder.rejected() || kind != Kind::kArray) {
        reader.skip(kind, 2);
        if (!decoder.rejected()) decoder.reject(row() + shape);
        return;
      }
      bool numeric = true;
      if (decoder.read_cells(2, feature_count, xs, numeric) !=
          feature_count) {
        decoder.reject(row() + shape);
      } else if (!numeric) {
        decoder.reject(row() + " holds a non-numeric cell");
      }
    });
  });
  return xs;
}

/// operating|failure|retirement into `fate`; false on anything else.
bool parse_fate(std::string_view text, engine::DiskFate& fate) {
  if (text == "operating") {
    fate = engine::DiskFate::kOperating;
  } else if (text == "failure") {
    fate = engine::DiskFate::kFailure;
  } else if (text == "retirement") {
    fate = engine::DiskFate::kRetirement;
  } else {
    return false;
  }
  return true;
}

/// Decoded ingest batch: `features` is one row-major buffer, feature_count
/// floats per report, that the report spans point into.
struct IngestBatch {
  std::vector<float> features;
  std::vector<engine::DiskReport> reports;
};

/// Decode {"reports":[{"disk":..,"features":[..],"fate":..},...]}. Members
/// may come in any order; each report is checked once it closes, disk
/// first, then features, then fate.
IngestBatch decode_reports(std::string_view body, std::size_t feature_count) {
  using Kind = BodyDecoder::Kind;
  BodyDecoder decoder(body);
  json::Reader& reader = decoder.reader();
  IngestBatch batch;
  std::string fate_text;
  std::size_t index = 0;
  decoder.top_array(
      "reports", "body must be {\"reports\": [{...}, ...]}", [&] {
        reader.read_array([&] {
          const std::size_t i = index++;
          const auto report = [i] { return "report " + std::to_string(i); };
          const Kind kind = reader.peek_value(2);
          if (decoder.rejected() || kind != Kind::kObject) {
            reader.skip(kind, 2);
            if (!decoder.rejected()) {
              decoder.reject(report() + " must be an object");
            }
            return;
          }
          std::optional<double> disk;
          std::optional<std::size_t> cells;  // set when features is an array
          bool numeric = true;
          engine::DiskFate fate = engine::DiskFate::kOperating;
          bool fate_ok = true;  // an absent fate means operating
          reader.read_object([&](const std::string& key) {
            const Kind value = reader.peek_value(3);
            if (key == "disk" && value == Kind::kNumber) {
              disk = reader.read_number();
            } else if (key == "features" && value == Kind::kArray) {
              cells = decoder.read_cells(3, feature_count, batch.features,
                                         numeric);
            } else if (key == "fate" && value == Kind::kString) {
              reader.read_string(fate_text);
              fate_ok = parse_fate(fate_text, fate);
            } else {
              if (key == "fate") fate_ok = false;
              reader.skip(value, 3);
            }
          });
          // A disk id past DiskId's range would make the cast below UB.
          if (!disk || *disk != std::floor(*disk) || *disk < 0 ||
              *disk > std::numeric_limits<data::DiskId>::max()) {
            decoder.reject(report() + ": disk must be a non-negative integer");
          } else if (cells != feature_count) {
            decoder.reject(report() + ": features must be an array of " +
                           std::to_string(feature_count) + " numbers");
          } else if (!numeric) {
            decoder.reject(report() + " holds a non-numeric feature");
          } else if (!fate_ok) {
            decoder.reject(report() +
                           ": fate must be operating|failure|retirement");
          } else {
            batch.reports.push_back(engine::DiskReport{
                .disk = static_cast<data::DiskId>(*disk),
                .features = {},
                .fate = fate});
          }
        });
      });
  // The buffer is complete, so its storage is final: point the spans in.
  for (std::size_t r = 0; r < batch.reports.size(); ++r) {
    batch.reports[r].features =
        std::span<const float>(batch.features)
            .subspan(r * feature_count, feature_count);
  }
  return batch;
}

}  // namespace

Api::Api(orf::Service& service)
    : service_(service), registry_(service.metrics_registry()) {
  const char* help = "handler latency by route";
  score_seconds_ = &registry_.histogram("orf_serve_request_seconds", help,
                                        obs::latency_buckets(),
                                        {{"route", "/v1/score"}});
  ingest_seconds_ = &registry_.histogram("orf_serve_request_seconds", help,
                                         obs::latency_buckets(),
                                         {{"route", "/v1/ingest"}});
}

Response Api::finish(const std::string& route, Response response,
                     double seconds) {
  registry_
      .counter("orf_serve_requests_total", "requests served by route/status",
               {{"route", route}, {"code", std::to_string(response.status)}})
      .inc();
  if (seconds >= 0.0) {
    if (route == "/v1/score") score_seconds_->observe(seconds);
    if (route == "/v1/ingest") ingest_seconds_->observe(seconds);
  }
  return response;
}

Response Api::handle(const Request& request) {
  // Route on the path only; queries select behaviour (/healthz?ready) but
  // never leak into metric labels.
  const std::string target(route_of(request.target));
  if (target == "/v1/score" || target == "/v1/ingest") {
    if (request.method != "POST") {
      return finish(target, wrong_method(request.method, target, "POST"),
                    -1.0);
    }
    util::Stopwatch timer;
    try {
      Response response = target == "/v1/score" ? score(request)
                                                : ingest(request);
      return finish(target, std::move(response), timer.seconds());
    } catch (const json::ParseError& error) {
      return finish(target, error_response(400, error.what()),
                    timer.seconds());
    } catch (const BadRequest& error) {
      return finish(target, error_response(400, error.what()),
                    timer.seconds());
    } catch (const orf::DegradedError& error) {
      // Score-only mode: ingest durability is gone, scoring is not — the
      // 503 tells clients to retry once /healthz?ready goes green again.
      return finish(target, error_response(503, error.what()),
                    timer.seconds());
    } catch (const std::invalid_argument& error) {
      // Strict row policy: the engine rejected the batch, state untouched.
      return finish(target, error_response(400, error.what()),
                    timer.seconds());
    }
  }
  if (target == "/metrics") {
    if (request.method != "GET" && request.method != "HEAD") {
      return finish(target,
                    wrong_method(request.method, target, "GET, HEAD"), -1.0);
    }
    return finish(target, metrics(), -1.0);
  }
  if (target == "/healthz") {
    if (request.method != "GET" && request.method != "HEAD") {
      return finish(target,
                    wrong_method(request.method, target, "GET, HEAD"), -1.0);
    }
    return finish(target, healthz(query_of(request.target) == "ready"),
                  -1.0);
  }
  return finish(target, error_response(404, "no such route"), -1.0);
}

Response Api::score(const Request& request) {
  const std::vector<float> xs =
      decode_rows(request.body, service_.feature_count());
  std::vector<orf::Scored> scored;
  service_.score(xs, scored);
  return render_scores(scored);
}

bool Api::decode_score_rows(const Request& request, std::vector<float>& xs,
                            Response& error) const {
  try {
    xs = decode_rows(request.body, service_.feature_count());
    return true;
  } catch (const json::ParseError& cause) {
    error = error_response(400, cause.what());
  } catch (const BadRequest& cause) {
    error = error_response(400, cause.what());
  }
  return false;
}

Response Api::render_scores(std::span<const orf::Scored> scored) const {
  Response response;
  std::string& out = response.body;
  out.reserve(32 + 40 * scored.size());
  out += "{\"count\":";
  json::append_number(out, static_cast<double>(scored.size()));
  out += ",\"results\":[";
  for (std::size_t i = 0; i < scored.size(); ++i) {
    out += i == 0 ? "{\"score\":" : ",{\"score\":";
    json::append_number(out, scored[i].score);
    out += scored[i].alarm ? ",\"alarm\":true}" : ",\"alarm\":false}";
  }
  out += "]}";
  return response;
}

Response Api::ingest(const Request& request) {
  const IngestBatch batch =
      decode_reports(request.body, service_.feature_count());
  std::vector<engine::DayOutcome> outcomes;
  const orf::IngestStats stats = service_.ingest(batch.reports, outcomes);

  Response response;
  std::string& out = response.body;
  out.reserve(160 + 64 * outcomes.size());
  out += "{\"day\":";
  json::append_number(out, static_cast<double>(stats.day));
  out += ",\"accepted\":";
  json::append_number(out, static_cast<double>(stats.accepted));
  out += ",\"rejected\":{\"non_finite\":";
  json::append_number(out, static_cast<double>(stats.rejected_non_finite));
  out += ",\"duplicate\":";
  json::append_number(out, static_cast<double>(stats.rejected_duplicate));
  out += "},\"outcomes\":[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    out += i == 0 ? "{\"score\":" : ",{\"score\":";
    json::append_number(out, outcomes[i].score);
    out += outcomes[i].alarm ? ",\"alarm\":true" : ",\"alarm\":false";
    out += outcomes[i].rejected ? ",\"rejected\":true}"
                                : ",\"rejected\":false}";
  }
  out += ']';
  if (!stats.checkpoint_path.empty()) {
    out += ",\"checkpoint\":";
    json::append_string(out, stats.checkpoint_path);
  }
  out += '}';
  return response;
}

Response Api::metrics() {
  Response response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = obs::to_prometheus(service_.metrics_snapshot());
  return response;
}

Response Api::healthz(bool ready_probe) {
  if (!ready_probe) {
    // Liveness: the process is up and answering. Never degraded — a daemon
    // in score-only mode must not be restarted by its liveness probe.
    return json_response(
        200,
        json::Value::of(json::Object{
            {"status", json::Value::of(std::string("ok"))},
            {"next_day",
             json::Value::of(static_cast<double>(service_.next_day()))},
            {"resumed", json::Value::of(service_.resumed())}}));
  }
  // Readiness: component health, with an in-place recovery attempt while
  // degraded — clearing the underlying fault flips this back to 200
  // without a restart.
  const orf::Service::Readiness readiness = service_.readiness();
  json::Object body{
      {"status", json::Value::of(std::string(readiness.state))},
      {"next_day", json::Value::of(static_cast<double>(service_.next_day()))},
      {"resumed", json::Value::of(service_.resumed())}};
  if (!readiness.cause.empty()) {
    body.emplace_back("cause",
                      json::Value::of(std::string(readiness.cause)));
  }
  return json_response(readiness.ready ? 200 : 503,
                       json::Value::of(std::move(body)));
}

}  // namespace serve
