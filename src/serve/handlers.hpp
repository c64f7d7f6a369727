// orfd's routes: the bridge from parsed HTTP requests to orf::Service.
//
//   POST /v1/score   {"rows":[[f0..fN-1],...]}            → scores + alarms
//   POST /v1/ingest  {"reports":[{"disk":..,"features":[..],
//                     "fate":"operating|failure|retirement"},...]}
//                                                          → one day batch
//   GET  /metrics    Prometheus exposition of the whole registry
//   GET  /healthz    liveness + next_day + resumed (never degraded)
//   GET  /healthz?ready  readiness: component health with an in-place
//                    recovery attempt — 503 {"status":"degraded","cause"}
//                    while the WAL/checkpoint device is down
//
// Scoring rides the Service's shared lock (concurrent, flat kernel only);
// ingest takes the exclusive lock and reports the day index, per-cause
// rejection counts and any periodic checkpoint path back in the response.
// Malformed bodies are 400 with a JSON {"error": cause}; under the strict
// row policy a dirty ingest report is 400 too (engine state untouched).
// While the service is degraded (score-only mode), ingest answers 503.
//
// Request-level telemetry registers on the Service's registry, so one
// /metrics scrape covers forest, engine, recovery and HTTP series:
//   orf_serve_requests_total{route,code}   every response by route/status
//   orf_serve_request_seconds{route}       handler latency histogram
#pragma once

#include <span>
#include <vector>

#include "orf/service.hpp"
#include "serve/http.hpp"

namespace serve {

class Api {
 public:
  explicit Api(orf::Service& service);

  /// Route and execute one request (the reactor's inline path for
  /// everything but batched /v1/score).
  Response handle(const Request& request);

  /// The /v1/score pipeline split open for the micro-batcher, which decodes
  /// on the event-loop thread, scores many requests under one lock, and
  /// renders per request on the flusher thread:
  ///
  ///   decode_score_rows — parse {"rows":[[..],..]} into one row-major
  ///       buffer; false leaves the ready-to-send 400 in `error`.
  ///   render_scores     — the 200 response for one request's slice.
  ///   finish            — route/status counter + latency histogram; every
  ///       response must pass through exactly once (thread-safe).
  bool decode_score_rows(const Request& request, std::vector<float>& xs,
                         Response& error) const;
  Response render_scores(std::span<const orf::Scored> scored) const;
  Response finish(const std::string& route, Response response,
                  double seconds);

  orf::Service& service() { return service_; }

 private:
  Response score(const Request& request);
  Response ingest(const Request& request);
  Response metrics();
  Response healthz(bool ready_probe);

  orf::Service& service_;
  obs::Registry& registry_;
  obs::Histogram* score_seconds_;
  obs::Histogram* ingest_seconds_;
};

}  // namespace serve
