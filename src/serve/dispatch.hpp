// The reactor's routing policy: which requests batch, which run inline.
//
// POST /v1/score decodes on the calling worker thread (JSON parsing scales
// with workers and needs no lock) and hands the row buffer to the
// ScoreBatcher; the completion fires later from the flusher thread with the
// rendered, finish()ed response. Decode failures never reach the batcher —
// the 400 completes synchronously. Every other route (ingest, metrics,
// healthz, 404s, wrong methods) runs Api::handle inline on the worker: those
// are either rare (one ingest per day), cheap (healthz), or serialization-
// bound anyway (metrics), and keeping them on the event loop is a deliberate
// simplicity tradeoff documented in DESIGN.md §13.
//
// The dispatcher is also where load shedding happens (serve/overload.hpp):
// before any decoding, the request's route is checked against the priority
// classes at the current in-flight depth, and a shed request completes
// immediately with the counted 503 + Retry-After. Admitted requests are
// tracked begin_request/end_request around their whole life — including the
// time spent queued in the batcher — so the depth the shed decision sees is
// true concurrency, not just what is on a worker thread right now.
#pragma once

#include "serve/batcher.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/overload.hpp"

namespace serve {

class Dispatcher {
 public:
  /// `overload` may be null: no shedding, no in-flight accounting.
  Dispatcher(Api& api, ScoreBatcher& batcher, Overload* overload = nullptr)
      : api_(api), batcher_(batcher), overload_(overload) {}

  /// Route one request; `done` is invoked exactly once, either inline or
  /// from the batcher's flusher thread.
  void operator()(const Request& request, Completion done);

 private:
  Api& api_;
  ScoreBatcher& batcher_;
  Overload* overload_;
};

}  // namespace serve
