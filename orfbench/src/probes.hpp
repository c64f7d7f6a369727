// Per-layer probes: time calls into each module's public functions from
// outside the module, on in-process replicas of the daemon's state.
//
// Nothing here runs inside orfd and nothing is added to src/: the daemon's
// own instruments are read over /metrics, and these probes time the same
// public calls the daemon makes (serve::Api::handle, serve::json::parse and
// dump, orf::Service::ingest / checkpoint_now / score, tsdb::Writer and
// Reader, serve::RequestParser, serve::ScoreBatcher, OnlineForest) on the
// benchmark's own inputs. Every value is a median per call.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "orf/orf.hpp"

namespace orfbench {

using Values = std::map<std::string, double>;

/// The write path, replayed for `days` live days on two durable replicas
/// restored from `state` (the daemon's post-backfill state): one behind
/// serve::Api (handler, JSON parse and encode), one called directly
/// (Service::ingest with WAL, tee and checkpoints; checkpoint_now), plus a
/// standalone tsdb::Writer for append_day + flush.
/// Keys: serve.ingest_handler_ms, serve.json_parse_ms, serve.json_encode_ms,
/// orf.ingest_ms, orf.checkpoint_ms, tsdb.append_flush_ms. `durable_ms`
/// receives the durable Service::ingest time of each replayed day.
Values probe_ingest_path(const Fleet& fleet, const std::string& state,
                         const orf::Config& durable_config,
                         const std::string& dir, std::size_t days,
                         std::vector<double>& durable_ms);

/// The read path on `service` (quiescent): RequestParser feed/take,
/// Api::decode_score_rows, Api::render_scores, Service::score at
/// `batch_rows` rows per call, OnlineForest::predict_batch, and the
/// ScoreBatcher's submit → completion wait with `concurrency` requests in
/// flight at once.
/// Keys: serve.http_parse_us, serve.score_decode_us, serve.score_render_us,
/// orf.score_us_per_row, core.predict_us_per_row, serve.batch_wait_us.
Values probe_score_path(orf::Service& service,
                        const std::vector<std::string>& bodies,
                        const std::vector<std::vector<float>>& rows,
                        std::size_t batch_rows, std::size_t concurrency);

/// tsdb::Reader::read_day over every day of the store, ms per day.
double probe_read_day_ms(const std::string& store);

}  // namespace orfbench
