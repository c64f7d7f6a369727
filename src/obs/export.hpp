// Snapshot exporters: Prometheus text exposition and JSONL.
//
// Both formats render the same Snapshot. Prometheus output is a complete
// text-format exposition (HELP/TYPE per family, cumulative `le` buckets,
// `_sum`/`_count`) suitable for a node_exporter textfile collector or a
// scrape endpoint. JSON output is a single line — one object per snapshot —
// so appending one per fleet day yields a JSONL time series; histograms
// carry count/sum plus interpolated p50/p95/p99 and their non-empty
// cumulative buckets. Doubles are printed with the shortest representation
// that round-trips, so golden outputs are platform-stable.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"

namespace obs {

std::string to_prometheus(const Snapshot& snapshot);

/// Extra top-level numeric fields (e.g. {"day", 117}) rendered before the
/// instrument sections — the JSONL time axis.
using JsonExtras = std::vector<std::pair<std::string, double>>;

std::string to_json(const Snapshot& snapshot, const JsonExtras& extras = {});

/// Shortest decimal form of `v` that parses back to exactly `v`
/// ("0.1", "1.5", "33.554432", "1e-06"): the output of printf("%.Pg") for
/// the smallest P in 1..17 that round-trips; NaN and infinities print as
/// "NaN", "+Inf", "-Inf". Shared by both exporters and the serving layer's
/// JSON writer.
std::string format_double(double v);

/// format_double(v) appended to `out`, with no temporary string.
void append_double(std::string& out, double v);

}  // namespace obs
