#include "obs/export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace obs {

namespace {

/// Family = every snapshot entry sharing one metric name, emitted
/// contiguously in first-seen order (the exposition format requires all
/// samples of a family to be grouped).
template <typename T>
std::vector<std::vector<const T*>> group_by_name(const std::vector<T>& v) {
  std::vector<std::vector<const T*>> families;
  for (const T& entry : v) {
    auto it = families.begin();
    for (; it != families.end(); ++it) {
      if (it->front()->id.name == entry.id.name) break;
    }
    if (it == families.end()) {
      families.push_back({&entry});
    } else {
      it->push_back(&entry);
    }
  }
  return families;
}

void append_prom_escaped(std::string& out, const std::string& s,
                         bool label_value) {
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '"':
        if (label_value) {
          out += "\\\"";
          break;
        }
        [[fallthrough]];
      default:
        out += c;
    }
  }
}

/// {k1="v1",k2="v2"} with an optional extra pair (histogram `le`); empty
/// string when there are no labels at all.
std::string render_labels(const Labels& labels, const char* extra_key = nullptr,
                          const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_prom_escaped(out, v, /*label_value=*/true);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    append_prom_escaped(out, extra_value, /*label_value=*/true);
    out += '"';
  }
  out += '}';
  return out;
}

void append_help_type(std::string& out, const MetricId& id, const char* type) {
  out += "# HELP ";
  out += id.name;
  out += ' ';
  append_prom_escaped(out, id.help, /*label_value=*/false);
  out += "\n# TYPE ";
  out += id.name;
  out += ' ';
  out += type;
  out += '\n';
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// JSON object key for one instrument: the Prometheus sample name,
/// `name{k="v"}`, so the two exports line up one-to-one.
void append_json_key(std::string& out, const MetricId& id) {
  out += '"';
  append_json_escaped(out, id.name + render_labels(id.labels));
  out += "\":";
}

}  // namespace

void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  // The contract is the shortest "%.Pg" (P = 1..17) that parses back to v.
  // The shortest round-trip form's significant-digit count is a lower
  // bound on that P, so the search starts there and almost always stops
  // on its first try. to_chars(general, P) is defined as printf("%.Pg").
  char buf[64];
  char* const last = buf + sizeof buf;
  const char* const shortest =
      std::to_chars(buf, last, v, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* c = buf; c != shortest && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++digits;
  }
  char* end = buf;
  for (int precision = std::max(digits, 1); precision <= 17; ++precision) {
    end = std::to_chars(buf, last, v, std::chars_format::general, precision)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  out.append(buf, end);
}

std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  for (const auto& family : group_by_name(snapshot.counters)) {
    append_help_type(out, family.front()->id, "counter");
    for (const CounterSnapshot* c : family) {
      out += c->id.name + render_labels(c->id.labels) + ' ' +
             std::to_string(c->value) + '\n';
    }
  }
  for (const auto& family : group_by_name(snapshot.gauges)) {
    append_help_type(out, family.front()->id, "gauge");
    for (const GaugeSnapshot* g : family) {
      out += g->id.name + render_labels(g->id.labels) + ' ' +
             format_double(g->value) + '\n';
    }
  }
  for (const auto& family : group_by_name(snapshot.histograms)) {
    append_help_type(out, family.front()->id, "histogram");
    for (const HistogramSnapshot* h : family) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h->bounds.size(); ++i) {
        cumulative += h->counts[i];
        out += h->id.name + "_bucket" +
               render_labels(h->id.labels, "le", format_double(h->bounds[i])) +
               ' ' + std::to_string(cumulative) + '\n';
      }
      out += h->id.name + "_bucket" +
             render_labels(h->id.labels, "le", "+Inf") + ' ' +
             std::to_string(h->count) + '\n';
      out += h->id.name + "_sum" + render_labels(h->id.labels) + ' ' +
             format_double(h->sum) + '\n';
      out += h->id.name + "_count" + render_labels(h->id.labels) + ' ' +
             std::to_string(h->count) + '\n';
    }
  }
  return out;
}

std::string to_json(const Snapshot& snapshot, const JsonExtras& extras) {
  std::string out = "{";
  for (const auto& [key, value] : extras) {
    out += '"';
    append_json_escaped(out, key);
    out += "\":" + format_double(value) + ',';
  }
  out += "\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i) out += ',';
    append_json_key(out, snapshot.counters[i].id);
    out += std::to_string(snapshot.counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i) out += ',';
    append_json_key(out, snapshot.gauges[i].id);
    out += format_double(snapshot.gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    if (i) out += ',';
    append_json_key(out, h.id);
    out += "{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + format_double(h.sum) +
           ",\"p50\":" + format_double(h.quantile(0.50)) +
           ",\"p95\":" + format_double(h.quantile(0.95)) +
           ",\"p99\":" + format_double(h.quantile(0.99)) + ",\"buckets\":{";
    // Only buckets that hold observations (cumulative at that bound), plus
    // +Inf — enough to reconstruct the distribution without 27 zeros per
    // histogram per day.
    std::uint64_t cumulative = 0;
    bool first = true;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cumulative += h.counts[b];
      if (h.counts[b] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '"' + format_double(h.bounds[b]) +
             "\":" + std::to_string(cumulative);
    }
    if (!first) out += ',';
    out += "\"+Inf\":" + std::to_string(h.count) + "}}";
  }
  out += "}}";
  return out;
}

}  // namespace obs
