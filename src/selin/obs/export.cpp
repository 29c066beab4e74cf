#include "selin/obs/export.hpp"

#include <algorithm>
#include <cstdio>

namespace selin::obs {

namespace {

// Minimal JSON string escaping (names/labels are repo-controlled, but a
// session name is user input — file paths with quotes must not break the
// document).
void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void append_labels_json(std::string& out, const Labels& labels) {
  out += "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    append_escaped(out, k);
    out += ":";
    append_escaped(out, v);
  }
  out += "}";
}

/// Quantile bound from the snapshot's (le, count) rows — same estimate
/// Histogram::approx_quantile computes live.
uint64_t snap_quantile(const MetricValue& v, double q) {
  if (v.count == 0) return 0;
  const auto rank = static_cast<uint64_t>(
      q * static_cast<double>(v.count) + 0.999999);
  uint64_t seen = 0;
  for (const auto& [le, n] : v.buckets) {
    seen += n;
    if (seen >= std::max<uint64_t>(rank, 1)) return le;
  }
  return v.buckets.empty() ? 0 : v.buckets.back().first;
}

}  // namespace

std::string snapshot_json(const MetricsSnapshot& snap) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricValue& v : snap.values) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    append_escaped(out, v.name);
    out += ",\"labels\":";
    append_labels_json(out, v.labels);
    out += ",\"kind\":\"";
    out += kind_name(v.kind);
    out += "\"";
    switch (v.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":" + std::to_string(v.counter);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":" + std::to_string(v.gauge);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":" + std::to_string(v.count);
        out += ",\"sum\":" + std::to_string(v.sum);
        out += ",\"max\":" + std::to_string(v.max);
        out += ",\"p50\":" + std::to_string(snap_quantile(v, 0.5));
        out += ",\"p99\":" + std::to_string(snap_quantile(v, 0.99));
        out += ",\"buckets\":[";
        bool bf = true;
        for (const auto& [le, n] : v.buckets) {
          if (!bf) out += ",";
          bf = false;
          out += "[" + std::to_string(le) + "," + std::to_string(n) + "]";
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string snapshot_json(const MetricsRegistry& reg) {
  return snapshot_json(reg.snapshot());
}

namespace {

/// `name{label="v",...}` or `name{}`-less form when no labels.
void append_prom_series(std::string& out, const std::string& name,
                        const Labels& labels, const char* extra_key = nullptr,
                        const std::string& extra_val = {}) {
  out += name;
  if (!labels.empty() || extra_key != nullptr) {
    out += "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) out += ",";
      first = false;
      out += k + "=\"" + v + "\"";
    }
    if (extra_key != nullptr) {
      if (!first) out += ",";
      out += std::string(extra_key) + "=\"" + extra_val + "\"";
    }
    out += "}";
  }
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  for (const MetricValue& v : snap.values) {
    switch (v.kind) {
      case MetricKind::kCounter:
        append_prom_series(out, v.name, v.labels);
        out += " " + std::to_string(v.counter) + "\n";
        break;
      case MetricKind::kGauge:
        append_prom_series(out, v.name, v.labels);
        out += " " + std::to_string(v.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        uint64_t cum = 0;
        for (const auto& [le, n] : v.buckets) {
          cum += n;
          append_prom_series(out, v.name + "_bucket", v.labels, "le",
                             std::to_string(le));
          out += " " + std::to_string(cum) + "\n";
        }
        append_prom_series(out, v.name + "_bucket", v.labels, "le", "+Inf");
        out += " " + std::to_string(v.count) + "\n";
        append_prom_series(out, v.name + "_sum", v.labels);
        out += " " + std::to_string(v.sum) + "\n";
        append_prom_series(out, v.name + "_count", v.labels);
        out += " " + std::to_string(v.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string prometheus_text(const MetricsRegistry& reg) {
  return prometheus_text(reg.snapshot());
}

std::string engine_stats_json(const engine::EngineStats& s) {
  std::string out = "{";
  out += "\"events_fed\":" + std::to_string(s.events_fed);
  out += ",\"rounds_sequential\":" + std::to_string(s.rounds_sequential);
  out += ",\"peak_frontier\":" + std::to_string(s.peak_frontier);
  out += ",\"dedup_probes\":" + std::to_string(s.dedup_probes);
  out += ",\"dedup_hits\":" + std::to_string(s.dedup_hits);
  out += ",\"states_recycled\":" + std::to_string(s.states_recycled);
  out += ",\"probe_batches\":" + std::to_string(s.probe_batches);
  out += ",\"prefetch_batches\":" + std::to_string(s.prefetch_batches);
  out += ",\"filter_in_place_rounds\":" +
         std::to_string(s.filter_in_place_rounds);
  out += "}";
  return out;
}

void sample_engine_stats(MetricsRegistry& reg, const engine::EngineStats& s,
                         Labels labels) {
  auto set = [&reg, &labels](const char* name, uint64_t v) {
    reg.gauge(name, labels).set(static_cast<int64_t>(v));
  };
  set("engine_events_fed", s.events_fed);
  set("engine_rounds_sequential", s.rounds_sequential);
  set("engine_peak_frontier", s.peak_frontier);
  set("engine_dedup_probes", s.dedup_probes);
  set("engine_dedup_hits", s.dedup_hits);
  set("engine_states_recycled", s.states_recycled);
  set("engine_probe_batches", s.probe_batches);
  set("engine_prefetch_batches", s.prefetch_batches);
  set("engine_filter_in_place_rounds", s.filter_in_place_rounds);
}

}  // namespace selin::obs
