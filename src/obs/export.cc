#include "obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rlplanner::obs {

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::string FormatUint(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

/// Escapes a Prometheus label value: backslash, double-quote and newline
/// per the text exposition format.
std::string PromEscapeLabelValue(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
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
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Escapes a HELP line: only backslash and newline per the spec.
std::string PromEscapeHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Renders `{k="v",...}` for the metric's labels plus any extras (used for
/// the histogram `le` label); empty labels render as no braces at all.
std::string PromLabels(const std::vector<Label>& labels,
                       const char* extra_key = nullptr,
                       const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const Label& label : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += label.key;
    out += "=\"";
    out += PromEscapeLabelValue(label.value);
    out += "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out.push_back(',');
    out += extra_key;
    out += "=\"";
    out += PromEscapeLabelValue(extra_value);
    out += "\"";
  }
  out.push_back('}');
  return out;
}

}  // namespace

std::string FormatMetricValue(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.2e18) {
    if (value < 0) return "-" + FormatUint(static_cast<std::uint64_t>(-value));
    return FormatUint(static_cast<std::uint64_t>(value));
  }
  char buf[64];
  // Shortest representation that round-trips: try increasing precision.
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) return buf;
  }
  return buf;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  const std::string* previous_name = nullptr;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (previous_name == nullptr || *previous_name != m.name) {
      out += "# HELP " + m.name + " " + PromEscapeHelp(m.help) + "\n";
      out += "# TYPE " + m.name + " ";
      out += KindName(m.kind);
      out += "\n";
      previous_name = &m.name;
    }
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += m.name + PromLabels(m.labels) + " " +
               FormatMetricValue(m.value) + "\n";
        break;
      case MetricKind::kHistogram: {
        for (const HistogramBucket& bucket : m.buckets) {
          out += m.name + "_bucket" +
                 PromLabels(m.labels, "le", FormatUint(bucket.upper_bound)) +
                 " " + FormatUint(bucket.cumulative_count) + "\n";
        }
        out += m.name + "_bucket" + PromLabels(m.labels, "le", "+Inf") + " " +
               FormatUint(m.count) + "\n";
        out += m.name + "_sum" + PromLabels(m.labels) + " " +
               FormatUint(m.sum) + "\n";
        out += m.name + "_count" + PromLabels(m.labels) + " " +
               FormatUint(m.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string ToOpenMetricsText(const MetricsSnapshot& snapshot) {
  std::string out;
  const std::string* previous_name = nullptr;
  for (const MetricSnapshot& m : snapshot.metrics) {
    // OpenMetrics names the counter *family* without the `_total` suffix
    // the samples carry.
    std::string family = m.name;
    if (m.kind == MetricKind::kCounter && family.size() > 6 &&
        family.compare(family.size() - 6, 6, "_total") == 0) {
      family.resize(family.size() - 6);
    }
    if (previous_name == nullptr || *previous_name != m.name) {
      out += "# TYPE " + family + " ";
      out += KindName(m.kind);
      out += "\n";
      out += "# HELP " + family + " " + PromEscapeHelp(m.help) + "\n";
      previous_name = &m.name;
    }
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += m.name + PromLabels(m.labels) + " " +
               FormatMetricValue(m.value) + "\n";
        break;
      case MetricKind::kHistogram: {
        for (const HistogramBucket& bucket : m.buckets) {
          out += m.name + "_bucket" +
                 PromLabels(m.labels, "le", FormatUint(bucket.upper_bound)) +
                 " " + FormatUint(bucket.cumulative_count);
          for (const ExemplarSnapshot& exemplar : m.exemplars) {
            if (exemplar.upper_bound != bucket.upper_bound) continue;
            out += " # {trace_id=\"" + FormatUint(exemplar.trace_id) +
                   "\",policy_version=\"" + FormatUint(exemplar.version) +
                   "\"} " + FormatUint(exemplar.value);
            break;
          }
          out += "\n";
        }
        out += m.name + "_bucket" + PromLabels(m.labels, "le", "+Inf") + " " +
               FormatUint(m.count) + "\n";
        out += m.name + "_sum" + PromLabels(m.labels) + " " +
               FormatUint(m.sum) + "\n";
        out += m.name + "_count" + PromLabels(m.labels) + " " +
               FormatUint(m.count) + "\n";
        break;
      }
    }
  }
  out += "# EOF\n";
  return out;
}

std::string MetricsJsonArray(const MetricsSnapshot& snapshot) {
  std::string out = "[";
  bool first_metric = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (!first_metric) out += ", ";
    first_metric = false;
    out += "{\"name\": \"" + JsonEscape(m.name) + "\", \"kind\": \"";
    out += KindName(m.kind);
    out += "\", \"labels\": {";
    bool first_label = true;
    for (const Label& label : m.labels) {
      if (!first_label) out += ", ";
      first_label = false;
      out += "\"" + JsonEscape(label.key) + "\": \"" +
             JsonEscape(label.value) + "\"";
    }
    out += "}";
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += ", \"value\": " + FormatMetricValue(m.value);
        break;
      case MetricKind::kHistogram: {
        out += ", \"count\": " + FormatUint(m.count);
        out += ", \"sum\": " + FormatUint(m.sum);
        out += ", \"max\": " + FormatUint(m.max);
        out += ", \"mean\": " + FormatMetricValue(m.mean);
        out += ", \"p50\": " + FormatMetricValue(m.p50);
        out += ", \"p95\": " + FormatMetricValue(m.p95);
        out += ", \"p99\": " + FormatMetricValue(m.p99);
        out += ", \"buckets\": [";
        bool first_bucket = true;
        for (const HistogramBucket& bucket : m.buckets) {
          if (!first_bucket) out += ", ";
          first_bucket = false;
          out += "{\"le\": " + FormatUint(bucket.upper_bound) +
                 ", \"count\": " + FormatUint(bucket.cumulative_count) + "}";
        }
        out += "]";
        if (!m.exemplars.empty()) {
          out += ", \"exemplars\": [";
          bool first_exemplar = true;
          for (const ExemplarSnapshot& exemplar : m.exemplars) {
            if (!first_exemplar) out += ", ";
            first_exemplar = false;
            out += "{\"le\": " + FormatUint(exemplar.upper_bound) +
                   ", \"value\": " + FormatUint(exemplar.value) +
                   ", \"trace_id\": " + FormatUint(exemplar.trace_id) +
                   ", \"policy_version\": " + FormatUint(exemplar.version) +
                   "}";
          }
          out += "]";
        }
        break;
      }
    }
    out += "}";
  }
  out += "]";
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  return "{\"metrics\": " + MetricsJsonArray(snapshot) + "}";
}

}  // namespace rlplanner::obs
