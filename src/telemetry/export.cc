#include "telemetry/export.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

namespace cna::telemetry {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
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
  return out;
}

std::string PromName(const std::string& name) {
  std::string out = "cna_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void AppendHistJson(std::ostringstream& os, const HistogramSnapshot& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum << ",\"buckets\":[";
  for (int i = 0; i < kHistBuckets; ++i) {
    if (i > 0) {
      os << ',';
    }
    os << h.buckets[static_cast<std::size_t>(i)];
  }
  os << "],\"p50\":" << h.P50() << ",\"p90\":" << h.P90()
     << ",\"p99\":" << h.P99() << ",\"p999\":" << h.P999() << '}';
}

}  // namespace

std::string ToLockStatText(const RegistrySnapshot& snap) {
  std::ostringstream os;
  os << "lock telemetry\n";
  os << "--------------\n";
  char line[256];
  if (!snap.histograms.empty()) {
    std::snprintf(line, sizeof(line), "%-36s %10s %12s %10s %10s %10s %10s\n",
                  "histogram", "count", "mean", "p50", "p90", "p99", "p999");
    os << line;
    for (const HistogramSample& h : snap.histograms) {
      std::snprintf(line, sizeof(line),
                    "%-36s %10" PRIu64 " %12.1f %10" PRIu64 " %10" PRIu64
                    " %10" PRIu64 " %10" PRIu64 "\n",
                    h.name.c_str(), h.total.count, h.total.Mean(),
                    h.total.P50(), h.total.P90(), h.total.P99(),
                    h.total.P999());
      os << line;
      for (int s = 0; s < kMaxSockets; ++s) {
        const HistogramSnapshot& hs = h.by_socket[static_cast<std::size_t>(s)];
        if (hs.count == 0) {
          continue;
        }
        std::string sub = "  socket[" + std::to_string(s) + "]";
        std::snprintf(line, sizeof(line),
                      "%-36s %10" PRIu64 " %12.1f %10" PRIu64 " %10" PRIu64
                      " %10" PRIu64 " %10" PRIu64 "\n",
                      sub.c_str(), hs.count, hs.Mean(), hs.P50(), hs.P90(),
                      hs.P99(), hs.P999());
        os << line;
      }
    }
    os << '\n';
  }
  if (!snap.counters.empty()) {
    std::snprintf(line, sizeof(line), "%-36s %20s\n", "counter", "value");
    os << line;
    for (const CounterSample& c : snap.counters) {
      std::snprintf(line, sizeof(line), "%-36s %20" PRIu64 "\n",
                    c.name.c_str(), c.value);
      os << line;
    }
  }
  return os.str();
}

std::string ToJson(const RegistrySnapshot& snap) {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const CounterSample& c : snap.counters) {
    if (!first) {
      os << ',';
    }
    first = false;
    os << '"' << JsonEscape(c.name) << "\":" << c.value;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const HistogramSample& h : snap.histograms) {
    if (!first) {
      os << ',';
    }
    first = false;
    os << '"' << JsonEscape(h.name) << "\":{\"total\":";
    AppendHistJson(os, h.total);
    os << ",\"by_socket\":{";
    bool first_socket = true;
    for (int s = 0; s < kMaxSockets; ++s) {
      const HistogramSnapshot& hs = h.by_socket[static_cast<std::size_t>(s)];
      if (hs.count == 0) {
        continue;
      }
      if (!first_socket) {
        os << ',';
      }
      first_socket = false;
      os << '"' << s << "\":";
      AppendHistJson(os, hs);
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

std::string ToPrometheus(const RegistrySnapshot& snap) {
  std::ostringstream os;
  for (const CounterSample& c : snap.counters) {
    const std::string name = PromName(c.name);
    os << "# TYPE " << name << " counter\n";
    os << name << ' ' << c.value << '\n';
  }
  for (const HistogramSample& h : snap.histograms) {
    const std::string name = PromName(h.name);
    os << "# TYPE " << name << " histogram\n";
    for (int s = 0; s < kMaxSockets; ++s) {
      const HistogramSnapshot& hs = h.by_socket[static_cast<std::size_t>(s)];
      if (hs.count == 0) {
        continue;
      }
      // Sparse emission: one cumulative line per non-empty bucket plus +Inf
      // (48 buckets x 8 sockets in full would drown the page).
      std::uint64_t cumulative = 0;
      for (int i = 0; i < kHistBuckets; ++i) {
        const std::uint64_t b = hs.buckets[static_cast<std::size_t>(i)];
        if (b == 0) {
          continue;
        }
        cumulative += b;
        os << name << "_bucket{socket=\"" << s << "\",le=\""
           << BucketUpperBound(i) << "\"} " << cumulative << '\n';
      }
      os << name << "_bucket{socket=\"" << s << "\",le=\"+Inf\"} " << hs.count
         << '\n';
      os << name << "_sum{socket=\"" << s << "\"} " << hs.sum << '\n';
      os << name << "_count{socket=\"" << s << "\"} " << hs.count << '\n';
    }
  }
  return os.str();
}

std::string ToChromeTraceJson(const std::vector<TraceRecord>& records) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceRecord& r : records) {
    if (!first) {
      os << ',';
    }
    first = false;
    const auto type = static_cast<TraceEventType>(r.type);
    // Chrome trace timestamps are microseconds; keep sub-us precision.
    const double ts_us = static_cast<double>(r.ts_ns) / 1000.0;
    os << "{\"name\":\"" << TraceEventName(type) << "\",\"cat\":\"cna\"";
    if (r.dur_ns > 0) {
      os << ",\"ph\":\"X\",\"dur\":" << static_cast<double>(r.dur_ns) / 1000.0;
    } else {
      os << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    os << ",\"ts\":" << ts_us << ",\"pid\":" << r.socket
       << ",\"tid\":" << r.tid << ",\"args\":{\"arg\":" << r.arg
       << ",\"socket\":" << r.socket << "}}";
  }
  os << "],\"displayTimeUnit\":\"ns\"}";
  return os.str();
}

}  // namespace cna::telemetry
