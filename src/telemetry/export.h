// Exporters for the telemetry registry and trace buffer.
//
// Three registry formats -- a /proc/lock_stat-style text table, JSON, and
// Prometheus exposition format -- plus Chrome trace-event JSON for the event
// rings (loadable in Perfetto / chrome://tracing).
#ifndef CNA_TELEMETRY_EXPORT_H_
#define CNA_TELEMETRY_EXPORT_H_

#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cna::telemetry {

// /proc/lock_stat flavor: one aligned row per metric; histograms report
// count, mean and p50/p90/p99/p999 with a per-socket breakdown.
std::string ToLockStatText(const RegistrySnapshot& snap);

// {"counters": {...}, "histograms": {...}} with bucket arrays and per-socket
// sub-objects.
std::string ToJson(const RegistrySnapshot& snap);

// Prometheus exposition format: counters as `counter`, histograms as
// cumulative `histogram` series with `le` bucket labels plus per-socket
// `socket` labels.  Metric names are sanitized (dots become underscores).
std::string ToPrometheus(const RegistrySnapshot& snap);

// Chrome trace-event JSON ("traceEvents" array).  Records with a duration
// become complete ("ph":"X") events; the rest become thread-scoped instants.
std::string ToChromeTraceJson(const std::vector<TraceRecord>& records);

}  // namespace cna::telemetry

#endif  // CNA_TELEMETRY_EXPORT_H_
