// Latency sinks for the lock-table flavors.
//
// Each struct bundles the telemetry histograms a table flavor records into
// (registered by name in the global registry, src/telemetry/metrics.h); the
// acquire stamp that hold times are measured from lives in the holder's
// ledger entry (held_ledger.h).  Tables stamp with P::NowNs(), so under the
// simulator these histograms hold simulated time.  A table allocates its sink
// only when its options request latency collection, so the default table
// carries no timing state and no timing code on the lock path; with the sink
// allocated, recording is still gated on the process-global
// telemetry::Enabled() flag.
#ifndef CNA_LOCKTABLE_TABLE_LATENCY_H_
#define CNA_LOCKTABLE_TABLE_LATENCY_H_

#include <string>

#include "telemetry/metrics.h"

namespace cna::locktable {

// LockTable: acquisition latency (entry to ownership) and hold time.  A
// table over reader-writer stripes names the exclusive side for writers,
// adds a wait histogram for readers, and does not time shared holds.
struct TableLatency {
  TableLatency(const char* prefix, bool reader_writer)
      : wait{&Named(prefix, reader_writer ? ".write_wait_ns" : ".wait_ns"),
             reader_writer ? &Named(prefix, ".read_wait_ns") : nullptr},
        hold(Named(prefix, reader_writer ? ".write_hold_ns" : ".hold_ns")) {}
  // Indexed by HoldMode: exclusive, then shared (null over mutex stripes).
  telemetry::Histogram* wait[2];
  telemetry::Histogram& hold;

 private:
  static telemetry::Histogram& Named(const char* prefix, const char* suffix) {
    return telemetry::Registry::Global().GetHistogram(std::string(prefix) +
                                                      suffix);
  }
};

// CombiningTable: operation latency (submit to completion) and the size of
// each combining batch -- the distribution behind CombiningStatsSummary's
// MeanBatchSize().
struct CombiningLatency {
  explicit CombiningLatency(const char* prefix)
      : wait(telemetry::Registry::Global().GetHistogram(std::string(prefix) +
                                                        ".wait_ns")),
        batch(telemetry::Registry::Global().GetHistogram(std::string(prefix) +
                                                         ".batch_size")) {}
  telemetry::Histogram& wait;
  telemetry::Histogram& batch;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_TABLE_LATENCY_H_
