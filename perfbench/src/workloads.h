// The three workloads and the layer probes of the traced run.
//
// Every Run* function fills `r` for the run mode in cfg.trace: end-to-end
// metrics when false, the workload's span and share metrics when true.  The
// layer probes, which every traced run reports whatever the workload, are
// added by RunLayerProbes.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "sim/machine.h"

namespace perfbench {

// Share of a traced run's --seconds spent in the layer probes; the workload
// gets the rest.
inline constexpr double kProbeShare = 0.45;

void RunCapiUncontended(const Config& cfg, double seconds, Result& r);
void RunRwkvObserved(const Config& cfg, double seconds, Result& r);
void RunKvNumaSim(const Config& cfg, double seconds, Result& r);

void RunLayerProbes(const Config& cfg, double seconds, Result& r);

// kv-numa-sim on the simulator, exposed for the probes' MCS comparison.
struct SimKvSummary {
  std::uint64_t ops = 0;
  std::uint64_t window_ns = 0;
  std::vector<std::uint64_t> per_fiber_ops;
  cna::sim::CacheStats cache;
  Histogram latency;  // per-op latency on the simulated clock
  SpanSet spans;      // filled when traced
  double contended_share = 0.0;  // filled when stats were collected
  std::size_t lock_state_bytes = 0;
  bool conserved = false;  // value sum matches the write count

  double OpsPerUs() const {
    return static_cast<double>(ops) * 1e3 / static_cast<double>(window_ns);
  }
};

enum class SimLock { kCna, kMcs };

// Simulated nanoseconds of kv-numa-sim per wall-clock second of budget.
std::uint64_t SimWindowNs(double seconds);

SimKvSummary RunSimKv(SimLock lock, std::uint64_t seed, std::uint64_t window_ns,
                      bool traced, bool collect_stats);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
