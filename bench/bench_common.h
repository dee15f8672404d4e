// Shared configuration for the per-figure benchmark binaries.
//
// Fairness alignment: the paper configures all NUMA-aware locks "with similar
// fairness settings, that is, keeping the lock local to a socket for a
// similar number of lock handovers".  The simulated windows here are
// milliseconds (not the paper's 10-60 s), so the *stint-to-run-length ratio*
// is preserved rather than the absolute constants: CNA flushes its secondary
// queue with probability 1/256 (expected local streak 256) and Cohort/HMCS
// budgets are set to 256 local passes; THRESHOLD2 keeps the paper's
// THRESHOLD2/THRESHOLD ratio.  EXPERIMENTS.md discusses this scaling.
#ifndef CNA_BENCH_BENCH_COMMON_H_
#define CNA_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv_bench.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "locks/cna.h"
#include "locks/cohort.h"
#include "locks/hmcs.h"
#include "locks/lock_api.h"
#include "locks/mcs.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna::bench {

// "CNA" is the paper's base policy.  "CNA-opt" is the library default at
// the same fairness scaling: Section 6's shuffle reduction, as the FIFO
// handover mode of locks/cna.h, and socket-tagged successors.
struct BenchCnaConfig : locks::CnaPaperBaseConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0xff;
};
struct BenchCnaOptConfig : BenchCnaConfig {
  static constexpr bool kShuffleReduction = true;
  static constexpr bool kEncodeSocketInNext = true;
};
struct BenchCohortConfig : locks::CohortDefaultConfig {
  static constexpr std::uint32_t kLocalPassBudget = 256;
};
struct BenchHmcsConfig : locks::HmcsDefaultConfig {
  static constexpr std::uint64_t kPassThreshold = 256;
};

using Mcs = locks::McsLock<SimPlatform>;
using Cna = locks::CnaLock<SimPlatform, BenchCnaConfig>;
using CnaOpt = locks::CnaLock<SimPlatform, BenchCnaOptConfig>;
using CBoMcs = locks::CBoMcsLock<SimPlatform, BenchCohortConfig>;
using Hmcs = locks::HmcsLock<SimPlatform, BenchHmcsConfig>;

// The lock set the paper plots in its user-space figures.
inline const std::vector<std::string>& UserSpaceLockNames() {
  static const std::vector<std::string> names = {"MCS", "CNA", "CNA-opt",
                                                 "C-BO-MCS", "HMCS"};
  return names;
}

// Thread sweeps: representative points of the paper's 1..70 / 1..142 ranges.
inline std::vector<int> TwoSocketThreads() {
  return harness::ClipThreads({1, 2, 4, 8, 16, 32, 48, 70});
}
inline std::vector<int> FourSocketThreads() {
  return harness::ClipThreads({1, 2, 4, 8, 16, 36, 72, 142});
}

inline std::uint64_t DefaultWindowNs() {
  return harness::BenchWindowNs(8'000'000);  // 8 simulated ms per point
}

// Runs the key-value-map microbenchmark for lock L at one thread count.
template <typename L>
harness::RunResult RunKvPoint(const sim::MachineConfig& machine_cfg,
                              int threads, std::uint64_t window_ns,
                              const apps::KvBenchOptions& options) {
  auto bench = std::make_shared<apps::KvBench<SimPlatform, L>>(options);
  return harness::RunOnSim(machine_cfg, threads, window_ns, [bench](int t) {
    XorShift64 rng =
        XorShift64::FromSeed(0x4b5eed00 + static_cast<std::uint64_t>(t));
    return [bench, rng]() mutable { bench->Op(rng); };
  });
}

// Metric selectors for the kv sweep.
enum class Metric { kThroughput, kFairness, kRemoteMissRate };

inline double SelectMetric(const harness::RunResult& r, Metric m) {
  switch (m) {
    case Metric::kThroughput: return r.throughput_mops;
    case Metric::kFairness: return r.fairness;
    case Metric::kRemoteMissRate: return r.remote_miss_rate;
  }
  return 0.0;
}

// Full 5-lock kv sweep -> SeriesTable (columns follow UserSpaceLockNames()).
inline harness::SeriesTable KvSweepTable(const std::string& title,
                                         const sim::MachineConfig& machine_cfg,
                                         const std::vector<int>& threads,
                                         std::uint64_t window_ns,
                                         const apps::KvBenchOptions& options,
                                         Metric metric) {
  harness::SeriesTable table(title, "threads", UserSpaceLockNames());
  for (int t : threads) {
    std::vector<double> row;
    row.push_back(
        SelectMetric(RunKvPoint<Mcs>(machine_cfg, t, window_ns, options),
                     metric));
    row.push_back(
        SelectMetric(RunKvPoint<Cna>(machine_cfg, t, window_ns, options),
                     metric));
    row.push_back(
        SelectMetric(RunKvPoint<CnaOpt>(machine_cfg, t, window_ns, options),
                     metric));
    row.push_back(
        SelectMetric(RunKvPoint<CBoMcs>(machine_cfg, t, window_ns, options),
                     metric));
    row.push_back(
        SelectMetric(RunKvPoint<Hmcs>(machine_cfg, t, window_ns, options),
                     metric));
    table.AddRow(t, row);
  }
  return table;
}

}  // namespace cna::bench

#endif  // CNA_BENCH_BENCH_COMMON_H_
