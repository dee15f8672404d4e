// Lock-table stripe sweep: compactness x locality on the simulated 2-socket
// machine.
//
// The futex-style lock namespace (src/locktable/) is swept over stripe
// counts {1, 16, 1024, 1M} for one-word locks {MCS, CNA (the paper's base
// policy), CNA-opt (the library default)}, all serving the same sharded-KV
// workload (apps/sharded_kv.h).  Three tables come out:
//   * throughput (ops/us)      -- 1 stripe reproduces the global-lock regime
//     where CNA's NUMA-awareness pays; 1M stripes approaches lock-per-object
//     where every kind is uncontended and the lock *footprint* is what
//     differs between designs;
//   * remote-miss rate         -- the Figure 7 quantity, per configuration;
//   * total lock-state bytes   -- the compactness claim: with one-word locks
//     in the compact layout, the 1M-stripe namespace costs exactly 8 MiB
//     (a cohort/HMCS namespace of the same size would be O(sockets) cache
//     lines per stripe -- gigabytes).
//
// A regime pass then fixes the fiber count (32 fibers on the 2-socket
// machine, 64 on the 4-socket one) and sweeps the stripes from 1 (every
// fiber in one queue) to 64 (one or two waiters per queue): the light end is
// where base CNA's queue walks cost more than they save.  It also runs the
// kernel lock's two slow paths, qspin-MCS and qspin-CNA, on the same tables.
//
// A final stats pass re-runs the 16-stripe CNA point with the per-stripe
// occupancy/contention counters enabled (table_stats.h).
//
// Environment: CNA_BENCH_WINDOW_MS, CNA_BENCH_MAX_THREADS as elsewhere.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/sharded_kv.h"
#include "bench_common.h"
#include "qspin/qspinlock.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"

namespace {

using namespace cna;
using namespace cna::bench;

constexpr std::uint64_t kMillion = 1ull << 20;  // "1M" stripes (2^20)

// qspin-CNA at the benches' fairness scaling (flush draw 1/256).
struct SweepQspinCnaConfig : qspin::QspinCnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0xff;
};
using QspinMcs = qspin::QSpinLock<SimPlatform, qspin::SlowPathKind::kMcs>;
using QspinCna = qspin::QSpinLock<SimPlatform, qspin::SlowPathKind::kCna,
                                  SweepQspinCnaConfig>;

const std::vector<std::size_t>& StripeCounts() {
  static const std::vector<std::size_t> counts = {1, 16, 1024, kMillion};
  return counts;
}

apps::ShardedKvOptions SweepOptions(std::size_t stripes) {
  apps::ShardedKvOptions o;
  o.key_range = 1 << 16;
  o.lock_stripes = stripes;
  o.get_pct = 60;
  o.put_pct = 30;  // remaining 10%: two-key MultiGuard transfers
  o.cs_compute_ns = 50;
  return o;
}

template <typename L>
harness::RunResult RunPoint(int threads, std::uint64_t window_ns,
                            std::size_t stripes,
                            const sim::MachineConfig& machine =
                                sim::MachineConfig::TwoSocket()) {
  auto kv = std::make_shared<apps::ShardedKv<SimPlatform, L>>(
      SweepOptions(stripes));
  return harness::RunOnSim(machine, threads, window_ns, [kv](int t) {
    XorShift64 rng =
        XorShift64::FromSeed(0x10cc + static_cast<std::uint64_t>(t));
    return [kv, rng]() mutable { kv->MixedOp(rng); };
  });
}

void RegimePass(std::uint64_t window_ns) {
  struct Machine {
    const char* name;
    sim::MachineConfig config;
    int fibers;
    std::vector<std::size_t> stripes;
  };
  const Machine machines[] = {
      {"2-socket", sim::MachineConfig::TwoSocket(), 32, {1, 2, 4, 8, 16, 64}},
      {"4-socket", sim::MachineConfig::FourSocket(), 64, {1, 4, 16}},
  };
  for (const Machine& m : machines) {
    harness::SeriesTable table(
        std::string("Lock-table sweep: contention regimes, throughput "
                    "(ops/us) vs stripes, sharded KV, ") +
            std::to_string(m.fibers) + " fibers, " + m.name,
        "stripes", {"MCS", "CNA", "CNA-opt", "qspin-MCS", "qspin-CNA"});
    for (std::size_t stripes : m.stripes) {
      table.AddRow(
          static_cast<double>(stripes),
          {RunPoint<Mcs>(m.fibers, window_ns, stripes, m.config)
               .throughput_mops,
           RunPoint<Cna>(m.fibers, window_ns, stripes, m.config)
               .throughput_mops,
           RunPoint<CnaOpt>(m.fibers, window_ns, stripes, m.config)
               .throughput_mops,
           RunPoint<QspinMcs>(m.fibers, window_ns, stripes, m.config)
               .throughput_mops,
           RunPoint<QspinCna>(m.fibers, window_ns, stripes, m.config)
               .throughput_mops});
    }
    table.Emit();
  }
}

template <typename L>
std::size_t LockStateBytesFor(std::size_t stripes) {
  // Geometry only -- no workload needed.
  locktable::LockTable<SimPlatform, L> table({.stripes = stripes});
  return table.LockStateBytes();
}

// Re-runs a sweep point with per-stripe wait-time telemetry on and returns
// the run's slice of the "locktable.wait_ns" histogram.  Separate from the
// throughput runs above so those stay undisturbed by the timing calls.
template <typename L>
telemetry::HistogramSnapshot RunLatencyPoint(int threads,
                                             std::uint64_t window_ns,
                                             std::size_t stripes) {
  auto opts = SweepOptions(stripes);
  opts.collect_latency = true;
  auto& wait = telemetry::Registry::Global().GetHistogram("locktable.wait_ns");
  const auto before = wait.Snapshot();
  auto kv = std::make_shared<apps::ShardedKv<SimPlatform, L>>(opts);
  (void)harness::RunOnSim(
      sim::MachineConfig::TwoSocket(), threads, window_ns, [kv](int t) {
        XorShift64 rng =
            XorShift64::FromSeed(0x1a7e + static_cast<std::uint64_t>(t));
        return [kv, rng]() mutable { kv->MixedOp(rng); };
      });
  return wait.Snapshot() - before;
}

void LatencyPass(int threads, std::uint64_t window_ns) {
  telemetry::SetEnabled(true);
  std::vector<std::string> cols;
  cols = harness::WithPercentileColumns(std::move(cols), "MCS");
  cols = harness::WithPercentileColumns(std::move(cols), "CNA");
  cols = harness::WithPercentileColumns(std::move(cols), "CNA-opt");
  harness::SeriesTable table(
      "Lock-table sweep: stripe wait time vs stripes, sharded KV, " +
          std::to_string(threads) + " threads, 2-socket",
      "stripes", cols);
  for (std::size_t stripes : StripeCounts()) {
    std::vector<double> row;
    harness::AppendPercentiles(
        row, RunLatencyPoint<Mcs>(threads, window_ns, stripes));
    harness::AppendPercentiles(
        row, RunLatencyPoint<Cna>(threads, window_ns, stripes));
    harness::AppendPercentiles(
        row, RunLatencyPoint<CnaOpt>(threads, window_ns, stripes));
    table.AddRow(static_cast<double>(stripes), row);
  }
  table.Emit();
  telemetry::SetEnabled(false);
}

// Re-runs the 16-stripe CNA point with a manually-ticked Sampler driven from
// fiber 0 on *simulated* time: 16 evenly spaced ticks over the window turn
// the cumulative wait histogram into an acquisition-rate trajectory, recorded
// into the bench JSON document's "rate_curves".  This is the simulator-side
// twin of the background sampler cna_top attaches to.
void RateCurvePass(int threads, std::uint64_t window_ns) {
  telemetry::SetEnabled(true);
  auto opts = SweepOptions(16);
  opts.collect_latency = true;
  auto sampler = std::make_shared<telemetry::Sampler>(
      &telemetry::Registry::Global(),
      telemetry::SamplerOptions{.capacity = 64, .interval_ns = 0});
  const std::uint64_t tick_every = window_ns / 16 ? window_ns / 16 : 1;
  auto kv = std::make_shared<apps::ShardedKv<SimPlatform, Cna>>(opts);
  (void)harness::RunOnSim(
      sim::MachineConfig::TwoSocket(), threads, window_ns,
      [kv, sampler, tick_every](int t) {
        XorShift64 rng =
            XorShift64::FromSeed(0x2a7e + static_cast<std::uint64_t>(t));
        if (t != 0) {
          return std::function<void()>([kv, rng]() mutable { kv->MixedOp(rng); });
        }
        auto next = std::make_shared<std::uint64_t>(tick_every);
        return std::function<void()>([kv, rng, sampler, next,
                                      tick_every]() mutable {
          kv->MixedOp(rng);
          const std::uint64_t now = sim::Machine::Active()->NowNs();
          if (now >= *next) {
            sampler->Tick(now);
            *next = now + tick_every;
          }
        });
      });
  harness::RecordRateCurve("locktable.wait_ns", "cna x16 acquisition rate",
                           sampler->RateCurve("locktable.wait_ns"));
  telemetry::SetEnabled(false);
}

void StatsPass(int threads, std::uint64_t window_ns) {
  // The per-stripe occupancy/contention counters, demonstrated on the
  // 16-stripe CNA point (hot enough that contention is visible, small enough
  // to print).  Stats mode probes with a try-lock first, so this pass is
  // reported separately from the undisturbed throughput tables above.
  auto opts = SweepOptions(16);
  opts.collect_stats = true;
  auto kv = std::make_shared<apps::ShardedKv<SimPlatform, Cna>>(opts);
  (void)harness::RunOnSim(
      sim::MachineConfig::TwoSocket(), threads, window_ns, [kv](int t) {
        XorShift64 rng =
            XorShift64::FromSeed(0x57a7 + static_cast<std::uint64_t>(t));
        return [kv, rng]() mutable { kv->MixedOp(rng); };
      });
  const auto s = kv->table().StatsSummary();
  std::printf(
      "\nPer-stripe stats, cna x 16 stripes, %d threads:\n"
      "  acquisitions: %llu (%.1f%% contended, %llu via MultiGuard)\n"
      "  occupancy: %zu/%zu stripes touched, hottest stripe %llu "
      "acquisitions\n",
      threads, static_cast<unsigned long long>(s.total_acquisitions),
      100.0 * s.ContentionRate(),
      static_cast<unsigned long long>(s.multi_key_acquisitions),
      s.occupied_stripes, s.stripes,
      static_cast<unsigned long long>(s.max_stripe_acquisitions));
}

}  // namespace

int main() {
  const std::uint64_t window = harness::BenchWindowNs(2'000'000);
  // Ladder so CNA_BENCH_MAX_THREADS can clip the point (ClipThreads filters
  // a list); the sweep itself runs at one thread count, the largest allowed.
  const int threads = harness::ClipThreads({2, 4, 8, 16, 36}).back();
  harness::SetBenchInfo(
      "locktable_sweep",
      "machine=2-socket threads=" + std::to_string(threads) +
          " window_ns=" + std::to_string(window) +
          " locks=mcs,cna,cna-opt,qspin-mcs,qspin-cna");

  const std::vector<std::string> locks = {"MCS", "CNA", "CNA-opt"};
  harness::SeriesTable throughput(
      "Lock-table sweep: throughput (ops/us) vs stripes, sharded KV, " +
          std::to_string(threads) + " threads, 2-socket",
      "stripes", locks);
  harness::SeriesTable remote(
      "Lock-table sweep: remote-miss rate vs stripes", "stripes", locks);
  harness::SeriesTable bytes(
      "Lock-table sweep: total lock-state bytes vs stripes (compact layout)",
      "stripes", locks);

  for (std::size_t stripes : StripeCounts()) {
    const auto mcs = RunPoint<Mcs>(threads, window, stripes);
    const auto cna = RunPoint<Cna>(threads, window, stripes);
    const auto opt = RunPoint<CnaOpt>(threads, window, stripes);
    const auto x = static_cast<double>(stripes);
    throughput.AddRow(x, {mcs.throughput_mops, cna.throughput_mops,
                          opt.throughput_mops});
    remote.AddRow(x, {mcs.remote_miss_rate, cna.remote_miss_rate,
                      opt.remote_miss_rate});
    bytes.AddRow(x, {static_cast<double>(LockStateBytesFor<Mcs>(stripes)),
                     static_cast<double>(LockStateBytesFor<Cna>(stripes)),
                     static_cast<double>(LockStateBytesFor<CnaOpt>(stripes))});
  }
  throughput.Emit();
  remote.Emit();
  bytes.Emit();

  const std::size_t million_bytes = LockStateBytesFor<Cna>(kMillion);
  std::printf(
      "\n1M-stripe CNA table: %zu bytes of lock words (%.1f MiB; one word "
      "per stripe -- the paper's compactness claim at namespace scale)\n",
      million_bytes, static_cast<double>(million_bytes) / (1 << 20));

  RegimePass(window);
  LatencyPass(threads, window);
  RateCurvePass(threads, window);
  StatsPass(threads, window);
  return 0;
}
