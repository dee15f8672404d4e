// Ablation benches for CNA's tunables (Sections 4-6):
//   1. THRESHOLD (keep_lock_local mask): throughput-vs-fairness tradeoff --
//      "CNA provides a knob to tune the fairness-vs-throughput tradeoff".
//   2. THRESHOLD2 (shuffle-reduction mask) at the low-contention point where
//      Figure 9 shows base CNA dipping below MCS.
//   3. Random-draw vs deferred-counter fairness (the last Section 6 tweak).
#include <cstdint>

#include "bench_common.h"

namespace {

using namespace cna;
using namespace cna::bench;

template <std::uint64_t kMask>
struct MaskConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = kMask;
};

template <std::uint64_t kMask>
struct ShuffleConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0x3ff;
  static constexpr bool kShuffleReduction = true;
  static constexpr std::uint64_t kShuffleMask = kMask;
};

struct CounterConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0x3ff;
  static constexpr bool kCounterFairness = true;
};

struct StatsBaseConfig : locks::CnaPaperBaseConfig {
  static constexpr bool kCollectStats = true;
};
struct StatsOptConfig : StatsBaseConfig {
  static constexpr bool kShuffleReduction = true;
  static constexpr std::uint64_t kShuffleMask = 0xff;  // the paper's value
};

apps::KvBenchOptions ContendedKv() {
  apps::KvBenchOptions kv;
  kv.key_range = 1024;
  kv.update_pct = 20;
  return kv;
}

template <typename L>
std::pair<double, double> ThroughputAndFairness(int threads,
                                                std::uint64_t window,
                                                apps::KvBenchOptions kv) {
  const auto r =
      RunKvPoint<L>(sim::MachineConfig::TwoSocket(), threads, window, kv);
  return {r.throughput_mops, r.fairness};
}

}  // namespace

int main() {
  const std::uint64_t window = DefaultWindowNs();
  const int threads = 32;

  {
    harness::SeriesTable table(
        "Ablation: CNA THRESHOLD (flush probability = 1/(mask+1)), 32 "
        "threads, Figure 6 workload -- throughput (ops/us) and fairness",
        "mask", {"ops/us", "fairness"});
    auto add = [&table](double mask, std::pair<double, double> v) {
      table.AddRow(mask, {v.first, v.second});
    };
    add(0x1, ThroughputAndFairness<locks::CnaLock<SimPlatform, MaskConfig<0x1>>>(
                 threads, window, ContendedKv()));
    add(0xf, ThroughputAndFairness<locks::CnaLock<SimPlatform, MaskConfig<0xf>>>(
                 threads, window, ContendedKv()));
    add(0xff,
        ThroughputAndFairness<locks::CnaLock<SimPlatform, MaskConfig<0xff>>>(
            threads, window, ContendedKv()));
    add(0x3ff,
        ThroughputAndFairness<locks::CnaLock<SimPlatform, MaskConfig<0x3ff>>>(
            threads, window, ContendedKv()));
    add(0xffff,
        ThroughputAndFairness<locks::CnaLock<SimPlatform, MaskConfig<0xffff>>>(
            threads, window, ContendedKv()));
    table.Emit();
  }

  {
    // Low-contention point (Figure 9's 4-thread dip).
    apps::KvBenchOptions kv = ContendedKv();
    kv.external_work_ns = 2'000;
    harness::SeriesTable table(
        "Ablation: CNA shuffle-reduction THRESHOLD2 at 4 threads with "
        "external work (ops/us)",
        "mask", {"ops/us"});
    table.AddRow(
        0, {RunKvPoint<locks::CnaLock<SimPlatform, MaskConfig<0x3ff>>>(
                sim::MachineConfig::TwoSocket(), 4, window, kv)
                .throughput_mops});  // mask 0 = no shuffle reduction
    table.AddRow(
        0x3, {RunKvPoint<locks::CnaLock<SimPlatform, ShuffleConfig<0x3>>>(
                  sim::MachineConfig::TwoSocket(), 4, window, kv)
                  .throughput_mops});
    table.AddRow(
        0xf, {RunKvPoint<locks::CnaLock<SimPlatform, ShuffleConfig<0xf>>>(
                  sim::MachineConfig::TwoSocket(), 4, window, kv)
                  .throughput_mops});
    table.AddRow(
        0xff, {RunKvPoint<locks::CnaLock<SimPlatform, ShuffleConfig<0xff>>>(
                   sim::MachineConfig::TwoSocket(), 4, window, kv)
                   .throughput_mops});
    table.Emit();
  }

  {
    harness::SeriesTable table(
        "Ablation: keep_lock_local via per-handover random draw vs deferred "
        "thread-local counter (Section 6), 32 threads",
        "variant", {"ops/us", "fairness"});
    const auto rand_draw =
        ThroughputAndFairness<locks::CnaLock<SimPlatform, MaskConfig<0x3ff>>>(
            threads, window, ContendedKv());
    const auto counter =
        ThroughputAndFairness<locks::CnaLock<SimPlatform, CounterConfig>>(
            threads, window, ContendedKv());
    table.AddRow(0, {rand_draw.first, rand_draw.second});  // 0 = random draw
    table.AddRow(1, {counter.first, counter.second});      // 1 = counter
    table.Emit();
  }

  {
    // Section 7.1.1's measurement: "the shuffle reduction optimization
    // indeed reduces [the number of main-queue alterations] by almost a
    // factor of ten at 4 threads (and has no impact at other thread
    // counts)."
    apps::KvBenchOptions kv = ContendedKv();
    kv.external_work_ns = 2'000;
    harness::SeriesTable table(
        "Ablation: main-queue alterations per 1000 ops, CNA vs CNA(opt), "
        "Figure 9 workload",
        "threads", {"CNA", "CNA-opt", "reduction_x"});
    for (int t : {4, 16, 48}) {
      auto measure = [&](auto lock_tag) {
        using L = decltype(lock_tag);
        locks::GlobalCnaCounters().Reset();
        const auto r = RunKvPoint<L>(sim::MachineConfig::TwoSocket(), t,
                                     window, kv);
        const auto alters =
            locks::GlobalCnaCounters().queue_alterations.load();
        return r.total_ops == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(alters) /
                         static_cast<double>(r.total_ops);
      };
      const double base =
          measure(locks::CnaLock<SimPlatform, StatsBaseConfig>{});
      const double opt = measure(locks::CnaLock<SimPlatform, StatsOptConfig>{});
      table.AddRow(t, {base, opt, opt > 0 ? base / opt : 0.0});
    }
    locks::GlobalCnaCounters().Reset();
    table.Emit();
  }
  return 0;
}
