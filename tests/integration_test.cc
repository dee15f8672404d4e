// Integration tests: small-scale versions of the paper's experiments with
// assertions on the *shapes* the paper reports -- CNA matching MCS when
// uncontended, beating it under cross-socket contention, cutting the remote
// miss rate, staying fair, and the kernel benchmarks following suit.
// The full-size sweeps live in bench/.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "apps/kv_bench.h"
#include "apps/sharded_kv.h"
#include "harness/runner.h"
#include "kernel/lockstat.h"
#include "kernel/locktorture.h"
#include "kernel/will_it_scale.h"
#include "locks/cna.h"
#include "locks/lock_api.h"
#include "locks/mcs.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

// Bench-aligned CNA config: same expected local-handover streak (1024) as a
// cohort budget of 1024 (see EXPERIMENTS.md on fairness alignment).
struct TestCnaConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0x3ff;
};

template <typename L>
harness::RunResult RunKv(int threads, std::uint64_t window_ns,
                         std::uint64_t external_work_ns = 0) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 18);
  apps::KvBenchOptions o;
  o.key_range = 512;
  o.update_pct = 20;
  o.external_work_ns = external_work_ns;
  auto bench = std::make_shared<apps::KvBench<SimPlatform, L>>(o);
  return harness::RunOnSim(cfg, threads, window_ns, [bench](int t) {
    XorShift64 rng = XorShift64::FromSeed(1000 + static_cast<std::uint64_t>(t));
    return [bench, rng]() mutable { bench->Op(rng); };
  });
}

using SimMcs = locks::McsLock<SimPlatform>;
using SimCna = locks::CnaLock<SimPlatform, TestCnaConfig>;

TEST(Integration, SingleThreadCnaMatchesMcs) {
  // "CNA does not introduce any overhead in single-thread runs over MCS."
  // The simulator charges CNA's one extra node-field store and spin read at
  // full price (real hardware coalesces same-line accesses), so allow a few
  // percent rather than exact equality.
  const auto mcs = RunKv<SimMcs>(1, 2'000'000);
  const auto cna = RunKv<SimCna>(1, 2'000'000);
  EXPECT_GT(cna.total_ops, 0u);
  EXPECT_NEAR(static_cast<double>(cna.total_ops),
              static_cast<double>(mcs.total_ops),
              0.08 * static_cast<double>(mcs.total_ops));
}

TEST(Integration, ContendedCnaBeatsMcs) {
  // The headline result, at reduced scale: cross-socket contention with 16
  // threads; CNA must outperform MCS noticeably.
  const auto mcs = RunKv<SimMcs>(16, 3'000'000);
  const auto cna = RunKv<SimCna>(16, 3'000'000);
  EXPECT_GT(static_cast<double>(cna.total_ops),
            1.15 * static_cast<double>(mcs.total_ops))
      << "mcs=" << mcs.total_ops << " cna=" << cna.total_ops;
}

TEST(Integration, CnaCutsRemoteMissRate) {
  // Figure 7's shape: under contention MCS's remote-miss rate stays high,
  // CNA's drops.
  const auto mcs = RunKv<SimMcs>(16, 3'000'000);
  const auto cna = RunKv<SimCna>(16, 3'000'000);
  EXPECT_LT(cna.remote_miss_rate, 0.7 * mcs.remote_miss_rate)
      << "mcs=" << mcs.remote_miss_rate << " cna=" << cna.remote_miss_rate;
}

TEST(Integration, McsCollapsesOneToTwoThreads) {
  // Figure 6: "the performance of the MCS lock drops abruptly between one
  // and two threads" (per-thread throughput, cross-socket placement).
  const auto one = RunKv<SimMcs>(1, 2'000'000);
  const auto two = RunKv<SimMcs>(2, 2'000'000);
  const double per_thread_1 = static_cast<double>(one.total_ops);
  const double per_thread_2 = static_cast<double>(two.total_ops) / 2.0;
  EXPECT_LT(per_thread_2, 0.7 * per_thread_1);
}

TEST(Integration, FairnessStaysBounded) {
  // Figure 8's shape: CNA slightly above MCS's 0.5 but well below C-BO-MCS's
  // near-1.0 starvation factor.
  const auto mcs = RunKv<SimMcs>(8, 3'000'000);
  const auto cna = RunKv<SimCna>(8, 3'000'000);
  EXPECT_NEAR(mcs.fairness, 0.5, 0.03);
  EXPECT_LT(cna.fairness, 0.65);
}

// Contention regimes on the sharded KV, driven as bench/locktable_sweep.cc
// drives it (60/30/10 get/put/transfer, 50 ns sections, 64 Ki keys), with
// 32 fibers on the 2-socket machine.  The stripe count sets the regime: one
// stripe queues every fiber, 16 leave about two waiters per queue.
// bench_common.h's fairness scaling (flush probability 1/256) on the
// default policy and on the paper's base policy.
struct SweepCnaConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0xff;
};
struct SweepPaperBaseConfig : locks::CnaPaperBaseConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0xff;
};

template <typename L>
double ShardedKvOpsPerUs(std::size_t stripes) {
  apps::ShardedKvOptions o;
  o.key_range = 1 << 16;
  o.lock_stripes = stripes;
  o.get_pct = 60;
  o.put_pct = 30;
  o.cs_compute_ns = 50;
  auto kv = std::make_shared<apps::ShardedKv<SimPlatform, L>>(o);
  return harness::RunOnSim(
             sim::MachineConfig::TwoSocket(), 32, 2'000'000,
             [kv](int t) {
               XorShift64 rng =
                   XorShift64::FromSeed(0x10cc + static_cast<std::uint64_t>(t));
               return [kv, rng]() mutable { kv->MixedOp(rng); };
             })
      .throughput_mops;
}

TEST(Integration, DefaultCnaHoldsUpInEveryContentionRegime) {
  using SweepCna = locks::CnaLock<SimPlatform, SweepCnaConfig>;
  using PaperBaseCna = locks::CnaLock<SimPlatform, SweepPaperBaseConfig>;
  // Light contention: short queues leave nothing to reorder, so the default
  // CNA must stay close to MCS.
  const double mcs16 = ShardedKvOpsPerUs<SimMcs>(16);
  const double cna16 = ShardedKvOpsPerUs<SweepCna>(16);
  EXPECT_GE(cna16, 0.9 * mcs16) << "mcs=" << mcs16 << " cna=" << cna16;
  // Heavy contention: at least the paper's base CNA.
  for (const std::size_t stripes : {1u, 4u}) {
    const double base = ShardedKvOpsPerUs<PaperBaseCna>(stripes);
    const double cna = ShardedKvOpsPerUs<SweepCna>(stripes);
    EXPECT_GE(cna, base) << stripes << " stripes";
  }
}

TEST(Integration, DeterministicEndToEnd) {
  const auto a = RunKv<SimCna>(8, 1'000'000);
  const auto b = RunKv<SimCna>(8, 1'000'000);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.per_thread_ops, b.per_thread_ops);
}

TEST(Integration, LockTortureCnaBeatsStockUnderContention) {
  auto run = [](auto kind_tag) {
    constexpr qspin::SlowPathKind kKind = decltype(kind_tag)::value;
    sim::MachineConfig cfg;
    cfg.topology = numa::Topology::Uniform(2, 18);
    auto torture =
        std::make_shared<kernel::LockTorture<SimPlatform, kKind>>(
            kernel::LockTortureOptions{});
    return harness::RunOnSim(cfg, 16, 3'000'000, [torture](int) {
      std::uint64_t i = 0;
      return [torture, i]() mutable { torture->WriterOp(i++); };
    });
  };
  const auto stock = run(
      std::integral_constant<qspin::SlowPathKind, qspin::SlowPathKind::kMcs>{});
  const auto cna = run(
      std::integral_constant<qspin::SlowPathKind, qspin::SlowPathKind::kCna>{});
  EXPECT_GT(static_cast<double>(cna.total_ops),
            1.02 * static_cast<double>(stock.total_ops))
      << "stock=" << stock.total_ops << " cna=" << cna.total_ops;
}

TEST(Integration, Table1ContentionSetsMatchPaper) {
  auto& reg = kernel::LockStatRegistry::Global();
  kernel::MiniVfsOptions vo;
  vo.max_fds = 512;
  vo.lockstat_accounting = true;

  auto run_bench = [&](kernel::WisBenchmark b) {
    reg.Reset();
    sim::MachineConfig cfg;
    cfg.topology = numa::Topology::Uniform(2, 8);
    sim::Machine m(cfg);
    auto bench = std::make_shared<
        kernel::WillItScale<SimPlatform, qspin::SlowPathKind::kMcs>>(b, 16,
                                                                     vo);
    for (int t = 0; t < 16; ++t) {
      m.Spawn([bench, t] {
        for (int i = 0; i < 150; ++i) {
          bench->Op(t);
        }
      });
    }
    m.Run();
    std::set<std::string> locks;
    for (const auto& c : reg.ContendedLocks(0.30, 200)) {
      locks.insert(c.lock_name);
    }
    return locks;
  };

  // Table 1: the dominant contended locks per benchmark.
  const auto lock1 = run_bench(kernel::WisBenchmark::kLock1);
  EXPECT_TRUE(lock1.count("files_struct.file_lock")) << "lock1";

  const auto lock2 = run_bench(kernel::WisBenchmark::kLock2);
  EXPECT_TRUE(lock2.count("file_lock_context.flc_lock")) << "lock2";

  const auto open1 = run_bench(kernel::WisBenchmark::kOpen1);
  EXPECT_TRUE(open1.count("files_struct.file_lock")) << "open1";
  EXPECT_TRUE(open1.count("lockref.lock")) << "open1";

  const auto open2 = run_bench(kernel::WisBenchmark::kOpen2);
  EXPECT_TRUE(open2.count("files_struct.file_lock")) << "open2";
  EXPECT_FALSE(open2.count("lockref.lock")) << "open2";
  reg.Reset();
}

}  // namespace
}  // namespace cna
