// Layer probes of the traced run.  Each probe times the benchmark's own calls
// into one layer's public functions; nothing inside src/ is instrumented.
//
// Real-thread probes are one-thread lock+unlock pairs over the same 1024
// stripes and key stream, climbing the stack one layer at a time:
//   bare lock -> LockTable -> +collect_stats -> +collect_latency (telemetry
//   on) -> +lockdep, and LockTable -> AnyLockTable -> cna_locktable_*.
// The difference between two rungs is the cost of the layer between them.
// Simulator probes run the kv-numa-sim configuration on CNA and on MCS
// stripes, the paper's comparison, for the lock-algorithm counters.
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/stats.h"
#include "bench_util.h"
#include "core/pthread_api.h"
#include "core/registry.h"
#include "locks/cna.h"
#include "locks/cna_rwlock.h"
#include "locks/mcs.h"
#include "locktable/lock_table.h"
#include "locktable/rw_lock_table.h"
#include "platform/real_platform.h"
#include "qspin/qspinlock.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cna::RealPlatform;
using RealCna = cna::locks::CnaLock<RealPlatform>;
using RealMcs = cna::locks::McsLock<RealPlatform>;
using RealQspinCna =
    cna::qspin::QSpinLock<RealPlatform, cna::qspin::SlowPathKind::kCna>;
using CnaTable = cna::locktable::LockTable<RealPlatform, RealCna>;
using RwTable = cna::locktable::RwLockTable<
    RealPlatform,
    cna::locks::CnaRwLock<RealPlatform, cna::locks::CnaRwCompactConfig>>;

constexpr std::size_t kStripes = 1024;
constexpr std::uint64_t kKeySpace = 1 << 16;
constexpr std::size_t kKeyCount = 4096;  // power of two
constexpr int kBatch = 1024;
constexpr int kRealProbes = 12;

// Median over timed batches of the per-pair cost of pair(i), in ns.
template <typename F>
double PairNs(double budget_s, F&& pair) {
  for (int i = 0; i < kBatch; ++i) {
    pair(static_cast<std::size_t>(i));  // warm-up
  }
  std::vector<double> per_pair;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(budget_s * 1e9);
  std::size_t next = 0;
  do {
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      pair(next++);
    }
    per_pair.push_back(static_cast<double>(NowNs() - t0) / kBatch);
  } while (NowNs() < deadline);
  return Median(std::move(per_pair));
}

template <typename L>
double BareLockPairNs(double budget_s) {
  L lock;
  typename L::Handle h;
  return PairNs(budget_s, [&](std::size_t) {
    lock.Lock(h);
    lock.Unlock(h);
  });
}

void RealThreadProbes(const std::vector<std::uint64_t>& keys, double budget_s,
                      Result& r) {
  auto key = [&](std::size_t i) { return keys[i & (kKeyCount - 1)]; };
  auto table_pair = [&](CnaTable& t) {
    return PairNs(budget_s, [&](std::size_t i) {
      t.Lock(key(i));
      t.Unlock(key(i));
    });
  };

  r.Add("locks.cna.pair_ns", BareLockPairNs<RealCna>(budget_s), "ns");
  r.Add("locks.mcs.pair_ns", BareLockPairNs<RealMcs>(budget_s), "ns");
  r.Add("locks.qspin_cna.pair_ns", BareLockPairNs<RealQspinCna>(budget_s),
        "ns");
  {
    CnaTable t({.stripes = kStripes});
    r.Add("locktable.pair_ns", table_pair(t), "ns");
    r.Add("locktable.multi2_ns",
          PairNs(budget_s,
                 [&](std::size_t i) {
                   const std::uint64_t ks[2] = {key(i), key(i + 1)};
                   std::size_t stripes[2];
                   t.UnlockStripesN(stripes, t.LockKeysInto(ks, 2, stripes));
                 }),
          "ns");
  }
  {
    RwTable t({.stripes = kStripes});
    r.Add("locktable.rw.read_pair_ns", PairNs(budget_s,
                                              [&](std::size_t i) {
                                                t.LockShared(key(i));
                                                t.UnlockShared(key(i));
                                              }),
          "ns");
    r.Add("locktable.rw.write_pair_ns", PairNs(budget_s,
                                               [&](std::size_t i) {
                                                 t.LockExclusive(key(i));
                                                 t.UnlockExclusive(key(i));
                                               }),
          "ns");
  }
  {
    CnaTable t({.stripes = kStripes, .collect_stats = true});
    r.Add("telemetry.stats.pair_ns", table_pair(t), "ns");
  }
  {
    CnaTable t({.stripes = kStripes,
                .collect_stats = true,
                .collect_latency = true,
                .metrics_name = "perfbench.ladder"});
    cna::telemetry::SetEnabled(true);
    r.Add("telemetry.latency.pair_ns", table_pair(t), "ns");
    cna::telemetry::lockdep::SetEnabled(true);
    r.Add("telemetry.lockdep.pair_ns", table_pair(t), "ns");
    cna::telemetry::lockdep::SetEnabled(false);
    cna::telemetry::SetEnabled(false);
  }
  {
    auto any = cna::core::MakeLockTable<RealPlatform>(cna::core::LockKind::kCna,
                                                      {.stripes = kStripes});
    r.Add("core.any_table.pair_ns", PairNs(budget_s,
                                           [&](std::size_t i) {
                                             any->Lock(key(i));
                                             any->Unlock(key(i));
                                           }),
          "ns");
  }
  {
    cna_locktable_t* c = cna_locktable_create("cna", kStripes);
    int rc = c == nullptr ? -1 : 0;
    if (c != nullptr) {
      r.Add("core.capi.pair_ns", PairNs(budget_s,
                                        [&](std::size_t i) {
                                          rc |= cna_locktable_lock(c, key(i));
                                          rc |= cna_locktable_unlock(c, key(i));
                                        }),
            "ns");
      cna_locktable_destroy(c);
    }
    r.Check(rc == 0, "layer probe: a cna_locktable_* call failed");
  }
}

void SimProbes(const Config& cfg, double budget_s, Result& r) {
  const std::uint64_t window = SimWindowNs(budget_s / 2);
  const SimKvSummary cna = RunSimKv(SimLock::kCna, cfg.seed, window,
                                    /*traced=*/false, /*collect_stats=*/false);
  const SimKvSummary mcs = RunSimKv(SimLock::kMcs, cfg.seed, window,
                                    /*traced=*/false, /*collect_stats=*/false);
  r.Check(cna.conserved && mcs.conserved,
          "sim probe: value sum does not match the writes");
  const double ops = static_cast<double>(cna.ops);
  r.Add("locks.remote_miss_per_op",
        static_cast<double>(cna.cache.remote_misses) / ops, "count");
  r.Add("locks.rmw_per_op", static_cast<double>(cna.cache.rmws) / ops,
        "count");
  r.Add("locks.fairness", cna::FairnessFactor(cna.per_fiber_ops), "share");
  r.Add("locks.mcs_ref.sim_ops_per_us", mcs.OpsPerUs(), "1/us");
}

}  // namespace

void RunLayerProbes(const Config& cfg, double seconds, Result& r) {
  std::vector<std::uint64_t> keys(kKeyCount);
  cna::XorShift64 rng = cna::XorShift64::FromSeed(cfg.seed ^ 0x9a1e);
  for (std::uint64_t& k : keys) {
    k = rng.NextBelow(kKeySpace);
  }
  RealThreadProbes(keys, 0.6 * seconds / kRealProbes, r);
  SimProbes(cfg, 0.4 * seconds, r);
}

}  // namespace perfbench
