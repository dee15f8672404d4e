// kv-numa-sim: 32 fibers on the simulated two-socket machine drive a
// 16-stripe CNA LockTable through its public calls.
//
// At 16 stripes about half of all acquisitions find the stripe held, so
// queues form and lock handoff plus cross-socket traffic decide the result.
// Every figure comes from the simulated clock (sim::Machine::NowNs()): the
// run is a deterministic function of the seed and the window, and table
// bookkeeping costs no simulated time, so only lock-algorithm changes move
// it.  telemetry::NowNs() is wall time even under the simulator, which is
// why nothing here reads the telemetry histograms (see perfbench/README.md).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/cacheline.h"
#include "base/rng.h"
#include "base/stats.h"
#include "bench_util.h"
#include "locks/cna.h"
#include "locks/mcs.h"
#include "locktable/lock_table.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cna::SimPlatform;
using cna::XorShift64;

// bench/bench_common.h's CNA setting: flush the secondary queue with
// probability 1/256, scaled to millisecond windows like the paper figures.
struct SimCnaConfig : cna::locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0xff;
};
using SimCna = cna::locks::CnaLock<SimPlatform, SimCnaConfig>;
using SimMcs = cna::locks::McsLock<SimPlatform>;

constexpr int kFibers = 32;
constexpr std::size_t kStripes = 16;
constexpr std::uint64_t kKeys = 1 << 16;
constexpr std::uint64_t kCsNs = 50;  // simulated work inside each section
constexpr std::uint64_t kValueRegion = 1ull << 35;  // 8 values per line
constexpr int kSetupReps = 21;

// Simulated time per wall-clock second of budget, chosen so a window takes
// about as long on the host as the budget it is derived from.  A constant,
// so the same seed and --seconds always simulate the same window.
constexpr std::uint64_t kSimNsPerSecond = 5'000'000;

struct SimClock {
  static std::uint64_t Now() { return cna::sim::Machine::Active()->NowNs(); }
};

template <typename L, bool kTraced>
class SimKv {
  using Table = cna::locktable::LockTable<SimPlatform, L>;

 public:
  SimKv(std::uint64_t seed, std::uint64_t window_ns, bool collect_stats)
      : seed_(seed),
        window_ns_(window_ns),
        machine_(MachineConfigFor(seed)),
        table_(MakeLineAlignedTable(collect_stats)),
        values_(kKeys),
        ops_(kFibers, 0),
        writes_(kFibers, 0),
        spans_(kTraced ? kFibers : 0) {
    XorShift64 fill = XorShift64::FromSeed(seed ^ 0xf111);
    for (std::uint64_t& v : values_) {
      v = 1 + fill.NextBelow(1000);
      initial_sum_ += v;
    }
    for (int t = 0; t < kFibers; ++t) {
      machine_.Spawn([this, t] { FiberBody(t); });
    }
  }

  SimKv(const SimKv&) = delete;
  SimKv& operator=(const SimKv&) = delete;

  SimKvSummary Run() {
    machine_.Run();
    SimKvSummary s;
    s.window_ns = window_ns_;
    s.per_fiber_ops = ops_;
    std::uint64_t writes = 0;
    for (int t = 0; t < kFibers; ++t) {
      s.ops += ops_[t];
      writes += writes_[t];
      if constexpr (kTraced) {
        MergeSpans(spans_[t], s.spans);
      }
    }
    std::uint64_t sum = 0;
    for (std::uint64_t v : values_) {
      sum += v;
    }
    s.conserved = sum == initial_sum_ + writes;
    s.cache = machine_.TotalStats();
    s.latency = latency_;
    s.lock_state_bytes = table_->LockStateBytes();
    if (table_->stats_enabled()) {
      s.contended_share = table_->StatsSummary().ContentionRate();
    }
    return s;
  }

 private:
  static cna::sim::MachineConfig MachineConfigFor(std::uint64_t seed) {
    cna::sim::MachineConfig cfg = cna::sim::MachineConfig::TwoSocket();
    cfg.seed = seed;
    return cfg;
  }

  // The simulator models memory by cache line, and the compact stripe array
  // is only 8-byte aligned: where the allocator happens to put it decides
  // whether the 16 stripes span two modelled lines or three, which moves the
  // result by a few percent after any unrelated change to the heap's
  // history.  Pin the placement by allocating until the first stripe starts
  // a line (the misplaced tables stay alive meanwhile so each try gets a new
  // address).
  static std::unique_ptr<Table> MakeLineAlignedTable(bool collect_stats) {
    std::vector<std::unique_ptr<Table>> misplaced;
    for (int attempt = 0; attempt < 64; ++attempt) {
      auto table = std::make_unique<Table>(cna::locktable::LockTableOptions{
          .stripes = kStripes, .collect_stats = collect_stats});
      if (reinterpret_cast<std::uintptr_t>(&table->StripeLock(0)) %
              cna::kCacheLineSize ==
          0) {
        return table;
      }
      misplaced.push_back(std::move(table));
    }
    throw std::runtime_error("kv-numa-sim: no line-aligned stripe array");
  }

  // 60% reads, 30% single-key writes, 10% two-key transfers: the op mix of
  // ShardedKv::MixedOp in bench/locktable_sweep.cc.
  void FiberBody(int t) {
    cna::sim::Machine& m = machine_;
    XorShift64 rng = XorShift64::FromSeed(seed_ * 0x9e3779b97f4a7c15ull +
                                          static_cast<std::uint64_t>(t));
    SpanSet* spans = kTraced ? &spans_[t] : nullptr;
    std::uint64_t ops = 0, writes = 0;
    while (m.NowNs() < window_ns_) {
      const std::uint64_t key = rng.NextBelow(kKeys);
      const std::uint64_t roll = rng.NextBelow(100);
      SpanTimer<kTraced, SimClock> timer(spans);
      const std::uint64_t t0 = m.NowNs();
      if (roll < 90) {
        const bool put = roll >= 60;
        const std::size_t s = table_->StripeOf(key);
        timer.LockStart();
        table_->LockStripe(s);
        timer.Locked();
        SimPlatform::ExternalWork(kCsNs);
        SimPlatform::OnDataAccess(kValueRegion + key / 8, put);
        if (put) {
          ++values_[key];
          ++writes;
        } else {
          sink_ += values_[key];
        }
        timer.UnlockStart();
        table_->UnlockStripe(s);
        timer.Unlocked();
      } else {
        const std::uint64_t keys[2] = {key, rng.NextBelow(kKeys)};
        const std::uint64_t amount = 1 + rng.NextBelow(8);
        std::size_t stripes[2];
        timer.LockStart();
        const std::size_t n = table_->LockKeysInto(keys, 2, stripes);
        timer.Locked();
        SimPlatform::ExternalWork(kCsNs);
        SimPlatform::OnDataAccess(kValueRegion + keys[0] / 8, true);
        SimPlatform::OnDataAccess(kValueRegion + keys[1] / 8, true);
        const std::uint64_t moved = std::min(amount, values_[keys[0]]);
        values_[keys[0]] -= moved;
        values_[keys[1]] += moved;
        timer.UnlockStart();
        table_->UnlockStripesN(stripes, n);
        timer.Unlocked();
      }
      latency_.Add(m.NowNs() - t0);
      ++ops;
    }
    ops_[t] = ops;
    writes_[t] = writes;
  }

  std::uint64_t seed_;
  std::uint64_t window_ns_;
  cna::sim::Machine machine_;
  std::unique_ptr<Table> table_;
  std::vector<std::uint64_t> values_;
  std::uint64_t initial_sum_ = 0;
  std::uint64_t sink_ = 0;
  std::vector<std::uint64_t> ops_;
  std::vector<std::uint64_t> writes_;
  std::vector<SpanSet> spans_;
  Histogram latency_;  // one OS thread runs every fiber: no sharing issue
};

template <typename L>
SimKvSummary RunSimKvImpl(std::uint64_t seed, std::uint64_t window_ns,
                          bool traced, bool collect_stats) {
  if (traced) {
    return SimKv<L, true>(seed, window_ns, collect_stats).Run();
  }
  return SimKv<L, false>(seed, window_ns, collect_stats).Run();
}

}  // namespace

std::uint64_t SimWindowNs(double seconds) {
  return static_cast<std::uint64_t>(seconds *
                                    static_cast<double>(kSimNsPerSecond));
}

SimKvSummary RunSimKv(SimLock lock, std::uint64_t seed, std::uint64_t window_ns,
                      bool traced, bool collect_stats) {
  return lock == SimLock::kCna
             ? RunSimKvImpl<SimCna>(seed, window_ns, traced, collect_stats)
             : RunSimKvImpl<SimMcs>(seed, window_ns, traced, collect_stats);
}

void RunKvNumaSim(const Config& cfg, double seconds, Result& r) {
  if (!cfg.trace) {
    const std::uint64_t window = SimWindowNs(seconds);
    std::unique_ptr<SimKv<SimCna, false>> kv;
    const double setup_s = MedianSetupSeconds(
        kSetupReps, [&] { kv.reset(); },
        [&] {
          kv = std::make_unique<SimKv<SimCna, false>>(cfg.seed, window,
                                                      /*collect_stats=*/false);
        });
    const SimKvSummary s = kv->Run();
    r.attempted = s.ops;
    r.Check(s.conserved, "kv-numa-sim: value sum does not match the writes");
    r.Add("setup_s", setup_s, "s");
    r.Add("ops_per_s", s.OpsPerUs() * 1e6, "1/s");
    r.Add("op_p50_ns", s.latency.Percentile(0.50), "ns");
    r.Add("op_p99_ns", s.latency.Percentile(0.99), "ns");
    r.Add("ok_op_share", 1.0, "share");
    r.Add("peak_rss_mib", PeakRssMib(), "MiB");
    r.Add("lock_state_bytes", static_cast<double>(s.lock_state_bytes), "B");
    r.Note("simulated window: " + std::to_string(s.window_ns) +
           " ns; clock: simulated; latency samples: " +
           std::to_string(s.latency.count()) + " (every op)");
    return;
  }
  // Traced: the plain run, the same run with spans stamped from the
  // simulated clock, and a stats-enabled run for the contended share (the
  // stats try-lock probe is a real RMW, so it gets a run of its own).
  const std::uint64_t window = SimWindowNs(seconds / 3);
  const SimKvSummary plain =
      RunSimKv(SimLock::kCna, cfg.seed, window, false, false);
  const SimKvSummary traced =
      RunSimKv(SimLock::kCna, cfg.seed, window, true, false);
  const SimKvSummary stats =
      RunSimKv(SimLock::kCna, cfg.seed, window, false, true);
  r.attempted = plain.ops + traced.ops + stats.ops;
  r.Check(plain.conserved && traced.conserved && stats.conserved,
          "kv-numa-sim: value sum does not match the writes");
  r.Check(traced.ops == plain.ops &&
              traced.cache.remote_misses == plain.cache.remote_misses,
          "kv-numa-sim: stamping spans changed the simulated schedule");
  AddSpanMetrics(traced.spans, r);
  r.Add("locktable.contended_share", stats.contended_share, "share");
  r.Add("trace.overhead_share", 1.0 - traced.OpsPerUs() / plain.OpsPerUs(),
        "share");
}

}  // namespace perfbench
