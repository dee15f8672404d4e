// rwkv-observed: three OS threads on two virtual sockets drive a read-mostly
// RwLockTable of compact (one-word) CnaRwLock stripes, with every
// instrumentation sink on, as an operator runs the service.
//
// 1 Mi stripes are 8 MiB of lock words, more than one core's 2 MiB L2, and
// the 4 Mi uniform keys spread over all of them, so lock words are mostly
// cache misses.  The mix is 90% shared-mode reads, 8% exclusive writes and
// 2% two-key exclusive MultiGuard transfers; collect_stats, collect_latency,
// telemetry and lockdep are all on.  Critical sections are loads and stores
// on the value array, never RealPlatform::ExternalWork.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "base/rng.h"
#include "closed_loop.h"
#include "core/pthread_api.h"
#include "locks/cna_rwlock.h"
#include "locktable/rw_lock_table.h"
#include "platform/real_platform.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cna::XorShift64;
using RwLock =
    cna::locks::CnaRwLock<cna::RealPlatform, cna::locks::CnaRwCompactConfig>;
using RwTable = cna::locktable::RwLockTable<cna::RealPlatform, RwLock>;

constexpr std::size_t kStripes = 1 << 20;
constexpr std::uint64_t kKeys = 1 << 22;
constexpr int kThreads = 3;
constexpr int kSetupReps = 5;

struct RwkvState {
  explicit RwkvState(std::uint64_t seed)
      : table({.stripes = kStripes,
               .collect_stats = true,
               .collect_latency = true,
               .metrics_name = "perfbench.rwkv"}),
        values(kKeys) {
    XorShift64 fill = XorShift64::FromSeed(seed ^ 0xf111);
    for (std::uint64_t& v : values) {
      v = 1 + fill.NextBelow(1000);
      initial_sum += v;
    }
  }

  RwTable table;
  std::vector<std::uint64_t> values;
  std::uint64_t initial_sum = 0;
};

class alignas(64) RwkvWorker {
 public:
  RwkvWorker(RwkvState& state, std::uint64_t seed)
      : s_(&state), rng_(XorShift64::FromSeed(seed)) {}

  bool Op() { return Do<false>(nullptr); }
  bool TracedOp(SpanSet& spans) { return Do<true>(&spans); }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t write_acquisitions() const { return write_acquisitions_; }

 private:
  template <bool kTraced>
  bool Do(SpanSet* spans) {
    SpanTimer<kTraced, WallClock> timer(spans);
    RwTable& table = s_->table;
    const std::uint64_t key = rng_.NextBelow(kKeys);
    const std::uint64_t roll = rng_.NextBelow(100);
    if (roll < 90) {
      timer.LockStart();
      table.LockShared(key);
      timer.Locked();
      sink_ += s_->values[key];
      timer.UnlockStart();
      table.UnlockShared(key);
      timer.Unlocked();
      ++reads_;
    } else if (roll < 98) {
      timer.LockStart();
      table.LockExclusive(key);
      timer.Locked();
      ++s_->values[key];
      timer.UnlockStart();
      table.UnlockExclusive(key);
      timer.Unlocked();
      ++writes_;
      ++write_acquisitions_;
    } else {
      const std::uint64_t keys[2] = {key, rng_.NextBelow(kKeys)};
      const std::uint64_t amount = 1 + rng_.NextBelow(8);
      std::optional<RwTable::MultiGuard> guard;
      timer.LockStart();
      guard.emplace(table, keys, 2);
      timer.Locked();
      const std::uint64_t moved = std::min(amount, s_->values[keys[0]]);
      s_->values[keys[0]] -= moved;
      s_->values[keys[1]] += moved;
      timer.UnlockStart();
      write_acquisitions_ += guard->size();
      guard.reset();
      timer.Unlocked();
    }
    return true;
  }

  RwkvState* s_;
  XorShift64 rng_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t write_acquisitions_ = 0;
  std::uint64_t sink_ = 0;
};

// Output checks: transfers conserve the value sum, the table's own counters
// account for every acquisition the workers made, and lockdep saw no
// lock-order inversion.
void CheckRun(const RwkvState& s, const std::vector<RwkvWorker>& workers,
              std::uint64_t inversions_before, Result& r) {
  std::uint64_t sum = 0, reads = 0, writes = 0, write_acqs = 0;
  for (std::uint64_t v : s.values) {
    sum += v;
  }
  for (const RwkvWorker& w : workers) {
    reads += w.reads();
    writes += w.writes();
    write_acqs += w.write_acquisitions();
  }
  r.Check(sum == s.initial_sum + writes,
          "rwkv-observed: value sum does not match the writes");
  const auto stats = s.table.StatsSummary();
  r.Check(stats.read_acquisitions == reads &&
              stats.write_acquisitions == write_acqs,
          "rwkv-observed: table stats do not account for every acquisition");
  r.Check(cna_lockdep_inversions() == inversions_before,
          "rwkv-observed: lockdep reported a lock-order inversion");
}

double ContendedShare(const RwTable& table) {
  const auto s = table.StatsSummary();
  const std::uint64_t total = s.TotalAcquisitions();
  return total == 0 ? 0.0
                    : static_cast<double>(s.read_contended + s.writer_waits) /
                          static_cast<double>(total);
}

}  // namespace

void RunRwkvObserved(const Config& cfg, double seconds, Result& r) {
  cna::telemetry::SetEnabled(true);
  cna::telemetry::lockdep::SetEnabled(true);
  const std::uint64_t inversions_before = cna_lockdep_inversions();
  std::unique_ptr<RwkvState> state;
  const double setup_s = MedianSetupSeconds(
      kSetupReps, [&] { state.reset(); },
      [&] { state = std::make_unique<RwkvState>(cfg.seed); });
  std::vector<RwkvWorker> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(*state, cfg.seed * 0x9e3779b97f4a7c15ull +
                                     static_cast<std::uint64_t>(t));
  }

  if (!cfg.trace) {
    MeasureEndToEnd(workers, /*virtual_sockets=*/2, seconds, setup_s,
                    state->table.LockStateBytes(), r);
  } else {
    MeasureTraced(workers, /*virtual_sockets=*/2, seconds, r);
    r.Add("locktable.contended_share", ContendedShare(state->table), "share");
  }
  CheckRun(*state, workers, inversions_before, r);
  cna::telemetry::lockdep::SetEnabled(false);
  cna::telemetry::SetEnabled(false);
}

}  // namespace perfbench
