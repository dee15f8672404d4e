// capi-uncontended: one OS thread drives a 1024-stripe "cna" table through
// the C API (cna_locktable_*), with telemetry and lockdep off.
//
// Nothing ever waits, so everything a pair costs beyond CNA's one atomic
// swap is the surface users call: the C boundary, type erasure, key hashing,
// handle checkout and, for the 10% two-key ops, sorting the stripe set.
// The critical sections are plain loads and stores on the value array
// (RealPlatform::ExternalWork calibrates per process, so it would make every
// run's critical section a different length).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "closed_loop.h"
#include "core/pthread_api.h"
#include "locks/cna.h"
#include "locktable/lock_table.h"
#include "platform/real_platform.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cna::XorShift64;

constexpr std::size_t kStripes = 1024;
constexpr std::uint64_t kKeys = 1 << 16;
constexpr int kSetupReps = 15;

struct CapiState {
  explicit CapiState(std::uint64_t seed)
      : table(cna_locktable_create("cna", kStripes)), values(kKeys) {
    XorShift64 fill = XorShift64::FromSeed(seed ^ 0xf111);
    for (std::uint64_t& v : values) {
      v = 1 + fill.NextBelow(1000);
      initial_sum += v;
    }
  }
  ~CapiState() { cna_locktable_destroy(table); }
  CapiState(const CapiState&) = delete;
  CapiState& operator=(const CapiState&) = delete;

  cna_locktable_t* table;
  std::vector<std::uint64_t> values;
  std::uint64_t initial_sum = 0;
};

class alignas(64) CapiWorker {
 public:
  CapiWorker(CapiState& state, std::uint64_t seed)
      : s_(&state), rng_(XorShift64::FromSeed(seed)) {}

  bool Op() { return Do<false>(nullptr); }
  bool TracedOp(SpanSet& spans) { return Do<true>(&spans); }
  std::uint64_t writes() const { return writes_; }

 private:
  // 90%: lock -> update one value -> unlock.  10%: two-key lock_many ->
  // transfer -> unlock_many.  Returns false if any C call did not return 0.
  template <bool kTraced>
  bool Do(SpanSet* spans) {
    SpanTimer<kTraced, WallClock> timer(spans);
    const std::uint64_t key = rng_.NextBelow(kKeys);
    if (rng_.NextBelow(100) < 90) {
      timer.LockStart();
      if (cna_locktable_lock(s_->table, key) != 0) {
        return false;
      }
      timer.Locked();
      ++s_->values[key];
      ++writes_;
      timer.UnlockStart();
      const int rc = cna_locktable_unlock(s_->table, key);
      timer.Unlocked();
      return rc == 0;
    }
    const std::uint64_t keys[2] = {key, rng_.NextBelow(kKeys)};
    const std::uint64_t amount = 1 + rng_.NextBelow(8);
    timer.LockStart();
    if (cna_locktable_lock_many(s_->table, keys, 2) != 0) {
      return false;
    }
    timer.Locked();
    const std::uint64_t moved = std::min(amount, s_->values[keys[0]]);
    s_->values[keys[0]] -= moved;
    s_->values[keys[1]] += moved;
    timer.UnlockStart();
    const int rc = cna_locktable_unlock_many(s_->table, keys, 2);
    timer.Unlocked();
    return rc == 0;
  }

  CapiState* s_;
  XorShift64 rng_;
  std::uint64_t writes_ = 0;
};

void CheckConserved(const CapiState& s, const std::vector<CapiWorker>& workers,
                    Result& r) {
  std::uint64_t sum = 0, writes = 0;
  for (std::uint64_t v : s.values) {
    sum += v;
  }
  for (const CapiWorker& w : workers) {
    writes += w.writes();
  }
  r.Check(sum == s.initial_sum + writes,
          "capi-uncontended: value sum does not match the writes");
}

// The C table exposes no stats, so the contended share is measured by the
// same op stream on a stats-enabled LockTable of the same geometry.
double ContendedShareReplay(std::uint64_t seed) {
  cna::locktable::LockTable<cna::RealPlatform, cna::locks::CnaLock<cna::RealPlatform>>
      table({.stripes = kStripes, .collect_stats = true});
  XorShift64 rng = XorShift64::FromSeed(seed);
  for (int i = 0; i < (1 << 18); ++i) {
    const std::uint64_t key = rng.NextBelow(kKeys);
    if (rng.NextBelow(100) < 90) {
      table.Lock(key);
      table.Unlock(key);
    } else {
      const std::uint64_t keys[2] = {key, rng.NextBelow(kKeys)};
      (void)rng.NextBelow(8);  // the transfer amount, unused here
      std::size_t stripes[2];
      table.UnlockStripesN(stripes, table.LockKeysInto(keys, 2, stripes));
    }
  }
  return table.StatsSummary().ContentionRate();
}

}  // namespace

void RunCapiUncontended(const Config& cfg, double seconds, Result& r) {
  std::unique_ptr<CapiState> state;
  const double setup_s = MedianSetupSeconds(
      kSetupReps, [&] { state.reset(); },
      [&] { state = std::make_unique<CapiState>(cfg.seed); });
  r.Check(state->table != nullptr, "capi-uncontended: table creation failed");
  if (state->table == nullptr) {
    return;
  }
  std::vector<CapiWorker> workers;
  workers.emplace_back(*state, cfg.seed);

  if (!cfg.trace) {
    MeasureEndToEnd(workers, /*virtual_sockets=*/1, seconds, setup_s,
                    cna_locktable_state_bytes(state->table), r);
  } else {
    MeasureTraced(workers, /*virtual_sockets=*/1, seconds, r);
    r.Add("locktable.contended_share", ContendedShareReplay(cfg.seed),
          "share");
  }
  CheckConserved(*state, workers, r);
}

}  // namespace perfbench
