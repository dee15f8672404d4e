// locktorture: reproduction of the kernel's lock torture test module
// (Section 7.2.1, Figures 13 and 14).
//
// Per the kernel documentation quoted in the paper: N threads "repeatedly
// acquire and release the lock, with occasional short delays ('to emulate
// likely code') and occasional long delays ('to force massive contention')
// inside the critical section".  The `lockstat` option reproduces the paper's
// second configuration: after each acquisition, several shared variables are
// updated (last CPU, last owner, hold counters), adding critical-section data
// traffic -- which is what widens the CNA-vs-stock gap in Figures 13(b)/14(b).
#ifndef CNA_KERNEL_LOCKTORTURE_H_
#define CNA_KERNEL_LOCKTORTURE_H_

#include <atomic>
#include <cstdint>

#include "locks/gcr.h"
#include "locks/lock_api.h"
#include "locktable/combining.h"
#include "qspin/qspinlock.h"

namespace cna::kernel {

struct LockTortureOptions {
  // Mean short in-critical-section delay ("emulate likely code").
  std::uint64_t short_delay_ns = 500;
  // Long delay applied once every `long_delay_period` acquisitions ("force
  // massive contention"); the kernel uses a similar rare-long-hold pattern.
  std::uint64_t long_delay_ns = 20'000;
  std::uint64_t long_delay_period = 2'000;
  // lockstat instrumentation compiled in: update shared statistics after
  // each acquisition (Figures 13(b)/14(b)).
  bool lockstat = false;
  // Number of shared statistic variables lockstat touches per acquisition.
  int lockstat_lines = 3;
};

namespace detail {

constexpr std::uint64_t kTortureStatBaseId = 3u << 20;

// The lock_torture_writer critical-section body, shared by the raw-lock and
// combining tortures so the two modes always exercise the same mix:
// lockstat's post-acquisition bookkeeping (writes to shared variables, e.g.
// tracking the last CPU a lock was acquired on), then the rare long delay or
// the random short delay ("emulate likely code").  `iteration` is the
// caller's private acquisition counter (used for the rare long delay).
template <typename P>
void TortureCsBody(const LockTortureOptions& options,
                   std::uint64_t iteration) {
  if (options.lockstat) {
    for (int i = 0; i < options.lockstat_lines; ++i) {
      P::OnDataAccess(kTortureStatBaseId + static_cast<std::uint64_t>(i),
                      /*write=*/true);
    }
  }
  if (options.long_delay_period != 0 &&
      iteration % options.long_delay_period ==
          options.long_delay_period - 1) {
    P::ExternalWork(options.long_delay_ns);
  } else {
    // Uniform around the mean, like the module's random short udelay.
    const std::uint64_t d = options.short_delay_ns;
    P::ExternalWork(d / 2 + P::Random() % (d + 1));
  }
}

}  // namespace detail

// One torture instance: a single spin lock of the selected slow-path kind
// plus the stat lines lockstat perturbs.
template <typename P, qspin::SlowPathKind K>
class LockTorture {
 public:
  explicit LockTorture(LockTortureOptions options) : options_(options) {}

  LockTorture(const LockTorture&) = delete;
  LockTorture& operator=(const LockTorture&) = delete;

  // One lock_torture_writer iteration.
  void WriterOp(std::uint64_t iteration) {
    lock_.Lock();
    detail::TortureCsBody<P>(options_, iteration);
    lock_.Unlock();
  }

  qspin::QSpinLock<P, K>& lock() { return lock_; }

 private:
  LockTortureOptions options_;
  qspin::QSpinLock<P, K> lock_;
};

// Combining-mode torture: the same writer mix, but the critical section is
// published as a closure against a flat-combining table (combining.h)
// instead of acquired through a raw lock.  A handful of stripes keeps every
// stripe hot, so the torture exercises exactly the machinery the raw-lock
// torture cannot: combiner handoff, publication-list drains, and budget
// cutoffs under the kernel module's delay pattern.
template <typename P, locks::TryLockable L>
class CombiningLockTorture {
 public:
  CombiningLockTorture(LockTortureOptions options, std::size_t stripes,
                       std::size_t combining_budget = 64)
      : options_(options),
        table_({.stripes = stripes,
                .collect_stats = true,
                .combining_budget = combining_budget}) {}

  CombiningLockTorture(const CombiningLockTorture&) = delete;
  CombiningLockTorture& operator=(const CombiningLockTorture&) = delete;

  // One lock_torture_writer iteration, batched through key's stripe.  The
  // same critical-section body as LockTorture runs inside the published
  // closure, i.e. possibly on a combiner -- the worst case for combiner
  // servitude, which is what the budget bounds.
  void WriterOp(std::uint64_t iteration, std::uint64_t key) {
    table_.Apply(key, [this, iteration] {
      detail::TortureCsBody<P>(options_, iteration);
      ops_applied_.fetch_add(1, std::memory_order_relaxed);
    });
  }

  // Total closures applied.  Plain std::atomic (never P::Atomic), following
  // the telemetry/metrics.h diagnostics convention: the simulator charges
  // nothing for it, and closures on different stripes may run concurrently
  // on real threads.
  std::uint64_t OpsApplied() const {
    return ops_applied_.load(std::memory_order_relaxed);
  }

  locktable::CombiningTable<P, L>& table() { return table_; }

 private:
  LockTortureOptions options_;
  locktable::CombiningTable<P, L> table_;
  std::atomic<std::uint64_t> ops_applied_{0};
};

// Saturation-mode torture: the same writer mix against a GCR-wrapped lock
// (locks/gcr.h), modeling the regime locktorture's "massive contention"
// delays are meant to force.  Every writer iteration goes through the
// restriction layer, so an engaged torture exercises passivation, per-socket
// admission, forced rotation, and the engage/disengage flips themselves when
// the caller toggles mid-run -- the paths a saturated production lock leans
// on.  Accounting invariant for tests: every acquisition is exactly one of
// direct or passivated-then-admitted (GcrCountersSnapshot::total()).
template <typename P, locks::Lockable L>
class GcrLockTorture {
 public:
  explicit GcrLockTorture(LockTortureOptions options,
                          std::uint32_t active_limit = 2)
      : options_(options) {
    lock_.SetActiveLimit(active_limit);
  }

  GcrLockTorture(const GcrLockTorture&) = delete;
  GcrLockTorture& operator=(const GcrLockTorture&) = delete;

  // One lock_torture_writer iteration through the restriction layer.
  void WriterOp(std::uint64_t iteration) {
    typename locks::GcrLock<P, L>::Handle h;
    lock_.Lock(h);
    detail::TortureCsBody<P>(options_, iteration);
    ops_.fetch_add(1, std::memory_order_relaxed);
    lock_.Unlock(h);
  }

  void Engage() { lock_.Engage(); }
  void Disengage() { lock_.Disengage(); }

  // Plain std::atomic, diagnostics convention (see CombiningLockTorture).
  std::uint64_t Ops() const { return ops_.load(std::memory_order_relaxed); }

  locks::GcrLock<P, L>& lock() { return lock_; }

 private:
  LockTortureOptions options_;
  locks::GcrLock<P, L> lock_;
  std::atomic<std::uint64_t> ops_{0};
};

}  // namespace cna::kernel

#endif  // CNA_KERNEL_LOCKTORTURE_H_
