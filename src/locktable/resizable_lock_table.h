// ResizableLockTable<P, L>: a lock namespace that reshapes itself under
// load.
//
// Every other table in this subsystem fixes its stripe count at
// construction, forcing the operator to choose between a million-stripe
// 8 MiB table and a contended small one.  This table closes that gap in the
// adaptive spirit of "Avoiding Scalability Collapse by Restricting
// Concurrency": the stripe array is an *immutable snapshot* published
// through an atomic pointer, a resize policy watches the per-stripe
// occupancy/contention counters the tables already collect (table_stats.h),
// and when the observed contention says the namespace is mis-sized the
// array is regrown (or reshrunk) by power-of-two doubling.  Old snapshots
// are reclaimed through the epoch subsystem (epoch/epoch.h) -- the one
// piece of infrastructure dynamic namespaces need and fixed ones do not.
//
// Resize protocol (the per-stripe migration lock-step):
//  1. The resizer (any thread; one at a time via a try-lock) builds the new
//     snapshot B with every stripe marked NOT READY, points B->prev at the
//     current snapshot A, and publishes current_ = B.
//  2. Acquirers always hash through current_: a key's stripe in B may only
//     be locked once its ready flag is set, so post-swap acquirers line up
//     behind the migration of exactly the old stripes their new stripe
//     covers (grow: new stripe s covers old stripe s & old_mask; shrink:
//     new stripe t covers old stripes {t, t + new_n, ...}).
//  3. The resizer walks A's stripes in ascending order, acquiring and
//     releasing each -- the lock-step: acquiring old stripe s waits out
//     every critical section that entered through A -- and sets the ready
//     flags whose covering set has fully drained.  No key's critical
//     section is ever lost: a section that entered through A blocks both
//     the drain of its stripe and, transitively, every B-side acquirer of
//     a stripe covering the same keys.
//  4. When every old stripe has drained, B is marked fully migrated and A
//     is retired through the epoch domain.  Late readers -- threads that
//     loaded current_ == A just before the swap -- acquire, notice the
//     pointer moved (the post-acquisition validation), release, and retry
//     through B; they hold an epoch pin for the whole attempt, so A's
//     memory survives them, and its stats are folded into the table's
//     lifetime accumulators only when the epoch proves nobody is left.
//
// Deadlock note: multi-key transactions must go through
// LockMany/MultiGuard, exactly as with the fixed tables.  During a
// migration two keys collide whenever they collide in *either* the old or
// the new geometry (the union of both stripe maps), so hand-ordered nested
// Lock(key) pairs that were merely fragile on a fixed table are wrong
// here too.
#ifndef CNA_LOCKTABLE_RESIZABLE_LOCK_TABLE_H_
#define CNA_LOCKTABLE_RESIZABLE_LOCK_TABLE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <vector>

#include "base/cacheline.h"
#include "epoch/epoch.h"
#include "locks/lock_api.h"
#include "locktable/lock_table.h"
#include "locktable/stripe_array.h"
#include "locktable/table_stats.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cna::locktable {

// Knobs of the automatic resize policy.  Evaluated every
// check_interval_ops operations per context, on deltas since the previous
// evaluation; set check_interval_ops = 0 to disable automatic resizing
// (manual TryResize stays available).
struct ResizePolicy {
  std::size_t min_stripes = 1;
  std::size_t max_stripes = std::size_t{1} << 20;
  std::uint32_t check_interval_ops = 1024;
  // Require at least this many acquisitions in a sample before acting --
  // sized so a sampled contention probe (stats_probe_period > 1) still sees
  // enough probes for the estimate to be trustworthy.
  std::uint64_t min_sample_ops = 2048;
  // Grow when the contended share of the sample exceeds this...
  double grow_contention = 0.10;
  // ...unless the contention is concentrated on one stripe (a single hot
  // key): more stripes cannot spread a point load, so growth is skipped
  // when the hottest stripe absorbed more than this share of the sample.
  double max_skew_share = 0.5;
  // Shrink when the contended share stayed below this for two consecutive
  // samples (the streak is the hysteresis that stops grow/shrink flapping
  // at a threshold boundary).
  double shrink_contention = 0.01;
};

struct ResizableLockTableOptions {
  // Initial stripe count (rounded up to a power of two).
  std::size_t stripes = 16;
  // Padded by default, unlike the fixed tables: a fixed table keeps its
  // footprint down by packing stripes (kCompact), accepting false sharing
  // between neighbours; the adaptive table keeps its footprint down by
  // *shrinking*, so it spends a line per stripe and the contended regime it
  // grows for is never polluted by neighbour traffic.  (The contention
  // probe cannot see false sharing -- a neighbour-bounced line probes as
  // free -- so packed stripes would also blind the policy to part of the
  // cost it exists to remove.)
  StripePadding padding = StripePadding::kCacheLine;
  ResizePolicy policy;
  // Contention-probe sampling period for the always-on snapshot stats (see
  // LockTableOptions::stats_probe_period): the policy scales the sampled
  // counts back up, so a larger period trades signal latency for less probe
  // traffic on hot stripes.
  std::uint32_t stats_probe_period = 8;
  // Per-stripe wait/hold latency telemetry on every snapshot ("resizable.*"
  // metric names, shared across snapshots -- the registry hands back the
  // same histogram for the same name, so resizes never reset distributions),
  // sampled as LockTableOptions::collect_latency describes.
  bool collect_latency = false;
  // Spin-then-park stripe acquisition at oversubscription (see
  // LockTableOptions::blocking); inherited by every snapshot, so the mode
  // survives resizes.
  bool blocking = false;
};

// Lifetime view across all snapshots, plus the resize/epoch counters the
// stress tests reconcile: every lock-step drain and every validation retry
// is an acquisition somewhere, so
//   total_acquisitions == caller acquisitions + validation_retries
//                         + drained_stripes.
struct ResizableStatsSummary {
  TableStatsSummary locks;  // folded over retired snapshots + current
  std::size_t current_stripes = 0;
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t drained_stripes = 0;     // lock-step acquisitions by resizers
  std::uint64_t validation_retries = 0;  // acquisitions retried on a stale
                                         // snapshot (late readers)
  epoch::DomainStatsSummary epoch;
};

template <typename P, locks::Lockable L>
class ResizableLockTable {
 public:
  using LockType = L;
  static constexpr std::size_t kMaxStripes = StripeArray<L>::kMaxStripes;
  static constexpr std::size_t kInlineTxnKeys =
      LockTable<P, L>::kInlineTxnKeys;

  explicit ResizableLockTable(ResizableLockTableOptions options = {})
      : options_(options) {
    options_.policy.min_stripes =
        std::bit_ceil(std::max<std::size_t>(options_.policy.min_stripes, 1));
    options_.policy.max_stripes = std::bit_ceil(std::min(
        std::max(options_.policy.max_stripes, options_.policy.min_stripes),
        kMaxStripes));
    const std::size_t initial =
        std::min(std::max(std::bit_ceil(std::max<std::size_t>(
                              options_.stripes, 1)),
                          options_.policy.min_stripes),
                 options_.policy.max_stripes);
    current_.store(new Snapshot(this, initial, options_.padding,
                                /*migrating=*/false),
                   std::memory_order_seq_cst);
  }

  // Destruction requires quiescence, like every table here: no concurrent
  // callers.  Retired snapshots still pending in the domain are freed by
  // the domain's destructor (which runs after this body, folding their
  // stats is moot by then but harmless).
  ~ResizableLockTable() {
    domain_.DrainAll();
    delete current_.load(std::memory_order_seq_cst);
  }

  ResizableLockTable(const ResizableLockTable&) = delete;
  ResizableLockTable& operator=(const ResizableLockTable&) = delete;

  // --- Namespace geometry (of the current snapshot; advisory under
  // --- concurrent resizing) ---

  std::size_t stripes() const {
    typename epoch::Domain<P>::Guard g(domain_);
    return current_.load(std::memory_order_seq_cst)->table.stripes();
  }

  std::size_t StripeOf(std::uint64_t key) const {
    typename epoch::Domain<P>::Guard g(domain_);
    return current_.load(std::memory_order_seq_cst)->table.StripeOf(key);
  }

  std::size_t LockStateBytes() const {
    typename epoch::Domain<P>::Guard g(domain_);
    return current_.load(std::memory_order_seq_cst)->table.LockStateBytes();
  }

  static constexpr std::size_t PerStripeStateBytes() { return L::kStateBytes; }

  StripePadding padding() const { return options_.padding; }

  // --- Keyed locking surface ---

  // Lock keeps the epoch pin it takes for the snapshot walk held until the
  // matching Unlock: the pin is one depth bump on a context-private line,
  // and holding it across the critical section is what makes Unlock's walk
  // (and its post-release reads of the snapshot -- see Unlock) safe without
  // a second publish/validate round trip per operation.  The cost is that a
  // critical section stalls reclamation for its duration -- standard EBR,
  // and bounded by the section length.
  void Lock(std::uint64_t key) {
    MaybePolicyTick();
    const int pin = domain_.Pin();
    try {
      for (;;) {
        Snapshot* snap = current_.load(std::memory_order_seq_cst);
        const std::size_t s = snap->table.StripeOf(key);
        WaitReady(*snap, s);
        snap->table.LockStripe(s);
        if (current_.load(std::memory_order_seq_cst) == snap) {
          return;  // pin stays held; Unlock drops it
        }
        // A resize published a new snapshot between our load and our
        // acquisition; the lock-step may already have drained past this
        // stripe, so the acquisition proves nothing.  Release and retry
        // through the new snapshot.
        snap->table.UnlockStripe(s);
        validation_retries_.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      // LockStripe can throw (an overflow ledger node under memory
      // pressure); a leaked pin would block epoch advance -- and thus all
      // reclamation -- forever.
      domain_.Unpin(pin);
      throw;
    }
  }

  bool TryLock(std::uint64_t key) {
    MaybePolicyTick();
    const int pin = domain_.Pin();
    bool ok = false;
    try {
      Snapshot* snap = current_.load(std::memory_order_seq_cst);
      const std::size_t s = snap->table.StripeOf(key);
      ok = IsReady(*snap, s) && snap->table.TryLockStripe(s);
      if (ok && current_.load(std::memory_order_seq_cst) != snap) {
        snap->table.UnlockStripe(s);
        validation_retries_.fetch_add(1, std::memory_order_relaxed);
        ok = false;  // spurious failure during a resize; callers may retry
      }
    } catch (...) {
      domain_.Unpin(pin);  // see Lock
      throw;
    }
    if (!ok) {
      domain_.Unpin(pin);  // on success the pin is held until Unlock
    }
    return ok;
  }

  // Releases the stripe covering `key` in whichever snapshot this context
  // holds it -- the current one, or the one a still-running migration is
  // draining -- and drops the epoch pin the matching Lock left held.
  // Throws std::logic_error if the context holds neither (unlock without a
  // matching lock).
  // That pin is load-bearing past the lock-word release: the held stripe
  // itself blocks every retirement chain (held stripe -> the snapshot
  // cannot finish draining -> the migration cannot complete -> the snapshot
  // is never retired), but only UP TO the release.  What the snapshot's
  // table does after it (reading its blocking flag to wake a parked waiter)
  // would otherwise race the resizer, which can drain the stripe the
  // instant the word is released, complete the migration, retire the
  // snapshot, and reclaim it two epoch advances later.  Held since before
  // the acquisition, the pin keeps the snapshot alive for the whole call.
  // (A caller that violates the unlock-without-lock contract holds no pin:
  // quiescent misuse still throws; misuse racing a resize walks
  // unprotected.)
  void Unlock(std::uint64_t key) {
    Snapshot* snap = current_.load(std::memory_order_seq_cst);
    if (!snap->table.TryUnlockStripe(snap->table.StripeOf(key))) {
      // Not held in the current snapshot: we must have locked through the
      // predecessor of an in-flight migration.
      Snapshot* prev = snap->prev.load(std::memory_order_seq_cst);
      if (prev == nullptr ||
          !prev->table.TryUnlockStripe(prev->table.StripeOf(key))) {
        throw std::logic_error(
            "locktable::ResizableLockTable: Unlock of a key this context "
            "does not hold");
      }
    }
    domain_.UnpinThisContext();
  }

  // --- Multi-key transactions (deadlock-free, all on one snapshot) ---

  // A transaction may span at most this many distinct stripes: LockMany
  // leaves one 16-bit pin depth per held stripe (see below), so the bound
  // keeps even absurd transactions -- plus nested pins -- far from
  // overflowing the depth field into the slot's epoch bits.  Exceeding it
  // throws std::length_error (EINVAL through the C API).
  static constexpr std::size_t kMaxTxnStripes = std::size_t{1} << 14;

  // LockMany leaves ONE pin depth per distinct stripe held (Pin for the
  // first, PinExtra for the rest): every stripe release -- via UnlockMany
  // or via per-key Unlock, in any order -- then pairs with exactly one
  // depth decrement, so mixed release styles keep the pin accounting
  // balanced.
  void LockMany(const std::uint64_t* keys, std::size_t count) {
    if (count == 0) {
      return;
    }
    MaybePolicyTick();
    std::size_t inline_buf[kInlineTxnKeys];
    std::vector<std::size_t> overflow;
    std::size_t* out = inline_buf;
    if (count > kInlineTxnKeys) {
      overflow.resize(count);
      out = overflow.data();
    }
    const int pin = domain_.Pin();
    for (;;) {
      Snapshot* snap = current_.load(std::memory_order_seq_cst);
      const std::size_t n =
          snap->table.DistinctStripesInto(keys, count, out);
      std::size_t taken = 0;
      try {
        if (n > kMaxTxnStripes) {
          throw std::length_error(
              "locktable::ResizableLockTable: LockMany transaction spans "
              "too many distinct stripes");
        }
        for (; taken < n; ++taken) {
          WaitReady(*snap, out[taken]);
          snap->table.LockStripe(out[taken]);
        }
      } catch (...) {
        snap->table.UnlockStripesN(out, taken);
        domain_.Unpin(pin);
        throw;
      }
      if (current_.load(std::memory_order_seq_cst) == snap) {
        domain_.PinExtra(pin, n - 1);  // one held depth per held stripe
        return;
      }
      snap->table.UnlockStripesN(out, n);
      validation_retries_.fetch_add(n, std::memory_order_relaxed);
    }
  }

  // Checked release of a key set locked by LockMany: all its stripes live
  // on one snapshot, found the same way as in Unlock and protected by the
  // pin depths LockMany left held (dropped here, one per released stripe).
  void UnlockMany(const std::uint64_t* keys, std::size_t count) {
    if (count == 0) {
      return;
    }
    Snapshot* snap = current_.load(std::memory_order_seq_cst);
    if (!snap->table.HoldsStripe(snap->table.StripeOf(keys[0]))) {
      Snapshot* prev = snap->prev.load(std::memory_order_seq_cst);
      if (prev == nullptr ||
          !prev->table.HoldsStripe(prev->table.StripeOf(keys[0]))) {
        throw std::logic_error(
            "locktable::ResizableLockTable: UnlockMany of keys this "
            "context does not hold");
      }
      snap = prev;
    }
    std::size_t inline_buf[kInlineTxnKeys];
    std::vector<std::size_t> overflow;
    std::size_t* out = inline_buf;
    if (count > kInlineTxnKeys) {
      overflow.resize(count);
      out = overflow.data();
    }
    const std::size_t n = snap->table.DistinctStripesInto(keys, count, out);
    snap->table.UnlockKeys(keys, count);
    domain_.UnpinN(domain_.SlotOfThisContext(), n);
  }

  // --- RAII surfaces ---

  class Guard {
   public:
    Guard(ResizableLockTable& table, std::uint64_t key)
        : table_(table), key_(key) {
      table_.Lock(key_);
    }
    ~Guard() { table_.Unlock(key_); }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    ResizableLockTable& table_;
    std::uint64_t key_;
  };

  class MultiGuard {
   public:
    MultiGuard(ResizableLockTable& table,
               std::initializer_list<std::uint64_t> keys)
        : MultiGuard(table, keys.begin(), keys.size()) {}
    // Heap-free up to kInlineTxnKeys keys, like the fixed tables' guards
    // (the keys themselves are kept -- not just the stripes -- because the
    // release must re-resolve them against whichever snapshot holds them).
    MultiGuard(ResizableLockTable& table, const std::uint64_t* keys,
               std::size_t count)
        : table_(table), count_(count) {
      std::uint64_t* dst = inline_;
      if (count_ > kInlineTxnKeys) {
        overflow_.resize(count_);
        dst = overflow_.data();
      }
      std::copy(keys, keys + count_, dst);
      table_.LockMany(dst, count_);
    }
    ~MultiGuard() { table_.UnlockMany(data(), count_); }

    MultiGuard(const MultiGuard&) = delete;
    MultiGuard& operator=(const MultiGuard&) = delete;

   private:
    const std::uint64_t* data() const {
      return overflow_.empty() ? inline_ : overflow_.data();
    }

    ResizableLockTable& table_;
    std::uint64_t inline_[kInlineTxnKeys];
    std::vector<std::uint64_t> overflow_;
    std::size_t count_;
  };

  // --- Resizing ---

  // One resize attempt to exactly `new_stripes` (rounded to the policy's
  // power-of-two bounds).  Returns false without waiting if another resize
  // is in flight or the size would not change.  Callers may hold no
  // stripes of this table (the lock-step would self-deadlock).
  bool TryResize(std::size_t new_stripes) {
    if (resize_busy_.test_and_set(std::memory_order_acquire)) {
      return false;
    }
    ResizeBusyClearer clearer(resize_busy_);
    return ResizeLocked(new_stripes);
  }

  // --- Statistics / diagnostics ---

  // Stats of the current snapshot (since the last resize).
  TableStatsSummary SnapshotSummary() const {
    typename epoch::Domain<P>::Guard g(domain_);
    return current_.load(std::memory_order_seq_cst)->table.StatsSummary();
  }

  // Lifetime stats across every snapshot whose memory has been reclaimed
  // plus the current one; see ResizableStatsSummary for the conservation
  // identity the counters satisfy.
  ResizableStatsSummary Summary() const {
    ResizableStatsSummary out;
    {
      typename epoch::Domain<P>::Guard g(domain_);
      Snapshot* snap = current_.load(std::memory_order_seq_cst);
      out.locks = snap->table.StatsSummary();
      out.current_stripes = snap->table.stripes();
    }
    out.locks.total_acquisitions +=
        retired_acquisitions_.load(std::memory_order_relaxed);
    out.locks.contended_acquisitions +=
        retired_contended_.load(std::memory_order_relaxed);
    out.locks.trylock_failures +=
        retired_trylock_failures_.load(std::memory_order_relaxed);
    out.locks.multi_key_acquisitions +=
        retired_multi_key_.load(std::memory_order_relaxed);
    out.grows = grows_.load(std::memory_order_relaxed);
    out.shrinks = shrinks_.load(std::memory_order_relaxed);
    out.drained_stripes = drained_stripes_.load(std::memory_order_relaxed);
    out.validation_retries =
        validation_retries_.load(std::memory_order_relaxed);
    out.epoch = domain_.StatsSummary();
    return out;
  }

  epoch::Domain<P>& domain() { return domain_; }
  const ResizePolicy& policy() const { return options_.policy; }

  std::size_t HeldByThisContext() const {
    typename epoch::Domain<P>::Guard g(domain_);
    Snapshot* snap = current_.load(std::memory_order_seq_cst);
    std::size_t held = snap->table.HeldByThisContext();
    if (Snapshot* prev = snap->prev.load(std::memory_order_seq_cst)) {
      held += prev->table.HeldByThisContext();
    }
    return held;
  }

 private:
  struct Snapshot {
    Snapshot(ResizableLockTable* owner_table, std::size_t stripes,
             StripePadding padding, bool migrating)
        : owner(owner_table),
          table({.stripes = stripes,
                 .padding = padding,
                 .collect_stats = true,
                 .stats_probe_period =
                     owner_table->options_.stats_probe_period,
                 .collect_latency = owner_table->options_.collect_latency,
                 .metrics_name = "resizable",
                 .blocking = owner_table->options_.blocking}) {
      if (migrating) {
        ready.reset(
            new typename P::template Atomic<std::uint32_t>[table.stripes()]);
        for (std::size_t s = 0; s < table.stripes(); ++s) {
          ready[s].store(0, std::memory_order_relaxed);
        }
        migration_done.store(0, std::memory_order_seq_cst);
      }
    }

    ResizableLockTable* owner;
    LockTable<P, L> table;
    // Set while a migration into this snapshot is still draining the
    // predecessor; stripe s may be locked only once ready[s] != 0.
    std::unique_ptr<typename P::template Atomic<std::uint32_t>[]> ready;
    typename P::template Atomic<std::uint32_t> migration_done{1};
    // The snapshot being drained into this one; null once migration
    // completed (and from then on forever).
    typename P::template Atomic<Snapshot*> prev{nullptr};
  };

  // Epoch deleter for retired snapshots: runs only when no context can
  // still touch the snapshot, so its stats are final -- fold them into the
  // lifetime accumulators, then free.
  static void RetireSnapshot(void* p) {
    Snapshot* snap = static_cast<Snapshot*>(p);
    const TableStatsSummary s = snap->table.StatsSummary();
    ResizableLockTable* owner = snap->owner;
    owner->retired_acquisitions_.fetch_add(s.total_acquisitions,
                                           std::memory_order_relaxed);
    owner->retired_contended_.fetch_add(s.contended_acquisitions,
                                        std::memory_order_relaxed);
    owner->retired_trylock_failures_.fetch_add(s.trylock_failures,
                                               std::memory_order_relaxed);
    owner->retired_multi_key_.fetch_add(s.multi_key_acquisitions,
                                        std::memory_order_relaxed);
    delete snap;
  }

  bool IsReady(Snapshot& snap, std::size_t s) const {
    if (snap.migration_done.load(std::memory_order_seq_cst) != 0) {
      return true;
    }
    return snap.ready[s].load(std::memory_order_seq_cst) != 0;
  }

  void WaitReady(Snapshot& snap, std::size_t s) {
    if (snap.migration_done.load(std::memory_order_seq_cst) != 0) {
      return;
    }
    while (snap.ready[s].load(std::memory_order_seq_cst) == 0) {
      P::Pause();
    }
  }

  // The resize body; caller holds resize_busy_.  Builds the new snapshot,
  // publishes it, runs the lock-step drain, retires the old one.
  bool ResizeLocked(std::size_t new_stripes) {
    new_stripes =
        std::min(std::max(std::bit_ceil(std::max<std::size_t>(new_stripes, 1)),
                          options_.policy.min_stripes),
                 options_.policy.max_stripes);
    Snapshot* old_snap = current_.load(std::memory_order_seq_cst);
    const std::size_t old_n = old_snap->table.stripes();
    if (new_stripes == old_n) {
      return false;
    }
    Snapshot* next =
        new Snapshot(this, new_stripes, options_.padding, /*migrating=*/true);
    // Pre-warm the resizer's ledger against the old snapshot BEFORE
    // publishing anything: a context's first acquisition builds its ledger,
    // and one nested past the ledger's inline nodes allocates an overflow
    // node -- either can throw bad_alloc, and up to here a throw is a clean
    // rollback (nothing published, just delete the unobserved snapshot).
    // After it the ledger has a free node at the resizer's nesting depth
    // and the resizer checks out at most one at a time, so the post-publish
    // drains below allocate nothing -- once current_ moves there is no
    // aborting a migration halfway (acquirers may already hold stripes of
    // `next`; see DrainOldStripeNofail).
    try {
      DrainOldStripe(*old_snap, 0);
    } catch (...) {
      delete next;
      throw;
    }
    next->prev.store(old_snap, std::memory_order_seq_cst);
    current_.store(next, std::memory_order_seq_cst);
    // Drain latency: publish-to-migration-done, the window in which late
    // readers can still take the validation-retry path.
    const std::uint64_t drain_t0 =
        telemetry::Enabled() ? telemetry::NowNs() : 0;
    telemetry::TraceEmit(telemetry::TraceEventType::kResizeBegin,
                         P::CurrentSocket(), P::CpuId(),
                         /*arg=*/new_stripes);

    const std::size_t new_n = next->table.stripes();
    if (new_n > old_n) {
      // Grow: new stripe s covers old stripe s & (old_n - 1); once old
      // stripe s drains, all new stripes congruent to it mod old_n open.
      for (std::size_t s = 0; s < old_n; ++s) {
        DrainOldStripeNofail(*old_snap, s);
        for (std::size_t t = s; t < new_n; t += old_n) {
          next->ready[t].store(1, std::memory_order_seq_cst);
        }
      }
    } else {
      // Shrink: new stripe t covers old stripes {t, t + new_n, ...}; the
      // ascending drain reaches the last of them at s = t + old_n - new_n.
      for (std::size_t s = 0; s < old_n; ++s) {
        DrainOldStripeNofail(*old_snap, s);
        if (s + new_n >= old_n) {
          next->ready[s + new_n - old_n].store(1, std::memory_order_seq_cst);
        }
      }
    }
    next->migration_done.store(1, std::memory_order_seq_cst);
    next->prev.store(nullptr, std::memory_order_seq_cst);
    if (drain_t0 != 0) {
      const std::uint64_t drained = telemetry::NowNs() - drain_t0;
      telemetry::ResizeDrainHistogram().RecordAt(P::CurrentSocket(),
                                                 P::CpuId(), drained);
      telemetry::TraceEmit(telemetry::TraceEventType::kResizeEnd,
                           P::CurrentSocket(), P::CpuId(),
                           /*arg=*/new_stripes, /*dur_ns=*/drained,
                           /*ts_ns=*/drain_t0);
    }
    (new_n > old_n ? grows_ : shrinks_)
        .fetch_add(1, std::memory_order_relaxed);
    domain_.Retire(old_snap, &RetireSnapshot);
    // Fresh snapshot, fresh policy sample.
    last_acquisitions_ = 0;
    last_contended_ = 0;
    last_max_stripe_ = 0;
    quiet_streak_ = 0;
    return true;
  }

  // The lock-step: acquiring an old stripe waits out every critical section
  // that entered through the old snapshot; releasing it immediately keeps
  // the resizer holding at most one stripe (no deadlock against multi-key
  // transactions, which order their stripes ascending like this walk).
  void DrainOldStripe(Snapshot& old_snap, std::size_t s) {
    old_snap.table.LockStripe(s);
    old_snap.table.UnlockStripe(s);
    drained_stripes_.fetch_add(1, std::memory_order_relaxed);
  }

  // Drain for the post-publish phase of a migration, where an escaping
  // exception would abandon the lock-step half-done: never-set ready flags
  // would park acquirers forever, and a later resize draining the
  // half-migrated snapshot directly would open stripes over still-running
  // old critical sections (mutual exclusion lost).  The pre-warm in
  // ResizeLocked makes allocation failure here unreachable in practice;
  // should an exception occur anyway, retrying (with a polite pause) is
  // the only completion that preserves the migration invariants.
  void DrainOldStripeNofail(Snapshot& old_snap, std::size_t s) {
    for (;;) {
      try {
        DrainOldStripe(old_snap, s);
        return;
      } catch (...) {
        P::Pause();
      }
    }
  }

  // --- Automatic policy ---

  void MaybePolicyTick() {
    const std::uint32_t interval = options_.policy.check_interval_ops;
    if (interval == 0) {
      return;
    }
    OpCounter& c =
        op_counters_[static_cast<std::size_t>(P::CpuId()) % kMaxContexts];
    if (c.count.fetch_add(1, std::memory_order_relaxed) % interval !=
        interval - 1) {
      return;
    }
    // Epoch maintenance rides the tick: retired snapshots need *somebody*
    // to keep advancing the epoch past the pins that were live at retire
    // time, and the tick is the natural heartbeat (any context, never
    // pinned here, amortized over check_interval_ops operations).
    if (domain_.Pending() != 0) {
      domain_.TryAdvance();
      domain_.ReclaimQuiesced();
    }
    if (resize_busy_.test_and_set(std::memory_order_acquire)) {
      return;  // a resize (or another evaluation) is already in flight
    }
    ResizeBusyClearer clearer(resize_busy_);
    EvaluatePolicyLocked();
  }

  // Policy body; caller holds resize_busy_.  Works on the delta of the
  // current snapshot's counters since the previous evaluation.
  void EvaluatePolicyLocked() {
    TableStatsSummary summary;
    std::size_t stripes_now;
    {
      typename epoch::Domain<P>::Guard g(domain_);
      Snapshot* snap = current_.load(std::memory_order_seq_cst);
      summary = snap->table.StatsSummary();
      stripes_now = snap->table.stripes();
    }
    const std::uint64_t delta_acq =
        summary.total_acquisitions - last_acquisitions_;
    if (delta_acq < options_.policy.min_sample_ops) {
      // Too small to act on -- and NOT consumed: the baseline stays put so
      // successive evaluations accumulate one big-enough sample.  (Ticks
      // fire about every check_interval_ops global acquisitions; consuming
      // undersized samples here would mean a min_sample_ops above the tick
      // interval could never be reached and the policy would silently never
      // act.)
      return;
    }
    const std::uint64_t delta_cont =
        summary.contended_acquisitions - last_contended_;
    // Hottest-stripe share of the sample, approximated with the cumulative
    // hottest stripe's growth (exact when the hottest stripe is stable,
    // which is when the skew gate matters).
    const std::uint64_t delta_max =
        summary.max_stripe_acquisitions > last_max_stripe_
            ? summary.max_stripe_acquisitions - last_max_stripe_
            : 0;
    last_acquisitions_ = summary.total_acquisitions;
    last_contended_ = summary.contended_acquisitions;
    last_max_stripe_ = summary.max_stripe_acquisitions;
    // `contended` is a sampled count; scale by the EFFECTIVE probe period
    // -- LockTable rounds stats_probe_period up to a power of two, so
    // scaling by the raw option would underestimate contention for
    // non-power-of-two settings.
    const double contention =
        static_cast<double>(delta_cont) *
        static_cast<double>(std::bit_ceil(std::max<std::uint32_t>(
            options_.stats_probe_period, 1))) /
        static_cast<double>(delta_acq);
    const double skew =
        static_cast<double>(delta_max) / static_cast<double>(delta_acq);
    if (contention > options_.policy.grow_contention) {
      quiet_streak_ = 0;
      if (skew <= options_.policy.max_skew_share &&
          stripes_now < options_.policy.max_stripes) {
        ResizeLocked(stripes_now * 2);
      }
      return;
    }
    if (contention < options_.policy.shrink_contention &&
        stripes_now > options_.policy.min_stripes) {
      if (++quiet_streak_ >= 2) {
        ResizeLocked(stripes_now / 2);
      }
      return;
    }
    quiet_streak_ = 0;
  }

  struct alignas(kCacheLineSize) OpCounter {
    std::atomic<std::uint64_t> count{0};
  };

  // RAII release of resize_busy_: ResizeLocked allocates a full stripe
  // array and can throw; a set-and-forget flag would leave resizing
  // silently disabled for the table's remaining lifetime.
  class ResizeBusyClearer {
   public:
    explicit ResizeBusyClearer(std::atomic_flag& flag) : flag_(flag) {}
    ~ResizeBusyClearer() { flag_.clear(std::memory_order_release); }
    ResizeBusyClearer(const ResizeBusyClearer&) = delete;
    ResizeBusyClearer& operator=(const ResizeBusyClearer&) = delete;

   private:
    std::atomic_flag& flag_;
  };

  static constexpr std::size_t kMaxContexts = 1024;

  ResizableLockTableOptions options_;
  typename P::template Atomic<Snapshot*> current_{nullptr};

  // Resize serialization + policy state (guarded by resize_busy_).
  std::atomic_flag resize_busy_ = ATOMIC_FLAG_INIT;
  std::uint64_t last_acquisitions_ = 0;
  std::uint64_t last_contended_ = 0;
  std::uint64_t last_max_stripe_ = 0;
  int quiet_streak_ = 0;

  // Lifetime accumulators (plain atomics, telemetry/metrics.h convention).
  std::atomic<std::uint64_t> retired_acquisitions_{0};
  std::atomic<std::uint64_t> retired_contended_{0};
  std::atomic<std::uint64_t> retired_trylock_failures_{0};
  std::atomic<std::uint64_t> retired_multi_key_{0};
  std::atomic<std::uint64_t> grows_{0};
  std::atomic<std::uint64_t> shrinks_{0};
  std::atomic<std::uint64_t> drained_stripes_{0};
  std::atomic<std::uint64_t> validation_retries_{0};

  std::unique_ptr<OpCounter[]> op_counters_{new OpCounter[kMaxContexts]};

  // Declared LAST so it is destroyed FIRST: ~Domain frees any snapshot
  // still pending (leaked pins, misuse), and its RetireSnapshot deleter
  // folds that snapshot's stats into the retired_* accumulators above --
  // which must therefore still be alive when the domain dies.  Mutable
  // because pinning is how even const readers keep the current snapshot
  // alive.
  mutable epoch::Domain<P> domain_;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_RESIZABLE_LOCK_TABLE_H_
