// LockTable<P, L>: a futex-style dynamic lock namespace over one-word locks.
//
// The paper's headline claim is that CNA's shared state is a *single word*,
// which makes it cheap enough to embed a NUMA-aware lock in every fine-
// grained object -- the argument behind per-object lock words in Compact Java
// Monitors and behind Linux's 4-byte qspinlock.  This subsystem exercises
// that claim at scale: it hashes arbitrary 64-bit keys onto a power-of-two
// array of lock stripes, the way the kernel's futex table hashes user
// addresses onto its hash-bucket locks.  With the default compact layout a
// million-stripe CNA table costs exactly one word per stripe (8 MiB total) --
// the same namespace built from cohort or HMCS locks would need O(sockets)
// cache lines per stripe, two orders of magnitude more.
//
// Surface:
//  * Lock(key)/TryLock(key)/Unlock(key) -- handle-free locking; the calling
//    context's held-lock ledger (held_ledger.h) supplies the queue nodes.
//  * Guard        -- RAII single-key critical section.
//  * MultiGuard   -- acquires several keys' stripes in ascending stripe order
//    (deduplicated), giving deadlock-free multi-key transactions; releases in
//    descending order.
//  * Per-stripe occupancy/contention counters (table_stats.h), off by
//    default so the fast path carries zero instrumentation.
//
// Layout: stripes are packed at sizeof(L) by default (kCompact -- the space
// claim), or padded to a cache line each (kCacheLine) when the caller prefers
// to spend memory to rule out false sharing between neighbouring stripes of a
// small, hot table.
#ifndef CNA_LOCKTABLE_LOCK_TABLE_H_
#define CNA_LOCKTABLE_LOCK_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "locks/lock_api.h"
#include "locktable/held_ledger.h"
#include "locktable/stripe_array.h"
#include "locktable/table_latency.h"
#include "locktable/table_stats.h"
#include "parking/parking_lot.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"

namespace cna::locktable {

struct LockTableOptions {
  // Rounded up to the next power of two; 0 is treated as 1.
  std::size_t stripes = 1024;
  StripePadding padding = StripePadding::kCompact;
  // Allocates the per-stripe counter array and enables counting (the lock
  // words themselves stay untouched; see table_stats.h).
  bool collect_stats = false;
  // Contention sampling: stats mode detects a contended acquisition with a
  // try-lock probe, which costs one extra RMW on the (by definition hot)
  // lock word.  With period N > 1 only ~1/N of acquisitions probe -- chosen
  // by the context-local PRNG, so no shared state -- and `contended` counts
  // become a 1/N sample (multiply by the period to estimate the true rate;
  // the resize policy does).  1 probes every acquisition (exact counts,
  // the historical behavior).  Rounded up to a power of two.
  std::uint32_t stats_probe_period = 1;
  // Acquisition/hold latency telemetry: registers "<metrics_name>.wait_ns"
  // and "<metrics_name>.hold_ns" histograms in the global telemetry registry
  // (src/telemetry/) and records into them whenever telemetry::Enabled().
  // Off by default: the lock path carries no timing code.  nullptr picks the
  // table flavor's default prefix ("locktable", "rwtable", "combining").
  bool collect_latency = false;
  const char* metrics_name = nullptr;
  // Spin-then-park blocking at oversubscription: acquisitions try-lock for a
  // bounded spin budget, then park in the global parking lot
  // (src/parking/parking_lot.h) keyed by the stripe's lock, and each release
  // wakes one parked waiter preferring the releasing socket -- CNA's
  // socket-local handoff carried into the blocking layer.  Locks that manage
  // their own blocking (BlockingConfigurable, e.g. GcrLock's passive lists)
  // get the flag forwarded instead.  Off by default: the spinning fast path
  // is untouched.
  bool blocking = false;
};

template <typename P, locks::Lockable L>
class LockTable {
 public:
  using LockType = L;
  using Handle = typename L::Handle;
  // Shared by every table and mutex over L in one execution context.
  using Ledger = HeldLedger<Handle>;

  // Upper bound on the namespace (see StripeArray).
  static constexpr std::size_t kMaxStripes = StripeArray<L>::kMaxStripes;

  // Multi-key transactions up to this many keys run heap-free (inline stripe
  // sets in MultiGuard, UnlockKeys, and the type-erased adapter).
  static constexpr std::size_t kInlineTxnKeys = 8;

  explicit LockTable(LockTableOptions options = {})
      : array_(options.stripes, options.padding),
        probe_mask_(std::bit_ceil(std::max<std::uint32_t>(
                        options.stats_probe_period, 1)) -
                    1),
        blocking_(options.blocking),
        lockdep_cls_(telemetry::lockdep::InternClass(
            std::string(options.metrics_name == nullptr
                            ? "locktable"
                            : options.metrics_name) +
            "/stripe")) {
    if (options.collect_stats) {
      stats_.Enable(array_.stripes());
    }
    if (options.collect_latency) {
      lat_ = std::make_unique<TableLatency>(
          options.metrics_name == nullptr ? "locktable"
                                          : options.metrics_name);
    }
    if constexpr (locks::BlockingConfigurable<L>) {
      if (blocking_) {
        for (std::size_t s = 0; s < array_.stripes(); ++s) {
          array_.Stripe(s).SetBlocking(true);
        }
      }
    }
  }

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  // --- Namespace geometry (see stripe_array.h) ---

  std::size_t stripes() const { return array_.stripes(); }
  StripePadding padding() const { return array_.padding(); }

  std::size_t StripeOf(std::uint64_t key) const {
    return array_.StripeOf(key);
  }

  // Total bytes of shared lock state backing the namespace -- the quantity
  // the paper's compactness argument is about.  One-word locks in compact
  // layout: stripes * 8 bytes (a 1M-stripe CNA table is exactly 8 MiB).
  std::size_t LockStateBytes() const { return array_.LockStateBytes(); }
  static constexpr std::size_t PerStripeStateBytes() { return L::kStateBytes; }

  L& StripeLock(std::size_t s) { return array_.Stripe(s); }

  // --- Handle-free locking surface ---

  void Lock(std::uint64_t key) { LockStripe(StripeOf(key)); }
  void Unlock(std::uint64_t key) { UnlockStripe(StripeOf(key)); }
  bool TryLock(std::uint64_t key) { return TryLockStripe(StripeOf(key)); }

  void LockStripe(std::size_t s) { AcquireStripe(s, /*multi_key=*/false); }

  bool TryLockStripe(std::size_t s) {
    static_assert(locks::TryLockable<L>,
                  "TryLock requires a lock with a try-lock path");
    Ledger& ledger = ContextLedger();
    L& lock = StripeLock(s);
    typename Ledger::Held& held = ledger.Checkout(&lock);
    if (lock.TryLock(*held.node)) {
      stats_.OnAcquire(s, /*was_contended=*/false, /*multi_key=*/false);
      if (lat_ != nullptr && telemetry::Enabled()) {
        held.acquire_ns = P::NowNs();
      }
      LockdepAcquired(s, /*trylock=*/true, /*multi_key=*/false, 0);
      return true;
    }
    stats_.OnTryLockFailure(s);
    ledger.Cancel();
    return false;
  }

  // Throws std::logic_error if this context does not hold stripe `s`.
  void UnlockStripe(std::size_t s) {
    if (!TryUnlockStripe(s)) {
      throw std::logic_error(
          "locktable::LockTable: unlock of a stripe this context does not "
          "hold");
    }
  }

  // UnlockStripe() that reports "not held by this context" as false instead
  // of throwing, for callers that must probe several tables for the holder
  // (the resizable table's Unlock walking current snapshot then migration
  // predecessor).
  bool TryUnlockStripe(std::size_t s) {
    Ledger& ledger = ContextLedger();
    L& lock = StripeLock(s);
    const std::size_t i = ledger.Find(&lock);
    if (i == Ledger::kNotHeld) {
      return false;
    }
    RecordHold(ledger.At(i).acquire_ns);
    LockdepReleased(s);
    lock.Unlock(*ledger.At(i).node);
    ledger.Release(i);
    UnparkAfterRelease(s);
    return true;
  }

  // --- Multi-key acquisition (used by MultiGuard and the C surface) ---
  //
  // Locks the distinct stripes of keys[0..count) in ascending stripe order;
  // every multi-key transaction ordering its acquisitions this way makes the
  // lock order a total order, so transactions cannot deadlock against each
  // other.  Duplicate keys and distinct keys that collide on one stripe
  // acquire that stripe once.
  //
  // The *Into primitives work in caller-provided storage (capacity >= count)
  // so small transactions -- the common 2-key case -- stay heap-free.

  // Writes the sorted distinct stripes of the key set into out[]; returns how
  // many there are (<= count).
  std::size_t DistinctStripesInto(const std::uint64_t* keys, std::size_t count,
                                  std::size_t* out) const {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = StripeOf(keys[i]);
    }
    std::sort(out, out + count);
    return static_cast<std::size_t>(std::unique(out, out + count) - out);
  }

  // Locks the key set's stripes (ascending); writes them into out[] and
  // returns how many.  Pass out[0..n) to UnlockStripesN() to release.
  // All-or-nothing: if a mid-transaction acquisition throws (an overflow
  // ledger node under memory pressure), the stripes already taken are released
  // before the exception propagates, so the caller never holds a partial
  // transaction it cannot identify.
  std::size_t LockKeysInto(const std::uint64_t* keys, std::size_t count,
                           std::size_t* out) {
    const std::size_t n = DistinctStripesInto(keys, count, out);
    std::size_t taken = 0;
    try {
      for (; taken < n; ++taken) {
        AcquireStripe(out[taken], /*multi_key=*/true);
      }
    } catch (...) {
      UnlockStripesN(out, taken);
      throw;
    }
    return n;
  }

  // Releases stripes obtained from LockKeysInto(), in descending order.
  void UnlockStripesN(const std::size_t* stripes, std::size_t n) {
    for (std::size_t i = n; i-- > 0;) {
      UnlockStripe(stripes[i]);
    }
  }

  // Vector conveniences over the same primitives.
  std::vector<std::size_t> DistinctStripes(const std::uint64_t* keys,
                                           std::size_t count) const {
    std::vector<std::size_t> stripes(count);
    stripes.resize(DistinctStripesInto(keys, count, stripes.data()));
    return stripes;
  }

  std::vector<std::size_t> LockKeys(const std::uint64_t* keys,
                                    std::size_t count) {
    std::vector<std::size_t> stripes(count);
    stripes.resize(LockKeysInto(keys, count, stripes.data()));
    return stripes;
  }

  void UnlockStripes(const std::vector<std::size_t>& stripes) {
    UnlockStripesN(stripes.data(), stripes.size());
  }

  // Checked release of a key set: verifies this context holds *every*
  // distinct stripe before releasing any, so a misuse (some stripe not held)
  // throws std::logic_error without half-releasing the transaction.
  // Heap-free for key sets up to kInlineTxnKeys, mirroring the lock side.
  void UnlockKeys(const std::uint64_t* keys, std::size_t count) {
    if (count <= kInlineTxnKeys) {
      std::size_t stripes[kInlineTxnKeys];
      UnlockDistinct(stripes, DistinctStripesInto(keys, count, stripes));
    } else {
      std::vector<std::size_t> stripes = DistinctStripes(keys, count);
      UnlockDistinct(stripes.data(), stripes.size());
    }
  }

  // --- RAII surfaces ---

  class Guard {
   public:
    Guard(LockTable& table, std::uint64_t key)
        : table_(table), stripe_(table.StripeOf(key)) {
      table_.LockStripe(stripe_);
    }
    ~Guard() { table_.UnlockStripe(stripe_); }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    std::size_t stripe() const { return stripe_; }

   private:
    LockTable& table_;
    std::size_t stripe_;
  };

  class MultiGuard {
   public:
    // Transactions up to this many keys run heap-free (inline stripe set);
    // larger key sets fall back to a vector.
    static constexpr std::size_t kInlineKeys = kInlineTxnKeys;

    MultiGuard(LockTable& table, std::initializer_list<std::uint64_t> keys)
        : MultiGuard(table, keys.begin(), keys.size()) {}
    MultiGuard(LockTable& table, const std::uint64_t* keys, std::size_t count)
        : table_(table) {
      if (count <= kInlineKeys) {
        count_ = table_.LockKeysInto(keys, count, inline_);
      } else {
        overflow_.resize(count);
        count_ = table_.LockKeysInto(keys, count, overflow_.data());
      }
    }
    ~MultiGuard() { table_.UnlockStripesN(data(), count_); }

    MultiGuard(const MultiGuard&) = delete;
    MultiGuard& operator=(const MultiGuard&) = delete;

    // The sorted distinct stripes this transaction holds.
    std::vector<std::size_t> stripes() const {
      return std::vector<std::size_t>(data(), data() + count_);
    }
    std::size_t size() const { return count_; }

   private:
    const std::size_t* data() const {
      return overflow_.empty() ? inline_ : overflow_.data();
    }

    LockTable& table_;
    std::size_t inline_[kInlineKeys];
    std::vector<std::size_t> overflow_;
    std::size_t count_ = 0;
  };

  // --- Statistics ---

  bool stats_enabled() const { return stats_.enabled(); }
  TableStatsSummary StatsSummary() const { return stats_.Summarize(); }
  const StripeCounters* StripeStats(std::size_t s) const {
    return stats_.stripe(s);
  }

  // Whether this execution context holds stripe `s` (pre-validation for
  // callers that must not act before confirming ownership, e.g. the
  // combining layer's checked Unlock).
  bool HoldsStripe(std::size_t s) const {
    return ContextLedger().Find(&array_.Stripe(s)) != Ledger::kNotHeld;
  }

  // Stripes of this table the calling context currently holds
  // (tests/diagnostics).
  std::size_t HeldByThisContext() const {
    return ContextLedger().CountIn(array_.begin(), array_.end());
  }

  // The calling context's ledger for L (tests/diagnostics).
  static Ledger& ContextLedger() { return P::template ContextLocal<Ledger>(); }

 private:
  // Validate-all-then-release body of UnlockKeys.
  void UnlockDistinct(const std::size_t* stripes, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!HoldsStripe(stripes[i])) {
        throw std::logic_error(
            "locktable::LockTable: UnlockKeys of a stripe this context does "
            "not hold");
      }
    }
    UnlockStripesN(stripes, n);
  }

  void AcquireStripe(std::size_t s, bool multi_key) {
    L& lock = StripeLock(s);
    typename Ledger::Held& held = ContextLedger().Checkout(&lock);
    if (lat_ != nullptr && telemetry::Enabled()) {
      const std::uint64_t t0 = P::NowNs();
      AcquireStripeImpl(lock, *held.node, s, multi_key);
      const std::uint64_t t1 = P::NowNs();
      lat_->wait.RecordAt(P::CurrentSocket(), P::CpuId(), t1 - t0);
      held.acquire_ns = t1;
      LockdepAcquired(s, /*trylock=*/false, multi_key, t1 - t0);
      return;
    }
    AcquireStripeImpl(lock, *held.node, s, multi_key);
    LockdepAcquired(s, /*trylock=*/false, multi_key, 0);
  }

  // Lockdep hooks (src/telemetry/lockdep.h): stripes of one table flavor
  // share a class keyed by metrics name, the stripe lock's address is the
  // instance (contiguous StripeArray => ascending stripe index == ascending
  // address, which is what makes MultiGuard's sorted order checkable).
  // Gated on the lockdep master flag; empty when compiled out.
  void LockdepAcquired(std::size_t s, bool trylock, bool multi_key,
                       std::uint64_t wait_ns) {
    if (telemetry::lockdep::Enabled()) {
      static const int lock_site =
          telemetry::lockdep::InternSite("LockTable::LockStripe");
      static const int multi_site =
          telemetry::lockdep::InternSite("LockTable::LockKeys");
      static const int try_site =
          telemetry::lockdep::InternSite("LockTable::TryLockStripe");
      telemetry::lockdep::OnAcquired(
          P::CpuId(), lockdep_cls_,
          trylock ? try_site : (multi_key ? multi_site : lock_site),
          reinterpret_cast<std::uintptr_t>(&array_.Stripe(s)), trylock,
          /*shared=*/false, multi_key, wait_ns);
    }
  }

  void LockdepReleased(std::size_t s) {
    if (telemetry::lockdep::Enabled()) {
      telemetry::lockdep::OnReleased(
          P::CpuId(), lockdep_cls_,
          reinterpret_cast<std::uintptr_t>(&array_.Stripe(s)));
    }
  }

  // Hold time runs from ownership (AcquireStripe/TryLockStripe completion)
  // to the start of the release.  A hold taken while telemetry was off
  // carries no stamp and records nothing.
  void RecordHold(std::uint64_t acquire_ns) {
    if (lat_ != nullptr && telemetry::Enabled() &&
        acquire_ns != Ledger::kUnstamped) {
      lat_->hold.RecordAt(P::CurrentSocket(), P::CpuId(),
                          P::NowNs() - acquire_ns);
    }
  }

  // True when this table wraps stripe acquisitions in the parking lot's
  // spin-then-park (locks with their own passive layer forward the flag in
  // the constructor instead; non-try-lockable kinds cannot park at all).
  static constexpr bool kTableParks =
      locks::TryLockable<L> && !locks::BlockingConfigurable<L>;

  // Spin-then-park acquisition.  The bounded try-lock spin keeps light
  // contention identical to the spinning table; past the budget the waiter
  // parks keyed by the stripe's lock, with TryLock itself as the
  // publish-then-recheck revalidate -- so the stripe can never sit free with
  // a sleeping waiter (the lost-wakeup proof is in parking_lot.h).  Wakeups
  // barge: a woken waiter retries TryLock against concurrent arrivals and
  // re-parks if it loses, trading strict FIFO for the unlock-side fast path.
  void AcquireStripeParked(L& lock, Handle& h, std::size_t s, bool multi_key) {
    if (lock.TryLock(h)) {
      stats_.OnAcquire(s, /*was_contended=*/false, multi_key);
      return;
    }
    for (std::uint32_t spin = 0; spin < parking::kBlockingSpinBudget; ++spin) {
      P::Pause();
      if (lock.TryLock(h)) {
        stats_.OnAcquire(s, /*was_contended=*/true, multi_key);
        return;
      }
    }
    auto& lot = parking::ParkingLot<P>::Global();
    bool acquired = false;
    while (!acquired) {
      lot.ParkConditionally(
          &lock,
          [&] {
            acquired = lock.TryLock(h);
            return !acquired;  // park only while the stripe stays busy
          },
          parking::kBlockingParkTimeoutNs);
    }
    stats_.OnAcquire(s, /*was_contended=*/true, multi_key);
  }

  void UnparkAfterRelease(std::size_t s) {
    if constexpr (kTableParks) {
      if (blocking_) {
        parking::ParkingLot<P>::Global().UnparkOne(&StripeLock(s),
                                                   P::CurrentSocket());
      }
    }
  }

  void AcquireStripeImpl(L& lock, Handle& h, std::size_t s, bool multi_key) {
    if constexpr (kTableParks) {
      if (blocking_) {
        AcquireStripeParked(lock, h, s, multi_key);
        return;
      }
    }
    if (stats_.enabled()) {
      // Stats mode probes with a try-lock first so contention is observable
      // (sampled when stats_probe_period > 1); the stats-off path below is
      // the undisturbed one-SWAP acquisition.
      if constexpr (locks::TryLockable<L>) {
        if (probe_mask_ == 0 || (P::Random() & probe_mask_) == 0) {
          if (lock.TryLock(h)) {
            stats_.OnAcquire(s, /*was_contended=*/false, multi_key);
            return;
          }
          lock.Lock(h);
          stats_.OnAcquire(s, /*was_contended=*/true, multi_key);
          return;
        }
      }
    }
    lock.Lock(h);
    stats_.OnAcquire(s, /*was_contended=*/false, multi_key);
  }

  StripeArray<L> array_;
  std::uint32_t probe_mask_;  // stats_probe_period - 1 (period power of two)
  bool blocking_;             // immutable after construction
  int lockdep_cls_;           // lock class shared by every stripe
  TableStats stats_;
  std::unique_ptr<TableLatency> lat_;  // null unless collect_latency
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_LOCK_TABLE_H_
