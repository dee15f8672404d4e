// RwLockTable<P, L>: a read-mostly lock namespace over reader-writer locks.
//
// The reader-writer counterpart of lock_table.h: arbitrary 64-bit keys hash
// onto a power-of-two array of SharedLockable stripes, opening futex-style
// namespaces whose population is read-dominated -- caches, session tables,
// read-mostly KV.  With CnaRwLock's kCompact layout each stripe is one 8-byte
// word (reader count + CNA-ordered writer lock), so a million-stripe
// read-write namespace costs the same 8 MiB as the mutex table; the
// kPerSocket layout trades that compactness for reader counters that keep
// read acquisition socket-local.
//
// Surface:
//  * LockShared/UnlockShared/TryLockShared(key)      -- reader side
//  * LockExclusive/UnlockExclusive/TryLockExclusive(key) -- writer side
//  * Unlock(key)      -- pthread_rwlock_unlock-style mode dispatch (the C
//    surface): releases whichever mode this context holds the stripe in
//  * ReadGuard / WriteGuard -- RAII single-key sections
//  * MultiGuard       -- multi-key *exclusive* transaction in ascending
//    stripe order (deduplicated), deadlock-free like lock_table.h's
//  * Per-stripe read/write/writer-wait counters (table_stats.h), off by
//    default so the fast path carries zero instrumentation.
//
// Queue nodes come from the calling context's held-lock ledger exactly as in
// the mutex table (held_ledger.h).  Each ledger entry records its mode, which
// is how Unlock(key) discovers the mode and how a mode-specific unlock of a
// stripe not held in that mode stays a checked error.
#ifndef CNA_LOCKTABLE_RW_LOCK_TABLE_H_
#define CNA_LOCKTABLE_RW_LOCK_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "locks/lock_api.h"
#include "locktable/held_ledger.h"
#include "locktable/lock_table.h"  // LockTableOptions
#include "locktable/stripe_array.h"
#include "locktable/table_latency.h"
#include "locktable/table_stats.h"
#include "parking/parking_lot.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"

namespace cna::locktable {

template <typename P, locks::SharedLockable L>
class RwLockTable {
 public:
  using LockType = L;
  using Handle = typename L::Handle;
  // Shared by every table and rwlock over L in one execution context.
  using Ledger = HeldLedger<Handle>;

  static constexpr std::size_t kMaxStripes = StripeArray<L>::kMaxStripes;
  static constexpr std::size_t kInlineTxnKeys = 8;

  // Table-level blocking (options.blocking): same wrapper as LockTable --
  // spin a bounded budget, then park keyed on the stripe lock's address with
  // TryLock (writers) / TryLockShared (readers) as the revalidation.  A
  // writer release wakes every waiter (a reader convoy may be queued behind
  // the writer and all of them can now enter); a reader release wakes one
  // (only a writer can be blocked by readers, and only one can win).
  static constexpr bool kTableParks =
      locks::TryLockable<L> && locks::SharedTryLockable<L> &&
      !locks::BlockingConfigurable<L>;

  explicit RwLockTable(LockTableOptions options = {})
      : array_(options.stripes, options.padding),
        blocking_(options.blocking),
        lockdep_cls_(telemetry::lockdep::InternClass(
            std::string(options.metrics_name == nullptr
                            ? "rwtable"
                            : options.metrics_name) +
            "/stripe")) {
    if (options.collect_stats) {
      stats_.Enable(array_.stripes());
    }
    if (options.collect_latency) {
      lat_ = std::make_unique<RwTableLatency>(
          options.metrics_name == nullptr ? "rwtable" : options.metrics_name);
    }
  }

  RwLockTable(const RwLockTable&) = delete;
  RwLockTable& operator=(const RwLockTable&) = delete;

  // --- Namespace geometry (see stripe_array.h) ---

  std::size_t stripes() const { return array_.stripes(); }
  StripePadding padding() const { return array_.padding(); }

  std::size_t StripeOf(std::uint64_t key) const {
    return array_.StripeOf(key);
  }

  std::size_t LockStateBytes() const { return array_.LockStateBytes(); }
  static constexpr std::size_t PerStripeStateBytes() { return L::kStateBytes; }

  L& StripeLock(std::size_t s) { return array_.Stripe(s); }

  // --- Reader side ---

  void LockShared(std::uint64_t key) { LockSharedStripe(StripeOf(key)); }
  void UnlockShared(std::uint64_t key) { UnlockSharedStripe(StripeOf(key)); }
  bool TryLockShared(std::uint64_t key) {
    return TryLockSharedStripe(StripeOf(key));
  }

  void LockSharedStripe(std::size_t s) {
    L& lock = StripeLock(s);
    Handle& h = *ContextLedger().Checkout(&lock, HoldMode::kShared).node;
    if (lat_ != nullptr && telemetry::Enabled()) {
      const std::uint64_t t0 = P::NowNs();
      LockSharedStripeImpl(lock, h, s);
      const std::uint64_t wait = P::NowNs() - t0;
      lat_->read_wait.RecordAt(P::CurrentSocket(), P::CpuId(), wait);
      LockdepAcquired(s, /*trylock=*/false, /*shared=*/true,
                      /*multi_key=*/false, wait);
      return;
    }
    LockSharedStripeImpl(lock, h, s);
    LockdepAcquired(s, /*trylock=*/false, /*shared=*/true, /*multi_key=*/false,
                    0);
  }

  void LockSharedStripeImpl(L& lock, Handle& h, std::size_t s) {
    if constexpr (kTableParks) {
      if (blocking_) {
        AcquireSharedParked(lock, h, s);
        return;
      }
    }
    if (stats_.enabled()) {
      if constexpr (locks::SharedTryLockable<L>) {
        if (lock.TryLockShared(h)) {
          stats_.OnReadAcquire(s, /*was_contended=*/false);
          return;
        }
        lock.LockShared(h);
        stats_.OnReadAcquire(s, /*was_contended=*/true);
        return;
      }
    }
    lock.LockShared(h);
    stats_.OnReadAcquire(s, /*was_contended=*/false);
  }

  bool TryLockSharedStripe(std::size_t s) {
    static_assert(locks::SharedTryLockable<L>,
                  "TryLockShared requires a shared try-lock path");
    Ledger& ledger = ContextLedger();
    L& lock = StripeLock(s);
    if (lock.TryLockShared(*ledger.Checkout(&lock, HoldMode::kShared).node)) {
      stats_.OnReadAcquire(s, /*was_contended=*/false);
      LockdepAcquired(s, /*trylock=*/true, /*shared=*/true, /*multi_key=*/false,
                      0);
      return true;
    }
    stats_.OnTryLockFailure(s);
    ledger.Cancel();
    return false;
  }

  // Throws std::logic_error if this context does not hold stripe `s` shared.
  void UnlockSharedStripe(std::size_t s) {
    ReleaseShared(s, HeldIndex(s, HoldMode::kShared));
  }

  // --- Writer side ---

  void LockExclusive(std::uint64_t key) { LockExclusiveStripe(StripeOf(key)); }
  void UnlockExclusive(std::uint64_t key) {
    UnlockExclusiveStripe(StripeOf(key));
  }
  bool TryLockExclusive(std::uint64_t key) {
    return TryLockExclusiveStripe(StripeOf(key));
  }

  void LockExclusiveStripe(std::size_t s) {
    AcquireExclusiveStripe(s);
  }

  bool TryLockExclusiveStripe(std::size_t s) {
    static_assert(locks::TryLockable<L>,
                  "TryLockExclusive requires a try-lock path");
    Ledger& ledger = ContextLedger();
    L& lock = StripeLock(s);
    typename Ledger::Held& held = ledger.Checkout(&lock);
    if (lock.TryLock(*held.node)) {
      stats_.OnWriteAcquire(s, /*waited=*/false);
      if (lat_ != nullptr && telemetry::Enabled()) {
        held.acquire_ns = P::NowNs();
      }
      LockdepAcquired(s, /*trylock=*/true, /*shared=*/false,
                      /*multi_key=*/false, 0);
      return true;
    }
    stats_.OnTryLockFailure(s);
    ledger.Cancel();
    return false;
  }

  // Throws std::logic_error if this context does not hold stripe `s`
  // exclusively.
  void UnlockExclusiveStripe(std::size_t s) {
    ReleaseExclusive(s, HeldIndex(s, HoldMode::kExclusive));
  }

  // pthread_rwlock_unlock-style release: releases the stripe in whichever
  // mode this context holds it (its newest hold of the stripe).  Throws
  // std::logic_error if it holds it in neither.
  void Unlock(std::uint64_t key) {
    const std::size_t s = StripeOf(key);
    const std::size_t i = ContextLedger().Find(&StripeLock(s));
    if (i == Ledger::kNotHeld) {
      throw std::logic_error(
          "locktable::RwLockTable: Unlock of a stripe this context does not "
          "hold");
    }
    if (ContextLedger().At(i).mode == HoldMode::kExclusive) {
      ReleaseExclusive(s, i);
    } else {
      ReleaseShared(s, i);
    }
  }

  // --- Multi-key exclusive transactions (MultiGuard, C surface) ---

  std::size_t DistinctStripesInto(const std::uint64_t* keys, std::size_t count,
                                  std::size_t* out) const {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = StripeOf(keys[i]);
    }
    std::sort(out, out + count);
    return static_cast<std::size_t>(std::unique(out, out + count) - out);
  }

  // Exclusively locks the key set's distinct stripes in ascending order;
  // all-or-nothing on a mid-transaction throw, like LockTable::LockKeysInto.
  std::size_t LockKeysInto(const std::uint64_t* keys, std::size_t count,
                           std::size_t* out) {
    const std::size_t n = DistinctStripesInto(keys, count, out);
    std::size_t taken = 0;
    try {
      for (; taken < n; ++taken) {
        AcquireExclusiveStripe(out[taken], /*multi_key=*/true);
      }
    } catch (...) {
      UnlockStripesN(out, taken);
      throw;
    }
    return n;
  }

  void UnlockStripesN(const std::size_t* stripes, std::size_t n) {
    for (std::size_t i = n; i-- > 0;) {
      UnlockExclusiveStripe(stripes[i]);
    }
  }

  // Checked release of an exclusive key set: verifies this context holds
  // every distinct stripe exclusively before releasing any, so misuse throws
  // std::logic_error without half-releasing the transaction.
  void UnlockKeys(const std::uint64_t* keys, std::size_t count) {
    if (count <= kInlineTxnKeys) {
      std::size_t stripes[kInlineTxnKeys];
      UnlockDistinct(stripes, DistinctStripesInto(keys, count, stripes));
    } else {
      std::vector<std::size_t> stripes(count);
      stripes.resize(DistinctStripesInto(keys, count, stripes.data()));
      UnlockDistinct(stripes.data(), stripes.size());
    }
  }

  // --- RAII surfaces ---

  class ReadGuard {
   public:
    ReadGuard(RwLockTable& table, std::uint64_t key)
        : table_(table), stripe_(table.StripeOf(key)) {
      table_.LockSharedStripe(stripe_);
    }
    ~ReadGuard() { table_.UnlockSharedStripe(stripe_); }

    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    std::size_t stripe() const { return stripe_; }

   private:
    RwLockTable& table_;
    std::size_t stripe_;
  };

  class WriteGuard {
   public:
    WriteGuard(RwLockTable& table, std::uint64_t key)
        : table_(table), stripe_(table.StripeOf(key)) {
      table_.LockExclusiveStripe(stripe_);
    }
    ~WriteGuard() { table_.UnlockExclusiveStripe(stripe_); }

    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

    std::size_t stripe() const { return stripe_; }

   private:
    RwLockTable& table_;
    std::size_t stripe_;
  };

  // Multi-key exclusive transaction: sorted distinct stripes, heap-free up to
  // kInlineTxnKeys keys.
  class MultiGuard {
   public:
    static constexpr std::size_t kInlineKeys = kInlineTxnKeys;

    MultiGuard(RwLockTable& table, std::initializer_list<std::uint64_t> keys)
        : MultiGuard(table, keys.begin(), keys.size()) {}
    MultiGuard(RwLockTable& table, const std::uint64_t* keys,
               std::size_t count)
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

    std::vector<std::size_t> stripes() const {
      return std::vector<std::size_t>(data(), data() + count_);
    }
    std::size_t size() const { return count_; }

   private:
    const std::size_t* data() const {
      return overflow_.empty() ? inline_ : overflow_.data();
    }

    RwLockTable& table_;
    std::size_t inline_[kInlineKeys];
    std::vector<std::size_t> overflow_;
    std::size_t count_ = 0;
  };

  // --- Statistics / diagnostics ---

  bool stats_enabled() const { return stats_.enabled(); }
  RwTableStatsSummary StatsSummary() const { return stats_.Summarize(); }
  const RwStripeCounters* StripeStats(std::size_t s) const {
    return stats_.stripe(s);
  }

  // Stripes of this table the calling context holds in each mode.
  std::size_t SharedHeldByThisContext() const {
    return ContextLedger().CountIn(array_.begin(), array_.end(),
                                   HoldMode::kShared);
  }
  std::size_t ExclusiveHeldByThisContext() const {
    return ContextLedger().CountIn(array_.begin(), array_.end(),
                                   HoldMode::kExclusive);
  }

  // The calling context's ledger for L (tests/diagnostics).
  static Ledger& ContextLedger() { return P::template ContextLocal<Ledger>(); }

 private:
  // Ledger position of this context's hold of stripe `s` in `mode`; throws
  // std::logic_error if there is none.
  std::size_t HeldIndex(std::size_t s, HoldMode mode) {
    const std::size_t i = ContextLedger().Find(&StripeLock(s), mode);
    if (i == Ledger::kNotHeld) {
      throw std::logic_error(
          mode == HoldMode::kShared
              ? "locktable::RwLockTable: shared unlock of a stripe this "
                "context does not hold shared"
              : "locktable::RwLockTable: exclusive unlock of a stripe this "
                "context does not hold exclusively");
    }
    return i;
  }

  // Releases hold `i` of the ledger, a shared hold of stripe `s`.
  void ReleaseShared(std::size_t s, std::size_t i) {
    Ledger& ledger = ContextLedger();
    LockdepReleased(s);
    StripeLock(s).UnlockShared(*ledger.At(i).node);
    ledger.Release(i);
    if constexpr (kTableParks) {
      if (blocking_) {
        // Only a writer can be blocked by a reader, and only one can win the
        // now-free stripe -- wake one, it revalidates with TryLock.
        parking::ParkingLot<P>::Global().UnparkOne(&StripeLock(s),
                                                   P::CurrentSocket());
      }
    }
  }

  // Releases hold `i` of the ledger, an exclusive hold of stripe `s`.
  void ReleaseExclusive(std::size_t s, std::size_t i) {
    Ledger& ledger = ContextLedger();
    LockdepReleased(s);
    const std::uint64_t acquire_ns = ledger.At(i).acquire_ns;
    if (lat_ != nullptr && telemetry::Enabled() &&
        acquire_ns != Ledger::kUnstamped) {
      lat_->write_hold.RecordAt(P::CurrentSocket(), P::CpuId(),
                                P::NowNs() - acquire_ns);
    }
    StripeLock(s).Unlock(*ledger.At(i).node);
    ledger.Release(i);
    if constexpr (kTableParks) {
      if (blocking_) {
        // A whole reader convoy may have parked behind this writer; all of
        // them can enter now, so wake everything and let them revalidate.
        parking::ParkingLot<P>::Global().UnparkAll(&StripeLock(s));
      }
    }
  }

  void UnlockDistinct(const std::size_t* stripes, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (ContextLedger().Find(&StripeLock(stripes[i]), HoldMode::kExclusive) ==
          Ledger::kNotHeld) {
        throw std::logic_error(
            "locktable::RwLockTable: UnlockKeys of a stripe this context "
            "does not hold exclusively");
      }
    }
    UnlockStripesN(stripes, n);
  }

  void AcquireExclusiveStripe(std::size_t s, bool multi_key = false) {
    L& lock = StripeLock(s);
    typename Ledger::Held& held = ContextLedger().Checkout(&lock);
    if (lat_ != nullptr && telemetry::Enabled()) {
      const std::uint64_t t0 = P::NowNs();
      AcquireExclusiveStripeImpl(lock, *held.node, s);
      const std::uint64_t t1 = P::NowNs();
      lat_->write_wait.RecordAt(P::CurrentSocket(), P::CpuId(), t1 - t0);
      held.acquire_ns = t1;
      LockdepAcquired(s, /*trylock=*/false, /*shared=*/false, multi_key,
                      t1 - t0);
      return;
    }
    AcquireExclusiveStripeImpl(lock, *held.node, s);
    LockdepAcquired(s, /*trylock=*/false, /*shared=*/false, multi_key, 0);
  }

  void AcquireExclusiveStripeImpl(L& lock, Handle& h, std::size_t s) {
    if constexpr (kTableParks) {
      if (blocking_) {
        AcquireExclusiveParked(lock, h, s);
        return;
      }
    }
    if (stats_.enabled()) {
      // Probe so writer waits (readers to drain, or another writer) are
      // observable; the stats-off path below is the undisturbed acquisition.
      if constexpr (locks::TryLockable<L>) {
        if (lock.TryLock(h)) {
          stats_.OnWriteAcquire(s, /*waited=*/false);
          return;
        }
        lock.Lock(h);
        stats_.OnWriteAcquire(s, /*waited=*/true);
        return;
      }
    }
    lock.Lock(h);
    stats_.OnWriteAcquire(s, /*waited=*/false);
  }

  // Spin-then-park writer acquisition (blocking mode).  Same shape as
  // LockTable::AcquireStripeParked; a woken writer barges with TryLock and
  // re-parks if it loses the race.
  void AcquireExclusiveParked(L& lock, Handle& h, std::size_t s) {
    if (lock.TryLock(h)) {
      stats_.OnWriteAcquire(s, /*waited=*/false);
      return;
    }
    for (int i = 0; i < parking::kBlockingSpinBudget; ++i) {
      P::Pause();
      if (lock.TryLock(h)) {
        stats_.OnWriteAcquire(s, /*waited=*/true);
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
            return !acquired;  // still blocked -> commit the park
          },
          parking::kBlockingParkTimeoutNs);
    }
    stats_.OnWriteAcquire(s, /*waited=*/true);
  }

  // Spin-then-park reader acquisition (blocking mode): identical protocol
  // with TryLockShared as the revalidation.
  void AcquireSharedParked(L& lock, Handle& h, std::size_t s) {
    if (lock.TryLockShared(h)) {
      stats_.OnReadAcquire(s, /*was_contended=*/false);
      return;
    }
    for (int i = 0; i < parking::kBlockingSpinBudget; ++i) {
      P::Pause();
      if (lock.TryLockShared(h)) {
        stats_.OnReadAcquire(s, /*was_contended=*/true);
        return;
      }
    }
    auto& lot = parking::ParkingLot<P>::Global();
    bool acquired = false;
    while (!acquired) {
      lot.ParkConditionally(
          &lock,
          [&] {
            acquired = lock.TryLockShared(h);
            return !acquired;
          },
          parking::kBlockingParkTimeoutNs);
    }
    stats_.OnReadAcquire(s, /*was_contended=*/true);
  }

  // Lockdep: one class for every stripe of this table (see lockdep.h);
  // shared acquisitions are tagged so the witness report distinguishes
  // reader-side from writer-side chains.
  void LockdepAcquired(std::size_t s, bool trylock, bool shared,
                       bool multi_key, std::uint64_t wait_ns) {
    if (telemetry::lockdep::Enabled()) {
      static const int rd_site =
          telemetry::lockdep::InternSite("RwLockTable::LockSharedStripe");
      static const int try_rd_site =
          telemetry::lockdep::InternSite("RwLockTable::TryLockSharedStripe");
      static const int wr_site =
          telemetry::lockdep::InternSite("RwLockTable::LockExclusiveStripe");
      static const int try_wr_site =
          telemetry::lockdep::InternSite("RwLockTable::TryLockExclusiveStripe");
      static const int multi_site =
          telemetry::lockdep::InternSite("RwLockTable::LockKeys");
      const int site =
          multi_key ? multi_site
                    : (shared ? (trylock ? try_rd_site : rd_site)
                              : (trylock ? try_wr_site : wr_site));
      telemetry::lockdep::OnAcquired(
          P::CpuId(), lockdep_cls_, site,
          reinterpret_cast<std::uintptr_t>(&array_.Stripe(s)), trylock, shared,
          multi_key, wait_ns);
    }
  }
  void LockdepReleased(std::size_t s) {
    if (telemetry::lockdep::Enabled()) {
      telemetry::lockdep::OnReleased(
          P::CpuId(), lockdep_cls_,
          reinterpret_cast<std::uintptr_t>(&array_.Stripe(s)));
    }
  }

  StripeArray<L> array_;
  bool blocking_;  // immutable after construction
  int lockdep_cls_;  // lock class shared by every stripe
  RwTableStats stats_;
  std::unique_ptr<RwTableLatency> lat_;  // null unless collect_latency
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_RW_LOCK_TABLE_H_
