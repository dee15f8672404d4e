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
//  * Over reader-writer stripes (locks::SharedLockable, e.g. the one-word
//    compact CnaRwLock): LockShared/TryLockShared/UnlockShared(key) and
//    ReadGuard take a stripe shared, everything above takes it exclusively,
//    and Unlock(key) releases whichever mode this context holds it in.
//    rw_lock_table.h gives that surface its reader-writer names.
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
  // Allocates the counters and enables counting; the lock words stay
  // untouched.  Each stripe gets a 16 B cell of acquisitions and contended
  // acquisitions, packed in a kCompact table and a cache line each in a
  // kCacheLine one; the table's other counts take min(stripes, 64) lines of
  // totals (see table_stats.h).
  bool collect_stats = false;
  // Contention sampling: stats mode detects a contended acquisition with a
  // try-lock probe.  A probe that finds the stripe held costs one extra
  // access to the (by definition hot) lock word: a load for CNA, whose
  // TryLock writes only a free word, an RMW for locks whose TryLock always
  // CASes.  With period N > 1 only ~1/N of acquisitions probe -- chosen by
  // the context-local PRNG, so no shared state -- and `contended` counts
  // become a 1/N sample (multiply by the period to estimate the true rate;
  // the resize policy does).  1 probes every acquisition (exact counts,
  // the historical behavior).  Rounded up to a power of two.
  std::uint32_t stats_probe_period = 1;
  // Acquisition/hold latency telemetry: registers "<metrics_name>.wait_ns"
  // and "<metrics_name>.hold_ns" histograms in the global telemetry registry
  // (src/telemetry/) and records into them whenever telemetry::Enabled().
  // On real hardware they hold a sample: one acquisition in 16 is timed and
  // recorded with weight 16, and the other 15 read no clock
  // (RealPlatform::kStampPeriod).  The simulator times every acquisition.
  // A sampler rate or saturation signal taken from such a histogram's count
  // moves in steps of 16, so its relative noise is sqrt(15/n) over n
  // acquisitions per tick.  Off by default: the lock path carries no timing
  // code.  nullptr picks the table flavor's default prefix ("locktable",
  // "rwtable", "combining").
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

  // Reader-writer stripes: the table adds the shared-mode surface.
  static constexpr bool kReaderWriter = locks::SharedLockable<L>;

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
                            ? kDefaultName
                            : options.metrics_name) +
            "/stripe")) {
    if (options.collect_stats) {
      stats_.Enable(array_.stripes(), array_.padding());
    }
    if (options.collect_latency) {
      lat_ = std::make_unique<TableLatency>(
          options.metrics_name == nullptr ? kDefaultName
                                          : options.metrics_name,
          kReaderWriter);
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
  //
  // Everything but the *Shared calls takes stripes exclusively, and the
  // stripe-level unlocks release exclusive holds only.  Unlock(key) is the
  // pthread_rwlock_unlock shape: it releases this context's newest hold of
  // the stripe in whichever mode it was taken (a mutex stripe has one).

  void Lock(std::uint64_t key) { LockStripe(StripeOf(key)); }
  void Unlock(std::uint64_t key) {
    if constexpr (kReaderWriter) {
      UnlockNewest(StripeOf(key));
    } else {
      UnlockStripe(StripeOf(key));
    }
  }
  bool TryLock(std::uint64_t key) { return TryLockStripe(StripeOf(key)); }

  void LockStripe(std::size_t s) {
    Acquire<HoldMode::kExclusive>(s, /*multi_key=*/false);
  }

  bool TryLockStripe(std::size_t s) {
    static_assert(locks::TryLockable<L>,
                  "TryLock requires a lock with a try-lock path");
    return TryAcquire<HoldMode::kExclusive>(s);
  }

  // Throws std::logic_error if this context does not hold stripe `s`.
  void UnlockStripe(std::size_t s) { CheckedRelease<HoldMode::kExclusive>(s); }

  // UnlockStripe() that reports "not held by this context" as false instead
  // of throwing, for callers that must probe several tables for the holder
  // (the resizable table's Unlock walking current snapshot then migration
  // predecessor).
  bool TryUnlockStripe(std::size_t s) {
    return TryRelease<HoldMode::kExclusive>(s);
  }

  // Reader side, over reader-writer stripes.  UnlockShared throws
  // std::logic_error if this context does not hold the stripe shared.
  void LockShared(std::uint64_t key) requires kReaderWriter {
    Acquire<HoldMode::kShared>(StripeOf(key), /*multi_key=*/false);
  }
  bool TryLockShared(std::uint64_t key) requires kReaderWriter {
    static_assert(locks::SharedTryLockable<L>,
                  "TryLockShared requires a shared try-lock path");
    return TryAcquire<HoldMode::kShared>(StripeOf(key));
  }
  void UnlockShared(std::uint64_t key) requires kReaderWriter {
    CheckedRelease<HoldMode::kShared>(StripeOf(key));
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
  // transaction it cannot identify.  The stripes a transaction took count as
  // multi-key acquisitions once, on either path.
  std::size_t LockKeysInto(const std::uint64_t* keys, std::size_t count,
                           std::size_t* out) {
    const std::size_t n = DistinctStripesInto(keys, count, out);
    std::size_t taken = 0;
    try {
      for (; taken < n; ++taken) {
        Acquire<HoldMode::kExclusive>(out[taken], /*multi_key=*/true);
      }
    } catch (...) {
      stats_.OnMultiKey(out, taken);
      UnlockStripesN(out, taken);
      throw;
    }
    stats_.OnMultiKey(out, n);
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
  // distinct stripe (exclusively) before releasing any, so a misuse (some
  // stripe not held) throws std::logic_error without half-releasing the
  // transaction.  Heap-free for key sets up to kInlineTxnKeys, mirroring the
  // lock side.
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

  // Single-key critical section in mode M: Guard is exclusive, ReadGuard
  // (reader-writer stripes only) shared.
  template <HoldMode M>
  class ModeGuard {
   public:
    ModeGuard(LockTable& table, std::uint64_t key)
        : table_(table), stripe_(table.StripeOf(key)) {
      table_.template Acquire<M>(stripe_, /*multi_key=*/false);
    }
    ~ModeGuard() { table_.template CheckedRelease<M>(stripe_); }

    ModeGuard(const ModeGuard&) = delete;
    ModeGuard& operator=(const ModeGuard&) = delete;

    std::size_t stripe() const { return stripe_; }

   private:
    LockTable& table_;
    std::size_t stripe_;
  };
  using Guard = ModeGuard<HoldMode::kExclusive>;
  using ReadGuard = ModeGuard<HoldMode::kShared>;

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

  // Stripes of this table the calling context currently holds, in either
  // mode or in one (tests/diagnostics).
  std::size_t HeldByThisContext() const {
    return ContextLedger().CountIn(array_.begin(), array_.end());
  }
  std::size_t HeldByThisContext(HoldMode mode) const {
    return ContextLedger().CountIn(array_.begin(), array_.end(), mode);
  }

  // The calling context's ledger for L (tests/diagnostics).
  static Ledger& ContextLedger() { return P::template ContextLocal<Ledger>(); }

 private:
  // Default metrics prefix, and with "/stripe" the lockdep class.
  static constexpr const char* kDefaultName =
      kReaderWriter ? "rwtable" : "locktable";

  // Whether mode M has a try-lock path, and whether this table wraps stripe
  // acquisitions in the parking lot's spin-then-park (locks with their own
  // passive layer get options.blocking forwarded in the constructor
  // instead; kinds without a try-lock path cannot park at all).
  template <HoldMode M>
  static constexpr bool kCanTry = M == HoldMode::kShared
                                      ? locks::SharedTryLockable<L>
                                      : locks::TryLockable<L>;
  static constexpr bool kTableParks =
      kCanTry<HoldMode::kExclusive> &&
      (!kReaderWriter || kCanTry<HoldMode::kShared>) &&
      !locks::BlockingConfigurable<L>;

  // Validate-all-then-release body of UnlockKeys.
  void UnlockDistinct(const std::size_t* stripes, std::size_t n) {
    Ledger& ledger = ContextLedger();
    for (std::size_t i = 0; i < n; ++i) {
      if (FindHold<HoldMode::kExclusive>(ledger, StripeLock(stripes[i])) ==
          Ledger::kNotHeld) {
        throw std::logic_error(
            "locktable::LockTable: UnlockKeys of a stripe this context does "
            "not hold");
      }
    }
    UnlockStripesN(stripes, n);
  }

  // Sinks and clock stamps.  An acquisition is observed when a sink wants
  // it: the latency sink (collect_latency, while telemetry::Enabled()) or
  // lockdep.  An observed acquisition makes one draw from the context's
  // PRNG, and one in kStampPeriod is stamped: it reads P::NowNs() at entry
  // (when its wait is timed), at ownership and at release, and records its
  // wait, its hold and its lockdep fold with weight kStampPeriod, so counts,
  // sums and percentiles stay unbiased.  The others read no clock; lockdep
  // still tracks them, so its edges and order checks see every acquisition.
  // Under the simulator the period is 1: every observed acquisition is
  // stamped and no draw is made.  With every sink off, an edge costs one or
  // two flag tests and makes no draw.
  static constexpr std::uint32_t kStampPeriod = P::kStampPeriod;
  static_assert(std::has_single_bit(kStampPeriod),
                "the stamp period is a power of two");
  static_assert(Ledger::kUnstamped == telemetry::lockdep::kUnstamped,
                "a ledger entry's stamp passes through to lockdep");

  // The sampling draw of an observed acquisition: whether it is stamped.
  static bool DrawStamp() {
    if constexpr (kStampPeriod == 1) {
      return true;
    } else {
      return (P::Random() & (kStampPeriod - 1)) == 0;
    }
  }

  // The latency sink draws at entry, where a stamped wait starts (t0 is
  // kUnstamped unless it drew a stamp); lockdep alone draws at ownership.
  template <HoldMode M>
  void Acquire(std::size_t s, bool multi_key) {
    L& lock = StripeLock(s);
    typename Ledger::Held& held = ContextLedger().Checkout(&lock, M);
    const bool timed = lat_ != nullptr && telemetry::Enabled();
    const std::uint64_t t0 =
        timed && DrawStamp() ? P::NowNs() : Ledger::kUnstamped;
    AcquireImpl<M>(lock, *held.node, s);
    if (timed || telemetry::lockdep::Enabled()) {
      AcquiredSinks<M>(held, s, /*trylock=*/false, multi_key,
                       timed ? t0 != Ledger::kUnstamped : DrawStamp(), t0);
    }
  }

  template <HoldMode M>
  bool TryAcquire(std::size_t s) {
    Ledger& ledger = ContextLedger();
    L& lock = StripeLock(s);
    typename Ledger::Held& held = ledger.Checkout(&lock, M);
    if (TryLockIn<M>(lock, *held.node)) {
      stats_.template OnAcquire<M>(s, /*was_contended=*/false);
      // Only exclusive holds are timed (see TableLatency); a try-lock has
      // no wait.
      const bool time_hold = M == HoldMode::kExclusive && lat_ != nullptr &&
                             telemetry::Enabled();
      if (time_hold || telemetry::lockdep::Enabled()) {
        AcquiredSinks<M>(held, s, /*trylock=*/true, /*multi_key=*/false,
                         DrawStamp(), Ledger::kUnstamped);
      }
      return true;
    }
    stats_.OnTryLockFailure(s);
    ledger.Cancel();
    return false;
  }

  template <HoldMode M>
  void AcquireImpl(L& lock, Handle& h, std::size_t s) {
    if constexpr (kTableParks) {
      if (blocking_) {
        AcquireParked<M>(lock, h, s);
        return;
      }
    }
    if (stats_.enabled()) {
      // Stats mode probes with a try-lock first so contention is observable
      // (sampled when stats_probe_period > 1); the stats-off path below is
      // the undisturbed one-SWAP acquisition.
      if constexpr (kCanTry<M>) {
        if (probe_mask_ == 0 || (P::Random() & probe_mask_) == 0) {
          if (TryLockIn<M>(lock, h)) {
            stats_.template OnAcquire<M>(s, /*was_contended=*/false);
            return;
          }
          LockIn<M>(lock, h);
          stats_.template OnAcquire<M>(s, /*was_contended=*/true);
          return;
        }
      }
    }
    LockIn<M>(lock, h);
    stats_.template OnAcquire<M>(s, /*was_contended=*/false);
  }

  // Blocking-table acquisition: parking::SpinThenPark with the stripe's
  // try-lock in mode M as the revalidate.  Out of line: inlined, the park
  // loop's live state would enlarge the stack frame that every spinning
  // acquisition sets up.
  template <HoldMode M>
  [[gnu::noinline]] void AcquireParked(L& lock, Handle& h, std::size_t s) {
    const bool waited = parking::SpinThenPark<P>(
        &lock, [&] { return TryLockIn<M>(lock, h); });
    stats_.template OnAcquire<M>(s, waited);
  }

  // Ledger position of this context's newest hold of `lock` in mode M (any
  // hold, over mutex stripes, which have one mode), or Ledger::kNotHeld.
  template <HoldMode M>
  static std::size_t FindHold(const Ledger& ledger, const L& lock) {
    return kReaderWriter ? ledger.Find(&lock, M) : ledger.Find(&lock);
  }

  template <HoldMode M>
  bool TryRelease(std::size_t s) {
    Ledger& ledger = ContextLedger();
    L& lock = StripeLock(s);
    const std::size_t i = FindHold<M>(ledger, lock);
    if (i == Ledger::kNotHeld) {
      return false;
    }
    ReleaseHeld<M>(ledger, lock, s, i);
    return true;
  }

  template <HoldMode M>
  void CheckedRelease(std::size_t s) {
    if (!TryRelease<M>(s)) {
      throw std::logic_error(
          "locktable::LockTable: unlock of a stripe this context does not "
          "hold");
    }
  }

  // Unlock(key) over reader-writer stripes: within one context a stripe
  // cannot be held in both modes at once (that would self-deadlock), so the
  // newest hold is unambiguous.
  void UnlockNewest(std::size_t s) {
    Ledger& ledger = ContextLedger();
    L& lock = StripeLock(s);
    const std::size_t i = ledger.Find(&lock);
    if (i == Ledger::kNotHeld) {
      throw std::logic_error(
          "locktable::LockTable: unlock of a stripe this context does not "
          "hold");
    }
    if (ledger.At(i).mode == HoldMode::kShared) {
      ReleaseHeld<HoldMode::kShared>(ledger, lock, s, i);
    } else {
      ReleaseHeld<HoldMode::kExclusive>(ledger, lock, s, i);
    }
  }

  // Ends ledger hold i, a hold of stripe s (`lock`) in mode M.
  template <HoldMode M>
  void ReleaseHeld(Ledger& ledger, L& lock, std::size_t s, std::size_t i) {
    if (lat_ != nullptr || telemetry::lockdep::Enabled()) {
      ReleasedSinks<M>(ledger.At(i).acquire_ns, s);
    }
    UnlockIn<M>(lock, *ledger.At(i).node);
    ledger.Release(i);
    UnparkAfterRelease<M>(s);
  }

  // An observed acquisition's sinks, once it owns stripe s.  A stamped one
  // reads the clock: the stamp starts its hold and ends its wait, which is
  // timed from t0 unless t0 is kUnstamped.  Out of line: inlined, this body
  // slows the unobserved acquisition's path.
  template <HoldMode M>
  [[gnu::noinline]] void AcquiredSinks(typename Ledger::Held& held,
                                       std::size_t s, bool trylock,
                                       bool multi_key, bool stamped,
                                       std::uint64_t t0) {
    std::uint64_t wait_ns = 0;
    if (stamped) {
      held.acquire_ns = P::NowNs();
      if (t0 != Ledger::kUnstamped) {
        wait_ns = held.acquire_ns - t0;
        lat_->wait[static_cast<int>(M)]->RecordAt(
            P::CurrentSocket(), P::CpuId(), wait_ns, kStampPeriod);
      }
    }
    if (telemetry::lockdep::Enabled()) {
      LockdepAcquired<M>(s, trylock, multi_key, wait_ns, held.acquire_ns);
    }
  }

  // A release's sinks.  A stamped hold reads the clock once, and that stamp
  // ends both its timed hold and its lockdep fold; lockdep only pops an
  // unstamped one.  Hold time runs from ownership to the start of the
  // release; a hold that no sink stamped records nothing.
  template <HoldMode M>
  void ReleasedSinks(std::uint64_t acquire_ns, std::size_t s) {
    const bool time_hold = M == HoldMode::kExclusive && lat_ != nullptr &&
                           telemetry::Enabled();
    const bool lockdep = telemetry::lockdep::Enabled();
    const std::uint64_t now =
        acquire_ns != Ledger::kUnstamped && (time_hold || lockdep)
            ? P::NowNs()
            : Ledger::kUnstamped;
    if (time_hold && now != Ledger::kUnstamped) {
      lat_->hold.RecordAt(P::CurrentSocket(), P::CpuId(), now - acquire_ns,
                          kStampPeriod);
    }
    if (lockdep) {
      telemetry::lockdep::OnReleased(
          P::CpuId(), lockdep_cls_,
          reinterpret_cast<std::uintptr_t>(&array_.Stripe(s)), now,
          kStampPeriod);
    }
  }

  // Lockdep hooks (src/telemetry/lockdep.h): stripes of one table flavor
  // share a class keyed by metrics name, the stripe lock's address is the
  // instance (contiguous StripeArray => ascending stripe index == ascending
  // address, which is what makes MultiGuard's sorted order checkable).
  // Shared acquisitions are tagged, so a witness report tells reader-side
  // from writer-side chains.  Callers check the lockdep master flag (the
  // hooks are empty when compiled out).
  template <HoldMode M>
  void LockdepAcquired(std::size_t s, bool trylock, bool multi_key,
                       std::uint64_t wait_ns, std::uint64_t now_ns) {
    constexpr bool kShared = M == HoldMode::kShared;
    static const int lock_site = telemetry::lockdep::InternSite(
        kShared ? "LockTable::LockShared" : "LockTable::LockStripe");
    static const int multi_site =
        telemetry::lockdep::InternSite("LockTable::LockKeys");
    static const int try_site = telemetry::lockdep::InternSite(
        kShared ? "LockTable::TryLockShared" : "LockTable::TryLockStripe");
    telemetry::lockdep::OnAcquired(
        P::CpuId(), lockdep_cls_,
        trylock ? try_site : (multi_key ? multi_site : lock_site),
        reinterpret_cast<std::uintptr_t>(&array_.Stripe(s)), trylock, kShared,
        multi_key, wait_ns, now_ns);
  }

  // A blocking table's release wakes parked waiters of the stripe.  Only
  // one waiter can take a free mutex stripe, and only a writer can be
  // blocked by a reader, so those releases wake one, preferring this
  // socket (CNA's socket-local handoff carried into the blocking layer).
  // A writer release of a reader-writer stripe wakes every waiter: a whole
  // reader convoy may have parked behind it, and all of them can enter now.
  template <HoldMode M>
  void UnparkAfterRelease(std::size_t s) {
    if constexpr (kTableParks) {
      if (blocking_) {
        auto& lot = parking::ParkingLot<P>::Global();
        if constexpr (kReaderWriter && M == HoldMode::kExclusive) {
          lot.UnparkAll(&StripeLock(s));
        } else {
          lot.UnparkOne(&StripeLock(s), P::CurrentSocket());
        }
      }
    }
  }

  StripeArray<L> array_;
  std::uint32_t probe_mask_;  // stats_probe_period - 1 (period power of two)
  bool blocking_;             // immutable after construction
  int lockdep_cls_;           // lock class shared by every stripe
  TableStats<kReaderWriter> stats_;
  std::unique_ptr<TableLatency> lat_;  // null unless collect_latency
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_LOCK_TABLE_H_
