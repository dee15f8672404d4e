// RwLockTable<P, L>: a read-mostly lock namespace over reader-writer locks.
//
// The reader-writer face of lock_table.h: arbitrary 64-bit keys hash onto a
// power-of-two array of SharedLockable stripes, opening futex-style
// namespaces whose population is read-dominated -- caches, session tables,
// read-mostly KV.  With CnaRwLock's kCompact layout each stripe is one 8-byte
// word (reader count + CNA-ordered writer lock), so a million-stripe
// read-write namespace costs the same 8 MiB as the mutex table; the
// kPerSocket layout trades that compactness for reader counters that keep
// read acquisition socket-local.
//
// It is LockTable over a SharedLockable stripe, which already carries both
// modes: hashing, the held-lock ledger, multi-key ordering, spin-then-park,
// stats, latency and lockdep all live there.  This layer only names them:
//  * LockShared/TryLockShared/UnlockShared(key), ReadGuard -- reader side
//  * LockExclusive/TryLockExclusive/UnlockExclusive(key), WriteGuard --
//    writer side (LockTable's exclusive surface)
//  * Unlock(key)   -- pthread_rwlock_unlock-style release of whichever mode
//    this context holds the stripe in (the C surface)
//  * MultiGuard    -- multi-key *exclusive* transaction in ascending stripe
//    order (deduplicated), deadlock-free like the mutex table's
//  * StatsSummary() -- the counters as reads and writes (table_stats.h)
#ifndef CNA_LOCKTABLE_RW_LOCK_TABLE_H_
#define CNA_LOCKTABLE_RW_LOCK_TABLE_H_

#include <cstdint>

#include "locks/lock_api.h"
#include "locktable/lock_table.h"
#include "locktable/table_stats.h"

namespace cna::locktable {

template <typename P, locks::SharedLockable L>
class RwLockTable : public LockTable<P, L> {
  using Base = LockTable<P, L>;

 public:
  using Base::Base;
  using WriteGuard = typename Base::Guard;

  void LockExclusive(std::uint64_t key) { Base::Lock(key); }
  bool TryLockExclusive(std::uint64_t key) { return Base::TryLock(key); }
  // Throws std::logic_error if this context does not hold the stripe
  // exclusively.
  void UnlockExclusive(std::uint64_t key) {
    Base::UnlockStripe(Base::StripeOf(key));
  }

  RwTableStatsSummary StatsSummary() const {
    return RwTableStatsSummary(Base::StatsSummary());
  }
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_RW_LOCK_TABLE_H_
