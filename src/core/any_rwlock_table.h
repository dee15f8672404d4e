// Type-erased reader-writer lock-table interface: one runtime-selectable
// handle over a locktable::LockTable of any SharedLockable stripe.  Mirrors
// any_lock_table.h the way any_rwlock.h mirrors any_lock.h: AnyRwLockTable
// is an AnyLockTable whose Lock/TryLock/Unlock/LockMany/UnlockMany are the
// exclusive side, and RwLockTableAdapter adds only the shared-mode calls.
#ifndef CNA_CORE_ANY_RWLOCK_TABLE_H_
#define CNA_CORE_ANY_RWLOCK_TABLE_H_

#include <cstdint>

#include "core/any_lock_table.h"
#include "locks/lock_api.h"

namespace cna::core {

// Abstract keyed reader-writer namespace.  Shared/exclusive acquisitions must
// balance per execution context and key stripe.
class AnyRwLockTable : public AnyLockTable {
 public:
  virtual void LockShared(std::uint64_t key) = 0;
  virtual bool TryLockShared(std::uint64_t key) = 0;
  virtual void UnlockShared(std::uint64_t key) = 0;
  // Releases the key's stripe in whichever mode this context holds it
  // (pthread_rwlock_unlock semantics).
  virtual void UnlockAny(std::uint64_t key) = 0;
};

template <typename P, locks::SharedLockable L>
class RwLockTableAdapter final
    : public LockTableAdapter<P, L, AnyRwLockTable> {
 public:
  using LockTableAdapter<P, L, AnyRwLockTable>::LockTableAdapter;

  void LockShared(std::uint64_t key) override { this->table_.LockShared(key); }
  bool TryLockShared(std::uint64_t key) override {
    return this->table_.TryLockShared(key);
  }
  void UnlockShared(std::uint64_t key) override {
    this->table_.UnlockShared(key);
  }
  void UnlockAny(std::uint64_t key) override { this->table_.Unlock(key); }
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_RWLOCK_TABLE_H_
