// Type-erased reader-writer lock interface: the rwlock counterpart of
// any_lock.h, behind the pthread_rwlock shape (rdlock/wrlock/unlock) so the
// registry and the C API can hand out NUMA-aware rwlocks by name.
//
// AnyRwLock is an AnyLock whose Lock/TryLock/Unlock are the exclusive side;
// RwLockAdapter is LockAdapter plus the shared-mode calls, so both modes
// share its ledger handling and lockdep hooks (shared acquisitions tagged
// shared).  The unified UnlockAny() (pthread_rwlock_unlock semantics)
// releases this context's newest hold of the lock in whichever mode it was
// taken -- within one context the same rwlock cannot be held in both modes
// at once (that would self-deadlock), so the newest hold is unambiguous.
#ifndef CNA_CORE_ANY_RWLOCK_H_
#define CNA_CORE_ANY_RWLOCK_H_

#include <cstddef>
#include <stdexcept>
#include <string>

#include "core/any_lock.h"
#include "locks/lock_api.h"
#include "locktable/held_ledger.h"

namespace cna::core {

// Abstract reader-writer lock.  Shared and exclusive acquisitions must each
// be LIFO-nested per execution context; Unlock() and UnlockShared() are the
// mode-specific releases (C++ std::shared_mutex shape).
class AnyRwLock : public AnyLock {
 public:
  virtual void LockShared() = 0;
  virtual bool TryLockShared() = 0;
  virtual void UnlockShared() = 0;
  // pthread_rwlock_unlock shape: releases whichever mode was acquired last.
  virtual void UnlockAny() = 0;
};

template <typename P, locks::SharedLockable L>
class RwLockAdapter final : public LockAdapter<P, L, AnyRwLock> {
  using Base = LockAdapter<P, L, AnyRwLock>;
  using typename Base::Ledger;
  static constexpr locktable::HoldMode kShared = locktable::HoldMode::kShared;

 public:
  using Base::Base;

  void LockShared() override { this->template Acquire<kShared>(); }

  bool TryLockShared() override {
    static_assert(locks::SharedTryLockable<L>);
    return this->template TryAcquire<kShared>();
  }

  void UnlockShared() override {
    Ledger& ledger = Base::ContextLedger();
    const std::size_t i = ledger.Find(&this->impl_, kShared);
    if (i == Ledger::kNotHeld) {
      throw std::logic_error(
          "AnyRwLock::UnlockShared without matching LockShared");
    }
    this->template Release<kShared>(ledger, i);
  }

  void UnlockAny() override {
    Ledger& ledger = Base::ContextLedger();
    const std::size_t i = ledger.Find(&this->impl_);
    if (i == Ledger::kNotHeld) {
      throw std::logic_error("AnyRwLock::UnlockAny without matching lock");
    }
    if (ledger.At(i).mode == kShared) {
      this->template Release<kShared>(ledger, i);
    } else {
      this->template Release<locktable::HoldMode::kExclusive>(ledger, i);
    }
  }
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_RWLOCK_H_
