// Type-erased reader-writer lock interface: the rwlock counterpart of
// any_lock.h, behind the pthread_rwlock shape (rdlock/wrlock/unlock) so the
// registry and the C API can hand out NUMA-aware rwlocks by name.
//
// Handle management follows LockAdapter: nodes come from the execution
// context's held-lock ledger, whose entries record the mode.  The unified
// UnlockAny() (pthread_rwlock_unlock semantics) releases this context's
// newest hold of the lock in whichever mode it was taken -- within one
// context the same rwlock cannot be held in both modes at once (that would
// self-deadlock), so the newest hold is unambiguous.
#ifndef CNA_CORE_ANY_RWLOCK_H_
#define CNA_CORE_ANY_RWLOCK_H_

#include <cstddef>
#include <stdexcept>
#include <string>

#include "locks/lock_api.h"
#include "locktable/held_ledger.h"

namespace cna::core {

// Abstract reader-writer lock.  Shared and exclusive acquisitions must each
// be LIFO-nested per execution context; Unlock() releases the newest
// acquisition in either mode.
class AnyRwLock {
 public:
  virtual ~AnyRwLock() = default;

  virtual void Lock() = 0;          // exclusive
  virtual bool TryLock() = 0;
  virtual void LockShared() = 0;
  virtual bool TryLockShared() = 0;
  // Mode-specific releases (C++ std::shared_mutex shape).
  virtual void Unlock() = 0;
  virtual void UnlockShared() = 0;
  // pthread_rwlock_unlock shape: releases whichever mode was acquired last.
  virtual void UnlockAny() = 0;

  virtual std::size_t StateBytes() const = 0;
  virtual std::string Name() const = 0;
};

template <typename P, locks::SharedLockable L>
class RwLockAdapter final : public AnyRwLock {
 public:
  explicit RwLockAdapter(std::string name) : name_(std::move(name)) {}

  void Lock() override {
    impl_.Lock(*ContextLedger().Checkout(&impl_).node);
  }

  bool TryLock() override {
    Ledger& ledger = ContextLedger();
    if (impl_.TryLock(*ledger.Checkout(&impl_).node)) {
      return true;
    }
    ledger.Cancel();
    return false;
  }

  void LockShared() override {
    impl_.LockShared(
        *ContextLedger().Checkout(&impl_, locktable::HoldMode::kShared).node);
  }

  bool TryLockShared() override {
    static_assert(locks::SharedTryLockable<L>);
    Ledger& ledger = ContextLedger();
    if (impl_.TryLockShared(
            *ledger.Checkout(&impl_, locktable::HoldMode::kShared).node)) {
      return true;
    }
    ledger.Cancel();
    return false;
  }

  void Unlock() override {
    const std::size_t i =
        ContextLedger().Find(&impl_, locktable::HoldMode::kExclusive);
    if (i == Ledger::kNotHeld) {
      throw std::logic_error("AnyRwLock::Unlock without matching Lock");
    }
    Release(i);
  }

  void UnlockShared() override {
    const std::size_t i =
        ContextLedger().Find(&impl_, locktable::HoldMode::kShared);
    if (i == Ledger::kNotHeld) {
      throw std::logic_error(
          "AnyRwLock::UnlockShared without matching LockShared");
    }
    Release(i);
  }

  void UnlockAny() override {
    const std::size_t i = ContextLedger().Find(&impl_);
    if (i == Ledger::kNotHeld) {
      throw std::logic_error("AnyRwLock::UnlockAny without matching lock");
    }
    Release(i);
  }

  std::size_t StateBytes() const override { return L::kStateBytes; }
  std::string Name() const override { return name_; }

  L& impl() { return impl_; }

 private:
  using Ledger = locktable::HeldLedger<typename L::Handle>;

  static Ledger& ContextLedger() { return P::template ContextLocal<Ledger>(); }

  // Releases ledger hold i of this lock in the mode it was taken.
  void Release(std::size_t i) {
    Ledger& ledger = ContextLedger();
    typename Ledger::Held& held = ledger.At(i);
    if (held.mode == locktable::HoldMode::kExclusive) {
      impl_.Unlock(*held.node);
    } else {
      impl_.UnlockShared(*held.node);
    }
    ledger.Release(i);
  }

  L impl_;
  std::string name_;
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_RWLOCK_H_
