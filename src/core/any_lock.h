// Type-erased lock interface: one runtime-selectable handle over every
// algorithm in src/locks/ and src/qspin/.
//
// This is the reproduction of LiTL's role in the paper (Section 7): "all
// locks ... are implemented as dynamic libraries conforming to the pthread
// mutex lock API", selectable at run time so any benchmark can be pointed at
// any lock.  Queue-node management (the per-thread preallocated nodes the
// paper describes in Section 5) is hidden behind this interface: each
// execution context (thread or simulated CPU) takes its nodes from its
// held-lock ledger (locktable/held_ledger.h), which every mutex and lock
// table of one lock type shares -- the kernel's few statically preallocated
// nodes per CPU.
#ifndef CNA_CORE_ANY_LOCK_H_
#define CNA_CORE_ANY_LOCK_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "locks/lock_api.h"
#include "locktable/held_ledger.h"
#include "telemetry/lockdep.h"

namespace cna::core {

// Abstract lock; Lock()/Unlock() must be LIFO-nested per execution context
// (the same discipline the Linux kernel imposes with its 4 nesting levels).
class AnyLock {
 public:
  virtual ~AnyLock() = default;

  virtual void Lock() = 0;
  virtual void Unlock() = 0;
  // Returns false when the lock is busy *or* the algorithm has no try-lock.
  virtual bool TryLock() = 0;
  virtual bool SupportsTryLock() const = 0;

  // sizeof of the shared lock state -- the paper's space argument.
  virtual std::size_t StateBytes() const = 0;
  virtual std::string Name() const = 0;
};

// Interface is AnyLock, or AnyRwLock for RwLockAdapter (any_rwlock.h),
// which adds the shared-mode overrides on top of this class.
template <typename P, locks::Lockable L, typename Interface = AnyLock>
class LockAdapter : public Interface {
 public:
  explicit LockAdapter(std::string name)
      : name_(std::move(name)),
        lockdep_cls_(telemetry::lockdep::InternClass(
            (locks::SharedLockable<L> ? "rwlock/" : "mutex/") + name_)) {}

  void Lock() override { Acquire<locktable::HoldMode::kExclusive>(); }

  // Releases an exclusive hold; throws std::logic_error without one.
  void Unlock() override {
    Ledger& ledger = ContextLedger();
    const std::size_t i =
        locks::SharedLockable<L>
            ? ledger.Find(&impl_, locktable::HoldMode::kExclusive)
            : ledger.Find(&impl_);
    if (i == Ledger::kNotHeld) {
      throw std::logic_error("AnyLock::Unlock without matching Lock");
    }
    Release<locktable::HoldMode::kExclusive>(ledger, i);
  }

  bool TryLock() override {
    if constexpr (locks::TryLockable<L>) {
      return TryAcquire<locktable::HoldMode::kExclusive>();
    } else {
      return false;
    }
  }

  bool SupportsTryLock() const override { return locks::TryLockable<L>; }
  std::size_t StateBytes() const override { return L::kStateBytes; }
  std::string Name() const override { return name_; }

  L& impl() { return impl_; }

 protected:
  using Ledger = locktable::HeldLedger<typename L::Handle>;

  static Ledger& ContextLedger() { return P::template ContextLocal<Ledger>(); }

  template <locktable::HoldMode M>
  void Acquire() {
    locktable::LockIn<M>(impl_, *ContextLedger().Checkout(&impl_, M).node);
    LockdepAcquired<M>(/*trylock=*/false);
  }

  template <locktable::HoldMode M>
  bool TryAcquire() {
    Ledger& ledger = ContextLedger();
    if (locktable::TryLockIn<M>(impl_, *ledger.Checkout(&impl_, M).node)) {
      LockdepAcquired<M>(/*trylock=*/true);
      return true;
    }
    ledger.Cancel();
    return false;
  }

  // Ends ledger hold i, a hold of this lock in mode M.
  template <locktable::HoldMode M>
  void Release(Ledger& ledger, std::size_t i) {
    if (telemetry::lockdep::Enabled()) {
      telemetry::lockdep::OnReleased(P::CpuId(), lockdep_cls_,
                                     reinterpret_cast<std::uintptr_t>(&impl_),
                                     P::NowNs());
    }
    locktable::UnlockIn<M>(impl_, *ledger.At(i).node);
    ledger.Release(i);
  }

  L impl_;

 private:
  template <locktable::HoldMode M>
  void LockdepAcquired(bool trylock) {
    if (telemetry::lockdep::Enabled()) {
      constexpr bool kShared = M == locktable::HoldMode::kShared;
      static const int lock_site = telemetry::lockdep::InternSite(
          kShared ? "AnyRwLock::LockShared" : "AnyLock::Lock");
      static const int try_site = telemetry::lockdep::InternSite(
          kShared ? "AnyRwLock::TryLockShared" : "AnyLock::TryLock");
      telemetry::lockdep::OnAcquired(
          P::CpuId(), lockdep_cls_, trylock ? try_site : lock_site,
          reinterpret_cast<std::uintptr_t>(&impl_), trylock, kShared,
          /*nested=*/false, /*wait_ns=*/0, P::NowNs());
    }
  }

  std::string name_;
  // One class per adapter kind: "mutex/<name>", or "rwlock/<name>" over a
  // reader-writer lock.
  int lockdep_cls_;
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_LOCK_H_
