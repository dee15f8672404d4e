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

template <typename P, locks::Lockable L>
class LockAdapter final : public AnyLock {
 public:
  explicit LockAdapter(std::string name)
      : name_(std::move(name)),
        lockdep_cls_(telemetry::lockdep::InternClass("mutex/" + name_)) {}

  void Lock() override {
    impl_.Lock(*ContextLedger().Checkout(&impl_).node);
    if (telemetry::lockdep::Enabled()) {
      static const int site = telemetry::lockdep::InternSite("AnyLock::Lock");
      telemetry::lockdep::OnAcquired(
          P::CpuId(), lockdep_cls_, site,
          reinterpret_cast<std::uintptr_t>(&impl_), /*trylock=*/false,
          /*shared=*/false, /*nested=*/false, /*wait_ns=*/0);
    }
  }

  void Unlock() override {
    Ledger& ledger = ContextLedger();
    const std::size_t i = ledger.Find(&impl_);
    if (i == Ledger::kNotHeld) {
      throw std::logic_error("AnyLock::Unlock without matching Lock");
    }
    telemetry::lockdep::OnReleased(P::CpuId(), lockdep_cls_,
                                   reinterpret_cast<std::uintptr_t>(&impl_));
    impl_.Unlock(*ledger.At(i).node);
    ledger.Release(i);
  }

  bool TryLock() override {
    if constexpr (locks::TryLockable<L>) {
      Ledger& ledger = ContextLedger();
      if (impl_.TryLock(*ledger.Checkout(&impl_).node)) {
        if (telemetry::lockdep::Enabled()) {
          static const int site =
              telemetry::lockdep::InternSite("AnyLock::TryLock");
          telemetry::lockdep::OnAcquired(
              P::CpuId(), lockdep_cls_, site,
              reinterpret_cast<std::uintptr_t>(&impl_), /*trylock=*/true,
              /*shared=*/false, /*nested=*/false, /*wait_ns=*/0);
        }
        return true;
      }
      ledger.Cancel();
      return false;
    } else {
      return false;
    }
  }

  bool SupportsTryLock() const override { return locks::TryLockable<L>; }
  std::size_t StateBytes() const override { return L::kStateBytes; }
  std::string Name() const override { return name_; }

  L& impl() { return impl_; }

 private:
  using Ledger = locktable::HeldLedger<typename L::Handle>;

  static Ledger& ContextLedger() { return P::template ContextLocal<Ledger>(); }

  L impl_;
  std::string name_;
  int lockdep_cls_;  // one class per adapter kind ("mutex/<name>")
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_LOCK_H_
