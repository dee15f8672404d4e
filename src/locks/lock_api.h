// Uniform lock API shared by every algorithm in src/locks/.
//
// Each lock class L (templated over a Platform P) provides:
//   * struct Handle -- per-acquisition state (e.g. the MCS/CNA queue node).
//     Handles are cheap and stack-allocated; they must stay alive from Lock()
//     until the matching Unlock() returns.  This mirrors the paper's queue
//     nodes: "those structures can be reused for different lock acquisitions,
//     and between different locks" (Section 5).
//   * void Lock(Handle&), void Unlock(Handle&)
//   * bool TryLock(Handle&) when kHasTryLock
//   * kStateBytes -- sizeof of the shared lock state, used to verify the
//     paper's space claims (CNA: one word; hierarchical locks: O(sockets)
//     cache lines).
#ifndef CNA_LOCKS_LOCK_API_H_
#define CNA_LOCKS_LOCK_API_H_

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"

namespace cna::locks {

template <typename L>
concept Lockable = requires(L lock, typename L::Handle h) {
  lock.Lock(h);
  lock.Unlock(h);
  { L::kStateBytes } -> std::convertible_to<std::size_t>;
};

template <typename L>
concept TryLockable = Lockable<L> && requires(L lock, typename L::Handle h) {
  { lock.TryLock(h) } -> std::convertible_to<bool>;
};

// Reader-writer locks: Lock()/Unlock() is the exclusive (writer) side, so
// every SharedLockable is usable anywhere a plain Lockable is expected; the
// shared (reader) side adds LockShared()/UnlockShared() over the same Handle
// type (a handle is in one mode at a time).
template <typename L>
concept SharedLockable =
    Lockable<L> && requires(L lock, typename L::Handle h) {
      lock.LockShared(h);
      lock.UnlockShared(h);
    };

template <typename L>
concept SharedTryLockable =
    SharedLockable<L> && requires(L lock, typename L::Handle h) {
      { lock.TryLockShared(h) } -> std::convertible_to<bool>;
    };

// Locks that manage their own waiter blocking (GcrLock's passive lists): a
// blocking table forwards the flag to the lock instead of wrapping stripe
// acquisitions in the generic spin-then-park of the parking lot.
template <typename L>
concept BlockingConfigurable = Lockable<L> && requires(L lock) {
  lock.SetBlocking(true);
};

// Lock classes may carry their own lockdep class name ("mutex/cna"); guards
// over locks without one share the catch-all "lock/scoped" class.
template <typename L>
constexpr const char* LockdepClassNameOf() {
  if constexpr (requires { { L::kLockdepName } -> std::convertible_to<const char*>; }) {
    return L::kLockdepName;
  } else {
    return "lock/scoped";
  }
}

// The platform P a lock class runs on: every lock in src/locks/ and
// src/qspin/ takes it as its first template argument (QSpinLock and
// PartitionedTicketLock follow it with a value parameter).
template <typename L>
struct PlatformOf;
template <template <typename, typename...> class T, typename P,
          typename... Rest>
struct PlatformOf<T<P, Rest...>> {
  using type = P;
};
template <template <typename, auto, typename...> class T, typename P,
          auto kValue, typename... Rest>
struct PlatformOf<T<P, kValue, Rest...>> {
  using type = P;
};

// RAII guard: owns a handle and the critical section, held exclusively
// (ScopedLock) or shared (ScopedSharedLock, the reader side of a
// reader-writer lock).  Lockdep records the hold under P::CpuId() and
// P::NowNs(), the context id and clock the lock tables and
// core::LockAdapter record under: a guard and a stripe taken by one thread
// or simulator fiber land on the same held stack, never on another
// context's.
template <typename L, bool kShared>
class ScopedHold {
  using P = typename PlatformOf<L>::type;

 public:
  explicit ScopedHold(L& lock) : lock_(lock) {
    if constexpr (kShared) {
      lock_.LockShared(handle_);
    } else {
      lock_.Lock(handle_);
    }
    if (telemetry::lockdep::Enabled()) {
      static const int cls =
          telemetry::lockdep::InternClass(LockdepClassNameOf<L>());
      static const int site = telemetry::lockdep::InternSite(
          kShared ? "ScopedSharedLock" : "ScopedLock");
      cls_ = cls;
      telemetry::lockdep::OnAcquired(
          P::CpuId(), cls, site, reinterpret_cast<std::uintptr_t>(&lock_),
          /*trylock=*/false, kShared, /*nested=*/false,
          /*wait_ns=*/0, P::NowNs());
    }
  }
  ~ScopedHold() {
    if (cls_ >= 0 && telemetry::lockdep::Enabled()) {
      telemetry::lockdep::OnReleased(
          P::CpuId(), cls_, reinterpret_cast<std::uintptr_t>(&lock_),
          P::NowNs());
    }
    if constexpr (kShared) {
      lock_.UnlockShared(handle_);
    } else {
      lock_.Unlock(handle_);
    }
  }

  ScopedHold(const ScopedHold&) = delete;
  ScopedHold& operator=(const ScopedHold&) = delete;

 private:
  L& lock_;
  typename L::Handle handle_;
  int cls_ = -1;  // -1 => lockdep was off at acquisition
};

template <Lockable L>
using ScopedLock = ScopedHold<L, /*kShared=*/false>;
template <SharedLockable L>
using ScopedSharedLock = ScopedHold<L, /*kShared=*/true>;

}  // namespace cna::locks

#endif  // CNA_LOCKS_LOCK_API_H_
