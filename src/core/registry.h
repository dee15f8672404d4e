// Runtime lock registry: build any implemented lock by kind or name.
//
// Mirrors how the paper's evaluation selects locks through LiTL's
// LD_PRELOAD interposition -- here a factory keyed by name ("mcs", "cna",
// "c-bo-mcs", "hmcs", ...).
#ifndef CNA_CORE_REGISTRY_H_
#define CNA_CORE_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/any_gcr_lock.h"
#include "core/any_lock.h"
#include "core/any_lock_table.h"
#include "core/any_rwlock.h"
#include "locktable/combining.h"
#include "locktable/lock_table.h"
#include "locktable/resizable_lock_table.h"

namespace cna::core {

enum class LockKind {
  kMcs,
  kCna,
  kTas,
  kTtas,
  kBackoffTas,
  kTicket,
  kPartitionedTicket,
  kClh,
  kHbo,
  kCBoMcs,
  kCTktTkt,
  kCPtlTkt,
  kHmcs,
  kCst,
  kMcscr,      // Malthusian MCS (culling + reinjection)
  kQspinMcs,   // Linux qspinlock, stock (MCS slow path)
  kQspinCna,  // Linux qspinlock with the CNA patch
  kQspinCnaParked,  // CNA qspinlock, queued waiters spin-then-park
};

// All kinds, in a stable presentation order.
const std::vector<LockKind>& AllLockKinds();

std::string_view LockKindName(LockKind kind);
std::string_view LockKindDescription(LockKind kind);
std::optional<LockKind> LockKindFromName(std::string_view name);

// Whether the lock keeps ownership preferentially within a socket.
bool IsNumaAware(LockKind kind);

// ---------------------------------------------------------------------------
// Factories.  Each builds a type-erased object of `kind` over platform P.
// They are declared here and defined once, for RealPlatform only, by
// explicit instantiation in registry_mutex.cc (MakeLock, MakeRwLock),
// registry_gcr.cc (MakeGcrLock) and registry_table.cc (the four table
// flavors): the lock-kind x flavor matrix compiles there and nowhere else,
// so their callers -- the C API, tests, benches -- compile against
// declarations.  Simulator code builds its locks and tables by type instead.
// ---------------------------------------------------------------------------

template <typename P>
std::unique_ptr<AnyLock> MakeLock(LockKind kind);

// A sharded lock table of `kind`: the keyed, futex-style counterpart of
// MakeLock (src/locktable/).  Any lock kind works, but the point of the table
// is that one-word kinds (cna, mcs, qspin-*) keep the whole namespace compact
// -- compare PerStripeStateBytes() across kinds.  options.blocking builds the
// spin-then-park flavor.
template <typename P>
std::unique_ptr<AnyLockTable> MakeLockTable(
    LockKind kind, const locktable::LockTableOptions& options);

// A *resizable* lock table of `kind`: the adaptive counterpart of
// MakeLockTable (src/locktable/resizable_lock_table.h).  Contention
// detection rides on the stats try-lock probe, so kinds without a try-lock
// path never auto-grow (manual TryResize still works).
template <typename P>
std::unique_ptr<AnyLockTable> MakeResizableLockTable(
    LockKind kind, const locktable::ResizableLockTableOptions& options);

// A flat-combining table of `kind` (src/locktable/combining.h).  Throws
// std::invalid_argument for a kind without a try-lock path: flat combining
// needs the stripe fast path.
template <typename P>
std::unique_ptr<AnyLockTable> MakeCombiningTable(
    LockKind kind, const locktable::CombiningTableOptions& options);

// A GCR-wrapped lock of `kind` (src/locks/gcr.h).  Starts disengaged: until
// Engage() it is the underlying lock plus bookkeeping.
template <typename P>
std::unique_ptr<AnyGcrLock> MakeGcrLock(LockKind kind);

// ---------------------------------------------------------------------------
// Reader-writer locks: the rwlock counterpart of the machinery above.
// ---------------------------------------------------------------------------

enum class RwLockKind {
  kCnaRw,         // per-socket reader counters + CNA writer queue
  kCnaRwCompact,  // one 8-byte word (qrwlock layout, qspin-CNA writer path)
};

const std::vector<RwLockKind>& AllRwLockKinds();

std::string_view RwLockKindName(RwLockKind kind);
std::string_view RwLockKindDescription(RwLockKind kind);
std::optional<RwLockKind> RwLockKindFromName(std::string_view name);

template <typename P>
std::unique_ptr<AnyRwLock> MakeRwLock(RwLockKind kind);

// A sharded read-write lock table of `kind`: the keyed, read-mostly
// counterpart of MakeLockTable (src/locktable/); the table adds the shared
// calls of AnyLockTable.
template <typename P>
std::unique_ptr<AnyLockTable> MakeRwLockTable(
    RwLockKind kind, const locktable::LockTableOptions& options);

// User-facing mutex over the real platform.  Satisfies the C++ Lockable
// requirements, so std::lock_guard / std::unique_lock work directly.
class Mutex {
 public:
  explicit Mutex(LockKind kind);
  explicit Mutex(std::string_view name);

  void lock() { impl_->Lock(); }
  void unlock() { impl_->Unlock(); }
  bool try_lock() { return impl_->TryLock(); }

  std::size_t state_bytes() const { return impl_->StateBytes(); }
  std::string name() const { return impl_->Name(); }

 private:
  std::unique_ptr<AnyLock> impl_;
};

// User-facing sharded lock namespace over the real platform: the keyed
// counterpart of Mutex.  lock(key)/unlock(key) serialize all keys that hash
// to the same stripe; lock_many() takes several keys in deadlock-free order.
class ShardedMutex {
 public:
  ShardedMutex(LockKind kind, std::size_t stripes);
  // Throws std::invalid_argument on an unknown lock name.
  ShardedMutex(std::string_view name, std::size_t stripes);

  void lock(std::uint64_t key) { impl_->Lock(key); }
  bool try_lock(std::uint64_t key) { return impl_->TryLock(key); }
  void unlock(std::uint64_t key) { impl_->Unlock(key); }

  void lock_many(std::initializer_list<std::uint64_t> keys) {
    impl_->LockMany(keys.begin(), keys.size());
  }
  void unlock_many(std::initializer_list<std::uint64_t> keys) {
    impl_->UnlockMany(keys.begin(), keys.size());
  }

  std::size_t stripes() const { return impl_->Stripes(); }
  std::size_t stripe_of(std::uint64_t key) const {
    return impl_->StripeOf(key);
  }
  std::size_t lock_state_bytes() const { return impl_->LockStateBytes(); }
  std::string name() const { return impl_->Name(); }

 private:
  std::unique_ptr<AnyLockTable> impl_;
};

// User-facing *adaptive* sharded lock namespace over the real platform: a
// ShardedMutex whose stripe count follows the measured contention (see
// locktable::ResizePolicy).  stripes() reports the current snapshot.
class AdaptiveShardedMutex {
 public:
  AdaptiveShardedMutex(LockKind kind, std::size_t initial_stripes);
  AdaptiveShardedMutex(LockKind kind,
                       const locktable::ResizableLockTableOptions& options);
  // Throws std::invalid_argument on an unknown lock name.
  AdaptiveShardedMutex(std::string_view name, std::size_t initial_stripes);

  void lock(std::uint64_t key) { impl_->Lock(key); }
  bool try_lock(std::uint64_t key) { return impl_->TryLock(key); }
  void unlock(std::uint64_t key) { impl_->Unlock(key); }

  void lock_many(std::initializer_list<std::uint64_t> keys) {
    impl_->LockMany(keys.begin(), keys.size());
  }
  void unlock_many(std::initializer_list<std::uint64_t> keys) {
    impl_->UnlockMany(keys.begin(), keys.size());
  }

  bool try_resize(std::size_t stripes) { return impl_->TryResize(stripes); }

  std::size_t stripes() const { return impl_->Stripes(); }
  std::size_t stripe_of(std::uint64_t key) const {
    return impl_->StripeOf(key);
  }
  std::size_t lock_state_bytes() const { return impl_->LockStateBytes(); }
  locktable::ResizableStatsSummary summary() const {
    return impl_->ResizeSummary();
  }
  std::string name() const { return impl_->Name(); }

 private:
  std::unique_ptr<AnyLockTable> impl_;
};

// User-facing reader-writer mutex over the real platform.  Satisfies the C++
// SharedLockable requirements, so std::shared_lock / std::unique_lock work
// directly on it.
class SharedMutex {
 public:
  explicit SharedMutex(RwLockKind kind);
  // Throws std::invalid_argument on an unknown rwlock name.
  explicit SharedMutex(std::string_view name);

  void lock() { impl_->Lock(); }
  bool try_lock() { return impl_->TryLock(); }
  void unlock() { impl_->Unlock(); }

  void lock_shared() { impl_->LockShared(); }
  bool try_lock_shared() { return impl_->TryLockShared(); }
  void unlock_shared() { impl_->UnlockShared(); }

  std::size_t state_bytes() const { return impl_->StateBytes(); }
  std::string name() const { return impl_->Name(); }

 private:
  std::unique_ptr<AnyRwLock> impl_;
};

// User-facing sharded read-write namespace over the real platform: the keyed
// counterpart of SharedMutex.  lock_shared(key) admits concurrent readers of
// one stripe; lock(key) is exclusive; unlock(key) releases this thread's
// newest hold of the stripe in either mode; lock_many() takes several keys
// exclusively in deadlock-free order.
class ShardedSharedMutex {
 public:
  ShardedSharedMutex(RwLockKind kind, std::size_t stripes);
  // Throws std::invalid_argument on an unknown rwlock name.
  ShardedSharedMutex(std::string_view name, std::size_t stripes);

  void lock(std::uint64_t key) { impl_->Lock(key); }
  bool try_lock(std::uint64_t key) { return impl_->TryLock(key); }
  void unlock(std::uint64_t key) { impl_->Unlock(key); }

  void lock_shared(std::uint64_t key) { impl_->LockShared(key); }
  bool try_lock_shared(std::uint64_t key) {
    return impl_->TryLockShared(key);
  }
  void unlock_shared(std::uint64_t key) { impl_->UnlockShared(key); }

  void lock_many(std::initializer_list<std::uint64_t> keys) {
    impl_->LockMany(keys.begin(), keys.size());
  }
  void unlock_many(std::initializer_list<std::uint64_t> keys) {
    impl_->UnlockMany(keys.begin(), keys.size());
  }

  std::size_t stripes() const { return impl_->Stripes(); }
  std::size_t stripe_of(std::uint64_t key) const {
    return impl_->StripeOf(key);
  }
  std::size_t lock_state_bytes() const { return impl_->LockStateBytes(); }
  std::string name() const { return impl_->Name(); }

 private:
  std::unique_ptr<AnyLockTable> impl_;
};

}  // namespace cna::core

#endif  // CNA_CORE_REGISTRY_H_
