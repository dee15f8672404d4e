// Runtime lock registry: build any implemented lock by kind or name.
//
// Mirrors how the paper's evaluation selects locks through LiTL's
// LD_PRELOAD interposition -- here a factory keyed by name ("mcs", "cna",
// "c-bo-mcs", "hmcs", ...) over either platform.
#ifndef CNA_CORE_REGISTRY_H_
#define CNA_CORE_REGISTRY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/any_combining_table.h"
#include "core/any_gcr_lock.h"
#include "core/any_lock.h"
#include "core/any_lock_table.h"
#include "core/any_resizable_table.h"
#include "core/any_rwlock.h"
#include "core/any_rwlock_table.h"
#include "locks/clh.h"
#include "locks/cna.h"
#include "locks/cna_rwlock.h"
#include "locks/cohort.h"
#include "locks/cst.h"
#include "locks/hbo.h"
#include "locks/hmcs.h"
#include "locks/mcs.h"
#include "locks/mcscr.h"
#include "locks/tas.h"
#include "locks/ticket.h"
#include "qspin/qspinlock.h"

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

// Invokes `f` with std::type_identity<L>{} where L is the lock class
// implementing `kind` over platform P.  Single point of truth for the
// kind -> type mapping; MakeLock and MakeLockTable are both built on it, so a
// new lock kind added here is automatically constructible as a plain mutex
// and as a sharded lock table.  `f` must return the same type for every lock
// class (typically a type-erased unique_ptr).
template <typename P, typename F>
decltype(auto) WithLockType(LockKind kind, F&& f) {
  using namespace cna::locks;  // NOLINT(build/namespaces)
  switch (kind) {
    case LockKind::kMcs:
      return f(std::type_identity<McsLock<P>>{});
    case LockKind::kCna:
      return f(std::type_identity<CnaLock<P>>{});
    case LockKind::kTas:
      return f(std::type_identity<TasLock<P>>{});
    case LockKind::kTtas:
      return f(std::type_identity<TtasLock<P>>{});
    case LockKind::kBackoffTas:
      return f(std::type_identity<BackoffTasLock<P>>{});
    case LockKind::kTicket:
      return f(std::type_identity<TicketLock<P>>{});
    case LockKind::kPartitionedTicket:
      return f(std::type_identity<PartitionedTicketLock<P>>{});
    case LockKind::kClh:
      return f(std::type_identity<ClhLock<P>>{});
    case LockKind::kHbo:
      return f(std::type_identity<HboLock<P>>{});
    case LockKind::kCBoMcs:
      return f(std::type_identity<CBoMcsLock<P>>{});
    case LockKind::kCTktTkt:
      return f(std::type_identity<CTktTktLock<P>>{});
    case LockKind::kCPtlTkt:
      return f(std::type_identity<CPtlTktLock<P>>{});
    case LockKind::kHmcs:
      return f(std::type_identity<HmcsLock<P>>{});
    case LockKind::kCst:
      return f(std::type_identity<CstLock<P>>{});
    case LockKind::kMcscr:
      return f(std::type_identity<McscrLock<P>>{});
    case LockKind::kQspinMcs:
      return f(
          std::type_identity<qspin::QSpinLock<P, qspin::SlowPathKind::kMcs>>{});
    case LockKind::kQspinCna:
      return f(
          std::type_identity<qspin::QSpinLock<P, qspin::SlowPathKind::kCna>>{});
    case LockKind::kQspinCnaParked:
      return f(std::type_identity<qspin::QSpinLock<
                   P, qspin::SlowPathKind::kCna, qspin::QspinParkedConfig>>{});
  }
  throw std::invalid_argument("WithLockType: unknown LockKind");
}

// Builds a type-erased lock of `kind` over platform P.
template <typename P>
std::unique_ptr<AnyLock> MakeLock(LockKind kind) {
  return WithLockType<P>(
      kind,
      [name = std::string(LockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyLock> {
        return std::make_unique<LockAdapter<P, L>>(name);
      });
}

// Builds a type-erased sharded lock table of `kind` over platform P: the
// keyed, futex-style counterpart of MakeLock (src/locktable/).  Any lock kind
// works, but the point of the table is that one-word kinds (cna, mcs,
// qspin-*) keep the whole namespace compact -- compare PerStripeStateBytes()
// across kinds.
template <typename P>
std::unique_ptr<AnyLockTable> MakeLockTable(
    LockKind kind, const locktable::LockTableOptions& options) {
  return WithLockType<P>(
      kind,
      [&options, name = std::string(LockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyLockTable> {
        return std::make_unique<LockTableAdapter<P, L>>(name, options);
      });
}

// Builds a type-erased *resizable* lock table of `kind` over platform P: the
// adaptive counterpart of MakeLockTable (src/locktable/resizable_lock_table.h).
// Built on the same WithLockType single point of truth, so every lock kind is
// automatically constructible as a self-resizing namespace.  Contention
// detection rides on the stats try-lock probe, so kinds without a try-lock
// path never auto-grow (manual TryResize still works).
template <typename P>
std::unique_ptr<AnyResizableLockTable> MakeResizableLockTable(
    LockKind kind, const locktable::ResizableLockTableOptions& options) {
  return WithLockType<P>(
      kind,
      [&options, name = std::string(LockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyResizableLockTable> {
        return std::make_unique<ResizableLockTableAdapter<P, L>>(name,
                                                                 options);
      });
}

// ---------------------------------------------------------------------------
// Flat combining: the batch-execution counterpart of MakeLockTable.
// ---------------------------------------------------------------------------

// Whether `kind`'s lock class supports the combining layer (it needs a
// try-lock fast path for fast-path/slow-path splitting).
template <typename P>
bool SupportsCombining(LockKind kind) {
  return WithLockType<P>(kind, []<typename L>(std::type_identity<L>) {
    return locks::TryLockable<L>;
  });
}

// Invokes `f` with std::type_identity<locktable::CombiningTable<P, L>>{}
// where L implements `kind`.  Single point of truth for the kind ->
// combining-table mapping, built on WithLockType the way MakeLockTable is:
// any try-lockable kind added there is automatically constructible as a
// combining table.  Throws std::invalid_argument for kinds without a
// try-lock path.
template <typename P, typename F>
decltype(auto) WithCombining(LockKind kind, F&& f) {
  return WithLockType<P>(
      kind, [&f]<typename L>(std::type_identity<L>) -> decltype(auto) {
        if constexpr (locks::TryLockable<L>) {
          return f(std::type_identity<locktable::CombiningTable<P, L>>{});
        } else {
          throw std::invalid_argument(
              "WithCombining: lock kind has no try-lock path (flat combining "
              "needs a stripe fast path)");
          // Unreachable; gives the lambda a consistent return type.
          return f(std::type_identity<locktable::CombiningTable<P, locks::CnaLock<P>>>{});
        }
      });
}

// Builds a type-erased flat-combining table of `kind` over platform P.
template <typename P>
std::unique_ptr<AnyCombiningTable> MakeCombiningTable(
    LockKind kind, const locktable::CombiningTableOptions& options) {
  return WithCombining<P>(
      kind,
      [&options, name = std::string(LockKindName(kind))]<typename C>(
          std::type_identity<C>) -> std::unique_ptr<AnyCombiningTable> {
        return std::make_unique<
            CombiningTableAdapter<P, typename C::LockType>>(name, options);
      });
}

// ---------------------------------------------------------------------------
// Concurrency restriction: GCR-wrapped counterparts of MakeLock.
// ---------------------------------------------------------------------------

// Invokes `f` with std::type_identity<locks::GcrLock<P, L>>{} where L
// implements `kind`.  Single point of truth for the kind -> GCR-wrapped
// mapping, built on WithLockType the way WithCombining is: every lock kind is
// automatically wrappable in concurrency restriction.
template <typename P, typename F>
decltype(auto) WithGcr(LockKind kind, F&& f) {
  return WithLockType<P>(
      kind, [&f]<typename L>(std::type_identity<L>) -> decltype(auto) {
        return f(std::type_identity<locks::GcrLock<P, L>>{});
      });
}

// Builds a type-erased GCR-wrapped lock of `kind` over platform P.  Starts
// disengaged: until Engage() it is the underlying lock plus bookkeeping.
template <typename P>
std::unique_ptr<AnyGcrLock> MakeGcrLock(LockKind kind) {
  return WithGcr<P>(
      kind,
      [name = std::string("gcr-") + std::string(LockKindName(kind))]<typename G>(
          std::type_identity<G>) -> std::unique_ptr<AnyGcrLock> {
        return std::make_unique<GcrLockAdapter<P, typename G::Underlying>>(
            name);
      });
}

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

// Single point of truth for the RwLockKind -> type mapping, mirroring
// WithLockType: MakeRwLock and MakeRwLockTable are both built on it, so a new
// rwlock kind added here is automatically constructible as a shared mutex and
// as a sharded read-write table.
template <typename P, typename F>
decltype(auto) WithRwLockType(RwLockKind kind, F&& f) {
  using namespace cna::locks;  // NOLINT(build/namespaces)
  switch (kind) {
    case RwLockKind::kCnaRw:
      return f(std::type_identity<CnaRwLock<P>>{});
    case RwLockKind::kCnaRwCompact:
      return f(std::type_identity<CnaRwLock<P, CnaRwCompactConfig>>{});
  }
  throw std::invalid_argument("WithRwLockType: unknown RwLockKind");
}

// Builds a type-erased reader-writer lock of `kind` over platform P.
template <typename P>
std::unique_ptr<AnyRwLock> MakeRwLock(RwLockKind kind) {
  return WithRwLockType<P>(
      kind,
      [name = std::string(RwLockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyRwLock> {
        return std::make_unique<RwLockAdapter<P, L>>(name);
      });
}

// Builds a type-erased sharded read-write lock table of `kind` over P: the
// keyed, read-mostly counterpart of MakeLockTable (src/locktable/).
template <typename P>
std::unique_ptr<AnyRwLockTable> MakeRwLockTable(
    RwLockKind kind, const locktable::LockTableOptions& options) {
  return WithRwLockType<P>(
      kind,
      [&options, name = std::string(RwLockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyRwLockTable> {
        return std::make_unique<RwLockTableAdapter<P, L>>(name, options);
      });
}

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
  locktable::ResizableStatsSummary summary() const { return impl_->Summary(); }
  std::string name() const { return impl_->Name(); }

 private:
  std::unique_ptr<AnyResizableLockTable> impl_;
};

// User-facing flat-combining namespace over the real platform: the
// batch-execution counterpart of ShardedMutex.  apply(key, fn) runs fn under
// key's stripe -- on this thread or on a combiner -- exactly once;
// lock(key)/unlock(key) open plain critical sections that coexist with apply
// users (unlock drains the stripe's publication list first).  Construction
// enables the per-stripe combined/pass-through counters, so combined_share()
// reports how much of the workload combiners absorbed.
class ShardedCombiner {
 public:
  ShardedCombiner(LockKind kind, std::size_t stripes);
  // Throws std::invalid_argument on an unknown lock name or a lock without a
  // try-lock path.
  ShardedCombiner(std::string_view name, std::size_t stripes);

  template <typename F>
  void apply(std::uint64_t key, F&& fn) {
    impl_->Apply(
        key,
        [](void* c) { (*static_cast<std::remove_reference_t<F>*>(c))(); },
        std::addressof(fn));
  }

  template <typename F>
  void apply_batch(const std::uint64_t* keys, std::size_t count, F&& fn) {
    impl_->ApplyBatch(
        keys, count,
        [](void* c, std::uint64_t key) {
          (*static_cast<std::remove_reference_t<F>*>(c))(key);
        },
        std::addressof(fn));
  }

  void lock(std::uint64_t key) { impl_->Lock(key); }
  void unlock(std::uint64_t key) { impl_->Unlock(key); }

  std::size_t stripes() const { return impl_->Stripes(); }
  std::size_t stripe_of(std::uint64_t key) const {
    return impl_->StripeOf(key);
  }
  std::size_t lock_state_bytes() const { return impl_->LockStateBytes(); }
  std::size_t combining_budget() const { return impl_->CombiningBudget(); }
  locktable::CombiningStatsSummary combining_summary() const {
    return impl_->CombiningSummary();
  }
  double combined_share() const {
    return impl_->CombiningSummary().CombinedShare();
  }
  std::string name() const { return impl_->Name(); }

 private:
  std::unique_ptr<AnyCombiningTable> impl_;
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
// one stripe; lock(key) is exclusive; lock_many() takes several keys
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
  std::unique_ptr<AnyRwLockTable> impl_;
};

}  // namespace cna::core

#endif  // CNA_CORE_REGISTRY_H_
