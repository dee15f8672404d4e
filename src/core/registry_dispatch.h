// The lock-kind -> lock-type mapping behind the registry's factories.
//
// Private to the factory translation units (registry_*.cc): every call of
// WithLockType instantiates its callback for all 18 kinds, so including this
// header anywhere else compiles the matrix a second time.  Callers use the
// factory declarations in core/registry.h instead.
#ifndef CNA_CORE_REGISTRY_DISPATCH_H_
#define CNA_CORE_REGISTRY_DISPATCH_H_

#include <stdexcept>
#include <type_traits>

#include "core/registry.h"
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

// Invokes `f` with std::type_identity<L>{} where L is the lock class
// implementing `kind` over platform P.  Single point of truth for the
// kind -> type mapping; every LockKind factory is built on it, so a new lock
// kind added here is automatically constructible as a plain mutex, a GCR
// mutex and every table flavor.  `f` must return the same type for every
// lock class (typically a type-erased unique_ptr).
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

// The RwLockKind -> type mapping, mirroring WithLockType: MakeRwLock and
// MakeRwLockTable are both built on it, so a new rwlock kind added here is
// automatically constructible as a shared mutex and as a sharded read-write
// table.
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

}  // namespace cna::core

#endif  // CNA_CORE_REGISTRY_DISPATCH_H_
