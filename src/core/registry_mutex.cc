// The single-lock factories, MakeLock and MakeRwLock, over every kind.
#include <memory>
#include <string>
#include <type_traits>

#include "core/any_lock.h"
#include "core/any_rwlock.h"
#include "core/registry.h"
#include "core/registry_dispatch.h"
#include "platform/real_platform.h"

namespace cna::core {

template <typename P>
std::unique_ptr<AnyLock> MakeLock(LockKind kind) {
  return WithLockType<P>(
      kind,
      [name = std::string(LockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyLock> {
        return std::make_unique<LockAdapter<P, L>>(name);
      });
}

template <typename P>
std::unique_ptr<AnyRwLock> MakeRwLock(RwLockKind kind) {
  return WithRwLockType<P>(
      kind,
      [name = std::string(RwLockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyRwLock> {
        return std::make_unique<RwLockAdapter<P, L>>(name);
      });
}

template std::unique_ptr<AnyLock> MakeLock<RealPlatform>(LockKind);
template std::unique_ptr<AnyRwLock> MakeRwLock<RealPlatform>(RwLockKind);

}  // namespace cna::core
