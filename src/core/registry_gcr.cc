// The GCR-wrapped mutex factory, MakeGcrLock, over every kind.
#include <memory>
#include <string>
#include <type_traits>

#include "core/any_gcr_lock.h"
#include "core/registry.h"
#include "core/registry_dispatch.h"
#include "platform/real_platform.h"

namespace cna::core {

template <typename P>
std::unique_ptr<AnyGcrLock> MakeGcrLock(LockKind kind) {
  return WithLockType<P>(
      kind,
      [name = "gcr-" + std::string(LockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyGcrLock> {
        return std::make_unique<GcrLockAdapter<P, L>>(name);
      });
}

template std::unique_ptr<AnyGcrLock> MakeGcrLock<RealPlatform>(LockKind);

}  // namespace cna::core
