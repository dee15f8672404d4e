// Type-erased GCR-wrapped lock: AnyLock plus the restriction controls.
//
// The runtime counterpart of locks::GcrLock for registry/C-API users: any
// lock kind from WithLockType, wrapped in concurrency restriction, behind a
// virtual interface.  Engage/Disengage/SetActiveLimit are safe to call
// concurrently with Lock/Unlock traffic (that is the whole point: a
// telemetry callback flips them while the workload runs).
#ifndef CNA_CORE_ANY_GCR_LOCK_H_
#define CNA_CORE_ANY_GCR_LOCK_H_

#include <cstdint>
#include <string>
#include <utility>

#include "core/any_lock.h"
#include "locks/gcr.h"

namespace cna::core {

class AnyGcrLock : public AnyLock {
 public:
  virtual void Engage() = 0;
  virtual void Disengage() = 0;
  virtual void SetActiveLimit(std::uint32_t n) = 0;
  virtual bool Restricted() const = 0;
  virtual std::uint32_t ActiveLimit() const = 0;
  virtual locks::GcrCountersSnapshot GcrStats() const = 0;
};

template <typename P, locks::Lockable L>
class GcrLockAdapter final : public AnyGcrLock {
  using Wrapped = locks::GcrLock<P, L>;

 public:
  explicit GcrLockAdapter(std::string name) : base_(std::move(name)) {}

  void Lock() override { base_.Lock(); }
  void Unlock() override { base_.Unlock(); }
  bool TryLock() override { return base_.TryLock(); }
  bool SupportsTryLock() const override { return base_.SupportsTryLock(); }
  std::size_t StateBytes() const override { return base_.StateBytes(); }
  std::string Name() const override { return base_.Name(); }

  void Engage() override { base_.impl().Engage(); }
  void Disengage() override { base_.impl().Disengage(); }
  void SetActiveLimit(std::uint32_t n) override {
    base_.impl().SetActiveLimit(n);
  }
  bool Restricted() const override { return impl().Restricted(); }
  std::uint32_t ActiveLimit() const override { return impl().ActiveLimit(); }
  locks::GcrCountersSnapshot GcrStats() const override {
    return impl().Stats();
  }

 private:
  const Wrapped& impl() const {
    return const_cast<LockAdapter<P, Wrapped>&>(base_).impl();
  }

  // Reuses LockAdapter's ledger-backed node handling; the GCR surface
  // reaches through to the wrapped lock via impl().
  LockAdapter<P, Wrapped> base_;
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_GCR_LOCK_H_
