// Type-erased lock-table interface: one runtime-selectable handle over every
// table flavor in src/locktable/ instantiated with any algorithm in
// src/locks/.
//
// Mirrors core/any_lock.h: AnyLock erases a single lock behind the pthread
// mutex shape; AnyLockTable erases a whole lock *namespace* behind a
// futex-style keyed shape, so the registry and the C API can hand out sharded
// lock tables by lock name exactly the way they hand out single mutexes.
//
// One interface serves every flavor: fixed tables (mutex or reader-writer
// stripes, spinning or blocking), resizable tables and combining tables.
// The factory that built a table picks its flavor (core/registry.h); a call
// the flavor lacks -- LockShared on a mutex table, TryResize on a fixed one,
// Apply on a non-combining one -- throws std::invalid_argument, which the C
// API reports as EINVAL.  The adapters live with their factories
// (core/registry_table.cc), so including this header instantiates nothing.
#ifndef CNA_CORE_ANY_LOCK_TABLE_H_
#define CNA_CORE_ANY_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "locktable/resizable_lock_table.h"
#include "locktable/table_stats.h"

namespace cna::core {

// Abstract keyed lock namespace.  Lock/Unlock pairs must balance per
// execution context; LockMany/UnlockMany must be passed identical key sets
// (they acquire and release the distinct underlying stripes in the
// deadlock-free sorted order).  On a resizable table Stripes()/StripeOf()/
// LockStateBytes() describe the *current* snapshot and are advisory under
// concurrent resizing.
class AnyLockTable {
 public:
  virtual ~AnyLockTable() = default;

  // --- Every flavor ---

  // Exclusive acquisition of key's stripe.
  virtual void Lock(std::uint64_t key) = 0;
  // Returns false when the stripe is busy (or, on a resizable table,
  // mid-migration) *or* the algorithm has no try-lock.
  virtual bool TryLock(std::uint64_t /*key*/) {
    Unsupported("TryLock");
  }
  // Releases this context's newest hold of key's stripe, in whichever mode
  // it was taken (a mutex stripe has one).  Throws std::logic_error when this
  // context holds the stripe in neither mode.
  virtual void Unlock(std::uint64_t key) = 0;
  virtual bool SupportsTryLock() const = 0;

  // Multi-key transaction surface: all distinct stripes of `keys` are locked
  // exclusively in ascending stripe order (released in descending order), so
  // concurrent multi-key callers cannot deadlock.
  virtual void LockMany(const std::uint64_t* /*keys*/,
                        std::size_t /*count*/) {
    Unsupported("LockMany");
  }
  virtual void UnlockMany(const std::uint64_t* /*keys*/,
                          std::size_t /*count*/) {
    Unsupported("UnlockMany");
  }

  virtual std::size_t Stripes() const = 0;
  virtual std::size_t StripeOf(std::uint64_t key) const = 0;
  // Total shared lock state backing the namespace (the compactness claim).
  virtual std::size_t LockStateBytes() const = 0;
  virtual std::size_t PerStripeStateBytes() const = 0;
  virtual std::string Name() const = 0;

  // --- Reader-writer stripes: the shared side ---

  virtual void LockShared(std::uint64_t /*key*/) {
    Unsupported("LockShared");
  }
  // Returns false when a writer holds or waits on the stripe.
  virtual bool TryLockShared(std::uint64_t /*key*/) {
    Unsupported("TryLockShared");
  }
  // Throws std::logic_error without a shared hold of key's stripe.
  virtual void UnlockShared(std::uint64_t /*key*/) {
    Unsupported("UnlockShared");
  }

  // --- Resizable tables ---

  // Manual resize attempt (policy-clamped); false if another resize is in
  // flight or the size would not change.
  virtual bool TryResize(std::size_t /*stripes*/) {
    Unsupported("TryResize");
  }

  // --- Combining tables ---
  //
  // Apply executes fn(ctx) under key's stripe -- possibly on another thread
  // acting as combiner -- and returns after it ran exactly once.  ApplyBatch
  // runs fn(ctx, key) for every key, each distinct stripe acquired once.
  // Closures cross the virtual (and C) boundary as a context pointer plus a
  // function pointer, the only closure shape C can express.  On a combining
  // table Unlock drains the stripe's publication list before releasing.

  virtual void Apply(std::uint64_t /*key*/, void (* /*fn*/)(void*),
                     void* /*ctx*/) {
    Unsupported("Apply");
  }
  virtual void ApplyBatch(const std::uint64_t* /*keys*/, std::size_t /*count*/,
                          void (* /*fn*/)(void*, std::uint64_t),
                          void* /*ctx*/) {
    Unsupported("ApplyBatch");
  }

  // --- Flavor counters: all zero on a table of another flavor ---

  virtual locktable::ResizableStatsSummary ResizeSummary() const {
    return {};
  }
  virtual locktable::CombiningStatsSummary CombiningSummary() const {
    return {};
  }

 protected:
  [[noreturn]] static void Unsupported(const char* call) {
    throw std::invalid_argument(std::string("core::AnyLockTable: ") + call +
                                " is not a call of this table's flavor");
  }
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_LOCK_TABLE_H_
