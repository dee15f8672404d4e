// Type-erased lock-table interface: one runtime-selectable handle over
// locktable::LockTable instantiated with any algorithm in src/locks/.
//
// Mirrors core/any_lock.h: AnyLock erases a single lock behind the pthread
// mutex shape; AnyLockTable erases a whole lock *namespace* behind a
// futex-style keyed shape, so the registry and the C API can hand out sharded
// lock tables by lock name exactly the way they hand out single mutexes.
#ifndef CNA_CORE_ANY_LOCK_TABLE_H_
#define CNA_CORE_ANY_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "locks/lock_api.h"
#include "locktable/lock_table.h"

namespace cna::core {

// Abstract keyed lock namespace.  Lock/Unlock pairs must balance per
// execution context; LockMany/UnlockMany must be passed identical key sets
// (they acquire and release the distinct underlying stripes in the
// deadlock-free sorted order).
class AnyLockTable {
 public:
  virtual ~AnyLockTable() = default;

  virtual void Lock(std::uint64_t key) = 0;
  // Returns false when the stripe is busy *or* the algorithm has no try-lock.
  virtual bool TryLock(std::uint64_t key) = 0;
  virtual void Unlock(std::uint64_t key) = 0;
  virtual bool SupportsTryLock() const = 0;

  // Multi-key transaction surface: all distinct stripes of `keys` are locked
  // in ascending stripe order (released in descending order), so concurrent
  // multi-key callers cannot deadlock.
  virtual void LockMany(const std::uint64_t* keys, std::size_t count) = 0;
  virtual void UnlockMany(const std::uint64_t* keys, std::size_t count) = 0;

  virtual std::size_t Stripes() const = 0;
  virtual std::size_t StripeOf(std::uint64_t key) const = 0;
  // Total shared lock state backing the namespace (the compactness claim).
  virtual std::size_t LockStateBytes() const = 0;
  virtual std::size_t PerStripeStateBytes() const = 0;
  virtual std::string Name() const = 0;
};

// Interface is AnyLockTable, or AnyRwLockTable for RwLockTableAdapter
// (any_rwlock_table.h), which adds the shared-mode overrides.
template <typename P, locks::Lockable L, typename Interface = AnyLockTable>
class LockTableAdapter : public Interface {
 public:
  LockTableAdapter(std::string name, locktable::LockTableOptions options)
      : table_(options), name_(std::move(name)) {}

  void Lock(std::uint64_t key) override { table_.Lock(key); }

  bool TryLock(std::uint64_t key) override {
    if constexpr (locks::TryLockable<L>) {
      return table_.TryLock(key);
    } else {
      return false;
    }
  }

  // Releases an exclusive hold (for a mutex table, any hold).
  void Unlock(std::uint64_t key) override {
    table_.UnlockStripe(table_.StripeOf(key));
  }
  bool SupportsTryLock() const override { return locks::TryLockable<L>; }

  void LockMany(const std::uint64_t* keys, std::size_t count) override {
    if (count <= kInlineStripes) {
      std::size_t stripes[kInlineStripes];
      (void)table_.LockKeysInto(keys, count, stripes);
    } else {
      (void)table_.LockKeys(keys, count);
    }
  }

  // Checked: verifies every stripe is held before releasing any, so misuse
  // throws without half-releasing the transaction.
  void UnlockMany(const std::uint64_t* keys, std::size_t count) override {
    table_.UnlockKeys(keys, count);
  }

  std::size_t Stripes() const override { return table_.stripes(); }
  std::size_t StripeOf(std::uint64_t key) const override {
    return table_.StripeOf(key);
  }
  std::size_t LockStateBytes() const override {
    return table_.LockStateBytes();
  }
  std::size_t PerStripeStateBytes() const override { return L::kStateBytes; }
  std::string Name() const override { return name_; }

  locktable::LockTable<P, L>& table() { return table_; }

 protected:
  locktable::LockTable<P, L> table_;

 private:
  static constexpr std::size_t kInlineStripes =
      locktable::LockTable<P, L>::MultiGuard::kInlineKeys;

  std::string name_;
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_LOCK_TABLE_H_
