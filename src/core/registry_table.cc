// The lock-table factories -- MakeLockTable (mutex stripes, spinning or
// blocking), MakeRwLockTable (reader-writer stripes), MakeResizableLockTable
// and MakeCombiningTable -- and the adapters that put each table flavor
// behind AnyLockTable.  The four share one unit because every flavor is
// built on LockTable<P, L> over the same kinds: one unit instantiates it
// once per kind, where a unit per flavor would instantiate it three times
// over.  Together they also keep the C API's hot path as it was: GCC
// specialises LockTable::Acquire for single-key callers only when it sees
// several of them, and the resizable table's snapshots are such callers.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "core/any_lock_table.h"
#include "core/registry.h"
#include "core/registry_dispatch.h"
#include "locks/lock_api.h"
#include "locktable/combining.h"
#include "locktable/lock_table.h"
#include "locktable/resizable_lock_table.h"
#include "platform/real_platform.h"

namespace cna::core {

template <typename P, locks::Lockable L>
class LockTableAdapter : public AnyLockTable {
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

  void Unlock(std::uint64_t key) override { table_.Unlock(key); }
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

 protected:
  locktable::LockTable<P, L> table_;

 private:
  static constexpr std::size_t kInlineStripes =
      locktable::LockTable<P, L>::MultiGuard::kInlineKeys;

  std::string name_;
};

// Reader-writer stripes add the shared side; Lock/Unlock and the multi-key
// calls above are the exclusive side (Unlock releases either mode).
template <typename P, locks::SharedLockable L>
class RwLockTableAdapter final : public LockTableAdapter<P, L> {
 public:
  using LockTableAdapter<P, L>::LockTableAdapter;

  void LockShared(std::uint64_t key) override { this->table_.LockShared(key); }
  bool TryLockShared(std::uint64_t key) override {
    return this->table_.TryLockShared(key);
  }
  void UnlockShared(std::uint64_t key) override {
    this->table_.UnlockShared(key);
  }
};

template <typename P, locks::Lockable L>
class ResizableLockTableAdapter final : public AnyLockTable {
 public:
  ResizableLockTableAdapter(std::string name,
                            locktable::ResizableLockTableOptions options)
      : table_(options), name_(std::move(name)) {}

  void Lock(std::uint64_t key) override { table_.Lock(key); }

  bool TryLock(std::uint64_t key) override {
    if constexpr (locks::TryLockable<L>) {
      return table_.TryLock(key);
    } else {
      return false;
    }
  }

  void Unlock(std::uint64_t key) override { table_.Unlock(key); }
  bool SupportsTryLock() const override { return locks::TryLockable<L>; }

  void LockMany(const std::uint64_t* keys, std::size_t count) override {
    table_.LockMany(keys, count);
  }
  void UnlockMany(const std::uint64_t* keys, std::size_t count) override {
    table_.UnlockMany(keys, count);
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

  bool TryResize(std::size_t stripes) override {
    return table_.TryResize(stripes);
  }
  locktable::ResizableStatsSummary ResizeSummary() const override {
    return table_.Summary();
  }

 private:
  locktable::ResizableLockTable<P, L> table_;
  std::string name_;
};

// A combining table has no try-lock and no multi-key calls: those stay
// AnyLockTable's unsupported defaults.
template <typename P, locks::TryLockable L>
class CombiningTableAdapter final : public AnyLockTable {
 public:
  CombiningTableAdapter(std::string name,
                        locktable::CombiningTableOptions options)
      : table_(options), name_(std::move(name)) {}

  void Lock(std::uint64_t key) override { table_.Lock(key); }
  // Drains the stripe's publication list before releasing.
  void Unlock(std::uint64_t key) override { table_.Unlock(key); }
  bool SupportsTryLock() const override { return false; }

  std::size_t Stripes() const override { return table_.stripes(); }
  std::size_t StripeOf(std::uint64_t key) const override {
    return table_.StripeOf(key);
  }
  std::size_t LockStateBytes() const override {
    return table_.LockStateBytes();
  }
  std::size_t PerStripeStateBytes() const override { return L::kStateBytes; }
  std::string Name() const override { return name_; }

  void Apply(std::uint64_t key, void (*fn)(void*), void* ctx) override {
    table_.Apply(key, [fn, ctx] { fn(ctx); });
  }
  void ApplyBatch(const std::uint64_t* keys, std::size_t count,
                  void (*fn)(void*, std::uint64_t), void* ctx) override {
    table_.ApplyBatch(keys, count,
                      [fn, ctx](std::uint64_t key) { fn(ctx, key); });
  }
  locktable::CombiningStatsSummary CombiningSummary() const override {
    return table_.CombiningSummary();
  }

 private:
  locktable::CombiningTable<P, L> table_;
  std::string name_;
};

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

template <typename P>
std::unique_ptr<AnyLockTable> MakeRwLockTable(
    RwLockKind kind, const locktable::LockTableOptions& options) {
  return WithRwLockType<P>(
      kind,
      [&options, name = std::string(RwLockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyLockTable> {
        return std::make_unique<RwLockTableAdapter<P, L>>(name, options);
      });
}

template <typename P>
std::unique_ptr<AnyLockTable> MakeResizableLockTable(
    LockKind kind, const locktable::ResizableLockTableOptions& options) {
  return WithLockType<P>(
      kind,
      [&options, name = std::string(LockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyLockTable> {
        return std::make_unique<ResizableLockTableAdapter<P, L>>(name,
                                                                 options);
      });
}

template <typename P>
std::unique_ptr<AnyLockTable> MakeCombiningTable(
    LockKind kind, const locktable::CombiningTableOptions& options) {
  return WithLockType<P>(
      kind,
      [&options, name = std::string(LockKindName(kind))]<typename L>(
          std::type_identity<L>) -> std::unique_ptr<AnyLockTable> {
        if constexpr (locks::TryLockable<L>) {
          return std::make_unique<CombiningTableAdapter<P, L>>(name, options);
        } else {
          throw std::invalid_argument(
              "MakeCombiningTable: lock kind has no try-lock path (flat "
              "combining needs a stripe fast path)");
        }
      });
}

template std::unique_ptr<AnyLockTable> MakeLockTable<RealPlatform>(
    LockKind, const locktable::LockTableOptions&);
template std::unique_ptr<AnyLockTable> MakeRwLockTable<RealPlatform>(
    RwLockKind, const locktable::LockTableOptions&);
template std::unique_ptr<AnyLockTable> MakeResizableLockTable<RealPlatform>(
    LockKind, const locktable::ResizableLockTableOptions&);
template std::unique_ptr<AnyLockTable> MakeCombiningTable<RealPlatform>(
    LockKind, const locktable::CombiningTableOptions&);

}  // namespace cna::core
