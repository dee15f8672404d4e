// HeldLedger<Node>: one execution context's record of the locks it holds,
// together with the queue nodes those acquisitions use.
//
// Queue locks (MCS, CNA, ...) need a node per acquisition.  The paper notes
// that "those structures can be reused for different lock acquisitions, and
// between different locks" (Section 5); the kernel keeps 4 statically
// preallocated nodes per CPU.  The ledger is that shape: a context owns a
// small fixed set of nodes per node type, and every table and mutex of that
// lock type checks them out on acquisition and returns them on release.  It
// is reached through P::ContextLocal (a thread_local on RealPlatform, a
// per-simulated-CPU instance owned by the running sim::Machine), so no two
// contexts ever share one and its bookkeeping needs no atomic instruction.
//
// Each held entry carries the lock's address (the key: a stripe lock, a
// combining table's publication-list head, a mutex's lock word), the mode,
// the acquire timestamp for hold-time telemetry, and the node.  Keying by
// address is what lets one ledger serve every table of a lock type: table
// B's release can never match a stripe held in table A.
//
// Node lifetime: queue locks link waiters through node addresses, so a node
// never moves while checked out.  kInlineNodes nodes live inside the ledger,
// each on its own cache line; deeper nesting overflows to heap nodes the
// context owns until it dies.  The held entries sit in a separate index in
// acquisition order, so an out-of-order release shifts index entries, not
// nodes.  Nodes are built once and reused (clh.h relies on that: its Unlock
// leaves the handle owning its predecessor's node).  A released node is the
// next one checked out, so a context's non-nested acquisitions keep
// reusing one node.
#ifndef CNA_LOCKTABLE_HELD_LEDGER_H_
#define CNA_LOCKTABLE_HELD_LEDGER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/cacheline.h"

namespace cna::locktable {

enum class HoldMode : std::uint8_t { kExclusive, kShared };

// A lock's acquire/try-acquire/release calls for mode M, so one code path
// serves both modes (the shared forms exist on SharedLockable locks only).
template <HoldMode M, typename L, typename Node>
void LockIn(L& lock, Node& node) {
  if constexpr (M == HoldMode::kShared) {
    lock.LockShared(node);
  } else {
    lock.Lock(node);
  }
}
template <HoldMode M, typename L, typename Node>
bool TryLockIn(L& lock, Node& node) {
  if constexpr (M == HoldMode::kShared) {
    return lock.TryLockShared(node);
  } else {
    return lock.TryLock(node);
  }
}
template <HoldMode M, typename L, typename Node>
void UnlockIn(L& lock, Node& node) {
  if constexpr (M == HoldMode::kShared) {
    lock.UnlockShared(node);
  } else {
    lock.Unlock(node);
  }
}

template <typename Node>
class HeldLedger {
 public:
  // Inline nodes per ledger: lockdep's kMaxDepth, and room for a
  // kInlineTxnKeys-key transaction plus nesting.
  static constexpr std::size_t kInlineNodes = 16;
  static constexpr std::size_t kNotHeld = ~std::size_t{0};
  // acquire_ns of an entry taken while hold-time telemetry was off.
  static constexpr std::uint64_t kUnstamped = ~std::uint64_t{0};

  struct Held {
    const void* lock;
    Node* node;
    std::uint64_t acquire_ns;
    HoldMode mode;
  };

  HeldLedger() {
    index_.reserve(2 * kInlineNodes);
    for (Slot& slot : inline_) {
      index_.push_back(Held{nullptr, &slot.node, kUnstamped,
                            HoldMode::kExclusive});
    }
  }

  HeldLedger(const HeldLedger&) = delete;
  HeldLedger& operator=(const HeldLedger&) = delete;

  // Records a new hold of `lock` and hands out its node.  The only call that
  // can throw (allocating an overflow node past kInlineNodes); it throws
  // before changing anything.  The returned reference (like At()'s) is
  // valid until the ledger next changes; the node's address is stable for
  // the whole hold.
  Held& Checkout(const void* lock, HoldMode mode = HoldMode::kExclusive) {
    if (held_ == index_.size()) {
      Grow();
    }
    Held& h = index_[held_++];
    h.lock = lock;
    h.mode = mode;
    h.acquire_ns = kUnstamped;
    return h;
  }

  // Undoes the newest Checkout (a failed try-lock).
  void Cancel() noexcept { --held_; }

  // Newest-first position of a hold of `lock`, or kNotHeld.
  std::size_t Find(const void* lock) const noexcept {
    for (std::size_t i = held_; i-- > 0;) {
      if (index_[i].lock == lock) {
        return i;
      }
    }
    return kNotHeld;
  }

  // Same, restricted to holds in `mode`.
  std::size_t Find(const void* lock, HoldMode mode) const noexcept {
    for (std::size_t i = held_; i-- > 0;) {
      if (index_[i].lock == lock && index_[i].mode == mode) {
        return i;
      }
    }
    return kNotHeld;
  }

  // Position of the hold of `lock` that uses exactly `node`: for several
  // outstanding holds on one key that complete in any order (the combining
  // table's Submit futures).
  std::size_t FindNode(const void* lock, const Node* node) const noexcept {
    for (std::size_t i = held_; i-- > 0;) {
      if (index_[i].lock == lock && index_[i].node == node) {
        return i;
      }
    }
    return kNotHeld;
  }

  Held& At(std::size_t i) noexcept { return index_[i]; }

  // Ends hold i.  Later holds move down one index slot; their nodes stay
  // where they are.  The released node becomes the next one checked out.
  void Release(std::size_t i) noexcept {
    Node* node = index_[i].node;
    for (; i + 1 < held_; ++i) {
      index_[i] = index_[i + 1];
    }
    index_[held_ - 1].node = node;
    --held_;
  }

  // Holds whose lock lies in [begin, end): what one table's locks account
  // for.  Optionally restricted to one mode.
  std::size_t CountIn(const void* begin, const void* end) const noexcept {
    return static_cast<std::size_t>(
        std::count_if(index_.begin(), index_.begin() + held_,
                      [&](const Held& h) { return Within(h, begin, end); }));
  }
  std::size_t CountIn(const void* begin, const void* end,
                      HoldMode mode) const noexcept {
    return static_cast<std::size_t>(std::count_if(
        index_.begin(), index_.begin() + held_, [&](const Held& h) {
          return h.mode == mode && Within(h, begin, end);
        }));
  }

  std::size_t held() const noexcept { return held_; }
  // Heap nodes allocated because holds nested past kInlineNodes.
  std::size_t overflow_nodes() const noexcept { return overflow_.size(); }

 private:
  // Every node on its own line(s): the line a waiter spins on is shared with
  // nobody, as in the kernel's per-CPU node arrays.
  struct alignas(alignof(Node) > kCacheLineSize ? alignof(Node)
                                                : kCacheLineSize) Slot {
    Node node;
  };

  static bool Within(const Held& h, const void* begin, const void* end) {
    const auto p = reinterpret_cast<std::uintptr_t>(h.lock);
    return p >= reinterpret_cast<std::uintptr_t>(begin) &&
           p < reinterpret_cast<std::uintptr_t>(end);
  }

  // Adds one heap node.  Every allocation happens before the first
  // mutation, so a throw leaves the ledger as it was.
  void Grow() {
    if (index_.size() == index_.capacity()) {
      index_.reserve(2 * index_.size());
    }
    if (overflow_.size() == overflow_.capacity()) {
      overflow_.reserve(std::max<std::size_t>(kInlineNodes,
                                              2 * overflow_.size()));
    }
    auto slot = std::make_unique<Slot>();
    index_.push_back(Held{nullptr, &slot->node, kUnstamped,
                          HoldMode::kExclusive});
    overflow_.push_back(std::move(slot));
  }

  Slot inline_[kInlineNodes];
  // [0, held_): holds in acquisition order.  [held_, size): free nodes,
  // the most recently released first.
  std::vector<Held> index_;
  std::size_t held_ = 0;
  std::vector<std::unique_ptr<Slot>> overflow_;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_HELD_LEDGER_H_
