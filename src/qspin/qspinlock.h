// qspinlock: reproduction of the Linux kernel spin lock (Section 3), with a
// pluggable slow path -- MCS ("stock") or CNA (the paper's kernel patch).
//
// The multi-path structure follows queued_spin_lock_slowpath():
//   1. Fast path: CAS the whole word 0 -> LOCKED (test-and-set style).
//   2. Pending path: a single near-waiter sets the pending bit and spins on
//      the word until the holder leaves, avoiding the queue entirely.
//   3. Queue path: further waiters enqueue through per-CPU nodes (4 nesting
//      levels per CPU, statically preallocated, exactly like the kernel),
//      with the queue tail *encoded into the lock word* so the whole lock
//      stays 4 bytes.
//
// The queue head, once it observes locked+pending clear, claims the locked
// byte and immediately passes queue-headship to its successor, which then
// spins on the word while the new holder runs its critical section.  The CNA
// integration replaces only this headship handover: instead of waking the
// FIFO successor, it runs CnaLock's handover policy (locks::CnaPolicy) on the
// per-CPU queue nodes (the paper: "we modified the slow path acquisition
// function ... to use CNA instead of MCS", leaving unlock and the fast path
// intact).  This file keeps only the lock word's part: the tail codes, the
// locked and pending bits, and reinstalling the secondary queue as the main
// queue.
//
// Unlock is a single store clearing the locked byte -- "the release of the
// spin lock does not involve queue nodes".
#ifndef CNA_QSPIN_QSPINLOCK_H_
#define CNA_QSPIN_QSPINLOCK_H_

#include <cstddef>
#include <atomic>
#include <cstdint>

#include "base/cacheline.h"
#include "locks/cna.h"
#include "qspin/qspin_word.h"

namespace cna::qspin {

// Which algorithm manages the waiter queue in the slow path.
enum class SlowPathKind {
  kMcs,  // stock kernel
  kCna,  // the paper's patch (https://lwn.net/Articles/778235)
};

// CNA slow-path tuning: the paper's base policy, as CnaLock runs it.
struct QspinCnaDefaultConfig : locks::CnaPaperBaseConfig {
  // Spin-then-park for queued waiters (kernel-faithful scope: only NON-head
  // queued waiters ever park; the queue head and the pending waiter keep
  // spinning on the word, as in the kernel).  After kParkSpinBudget polite
  // spins a waiter publishes park intent on its QNode and blocks
  // (platform/park.h) until the predecessor's headship grant unparks it.
  // Compile-time so the spinning build carries zero parking code.
  static constexpr bool kParkWaiters = false;
  static constexpr std::uint32_t kParkSpinBudget = 512;
  // Liveness backstop only; the grant/park Dekker protocol is lost-proof.
  static constexpr std::uint64_t kParkTimeoutNs = 2'000'000;
};

// The parked flavor: same CNA slow path, queued waiters block past the spin
// budget.  The right choice at heavy oversubscription, where a spinning
// non-head waiter's timeslice is stolen from the lock holder.
struct QspinParkedConfig : QspinCnaDefaultConfig {
  static constexpr bool kParkWaiters = true;
};

// Per-CPU queue node storage shared by all qspinlocks over platform P, like
// the kernel's static per-CPU qnodes.  "Each CPU" is each simulated CPU under
// SimPlatform and each thread (dense thread id) under RealPlatform.
template <typename P>
struct QSpinNodes {
  struct alignas(kCacheLineSize) QNode {
    // The four fields of locks::CnaPolicy's queue node; spin carries the
    // headship grant.
    typename P::template Atomic<std::uintptr_t> spin{0};
    typename P::template Atomic<int> socket{-1};
    typename P::template Atomic<QNode*> sec_tail{nullptr};
    typename P::template Atomic<QNode*> next{nullptr};
    // Park intent (configs with kParkWaiters): 1 while the owner is blocked
    // (or about to block) waiting for headship; cleared by the granter's
    // exchange or by the owner on exit.  Also the park/wake word.
    typename P::template Atomic<std::uint32_t> park{0};
    // Written by the owning CPU before the node is published via the tail
    // exchange; read by others only after acquiring through the word.
    std::uint32_t tail_code = 0;
  };

  struct PerCpu {
    QNode nodes[kMaxNesting];
    int depth = 0;  // nesting level in use on this CPU
  };

  static constexpr int kMaxCpus = 1024;

  static PerCpu& Of(int cpu) {
    static PerCpu table[kMaxCpus];
    return table[static_cast<std::size_t>(cpu) %
                 static_cast<std::size_t>(kMaxCpus)];
  }

  static QNode* Decode(std::uint32_t tail_bits) {
    return &Of(TailCpu(tail_bits)).nodes[TailIdx(tail_bits)];
  }
};

template <typename P, SlowPathKind kKind, typename Cfg = QspinCnaDefaultConfig>
class QSpinLock {
  using Nodes = QSpinNodes<P>;
  using QNode = typename Nodes::QNode;

 public:
  struct Handle {};  // queue nodes are per-CPU, not per-acquisition

  static constexpr std::size_t kStateBytes = sizeof(std::uint32_t);
  static constexpr bool kHasTryLock = true;

  QSpinLock() = default;
  QSpinLock(const QSpinLock&) = delete;
  QSpinLock& operator=(const QSpinLock&) = delete;

  void Lock(Handle&) { Lock(); }
  void Unlock(Handle&) { Unlock(); }
  bool TryLock(Handle&) { return TryLock(); }

  void Lock() {
    std::uint32_t expected = 0;
    if (val_.compare_exchange_strong(expected, kLockedVal,
                                     std::memory_order_acquire)) {
      return;  // fast path
    }
    SlowPath();
  }

  bool TryLock() {
    std::uint32_t expected = 0;
    return val_.compare_exchange_strong(expected, kLockedVal,
                                        std::memory_order_acquire);
  }

  void Unlock() {
    // Kernel: smp_store_release of the locked byte.  Equivalent here: the
    // locked byte is only ever 0 or 1 and only the holder clears it.
    val_.fetch_sub(kLockedVal, std::memory_order_release);
  }

  // Raw word, for tests and the lockstat-style introspection.
  std::uint32_t RawValue() const {
    return val_.load(std::memory_order_acquire);
  }

 private:
  void SlowPath() {
    // Pending path: if the lock is merely held (no pending, no queue), become
    // the single spinning near-waiter.
    std::uint32_t v = val_.load(std::memory_order_acquire);
    if (v == kLockedVal) {
      std::uint32_t expected = v;
      if (val_.compare_exchange_strong(expected, kLockedVal | kPendingBit,
                                       std::memory_order_acquire)) {
        // Wait for the holder to go away, then trade pending for locked.
        while (IsLocked(val_.load(std::memory_order_acquire))) {
          P::Pause();
        }
        val_.fetch_add(kLockedVal - kPendingBit, std::memory_order_acquire);
        return;
      }
    } else if (v == 0) {
      std::uint32_t expected = 0;
      if (val_.compare_exchange_strong(expected, kLockedVal,
                                       std::memory_order_acquire)) {
        return;  // became free in the meantime
      }
    }
    QueuePath();
  }

  void QueuePath() {
    const int cpu = P::CpuId();
    typename Nodes::PerCpu& pc = Nodes::Of(cpu);
    if (pc.depth >= kMaxNesting) {
      // Nesting overflow: like the kernel, fall back to spinning directly on
      // the word (no queue fairness, but correct).
      for (;;) {
        std::uint32_t v = val_.load(std::memory_order_acquire);
        if ((v & (kLockedMask | kPendingBit)) == 0) {
          std::uint32_t expected = v;
          if (val_.compare_exchange_strong(expected, v | kLockedVal,
                                           std::memory_order_acquire)) {
            return;
          }
        }
        P::Pause();
      }
    }
    const int idx = pc.depth++;
    QNode* me = &pc.nodes[idx];
    me->spin.store(0, std::memory_order_relaxed);
    me->socket.store(-1, std::memory_order_relaxed);
    me->sec_tail.store(nullptr, std::memory_order_relaxed);
    me->next.store(nullptr, std::memory_order_relaxed);
    if constexpr (Cfg::kParkWaiters) {
      me->park.store(0, std::memory_order_relaxed);
    }
    me->tail_code = EncodeTail(cpu, idx);

    const std::uint32_t old = ExchangeTail(me->tail_code);
    if (HasTail(old)) {
      // Predecessor exists: link in and wait for queue headship.
      QNode* link = me;
      if constexpr (kKind == SlowPathKind::kCna) {
        const int my_socket = P::CurrentSocket();
        me->socket.store(my_socket, std::memory_order_relaxed);
        link = Policy::Tagged(me, my_socket);
      }
      QNode* prev = Nodes::Decode(old & kTailMask);
      prev->next.store(link, std::memory_order_release);
      if constexpr (Cfg::kParkWaiters) {
        WaitForHeadship(me);
      } else {
        while (me->spin.load(std::memory_order_acquire) == 0) {
          P::Pause();
        }
      }
    } else {
      // Head, empty secondary queue; a new queue starts in NUMA mode.
      me->spin.store(Policy::kGrantNuma, std::memory_order_relaxed);
    }

    // Queue head: wait for the holder and any pending waiter to drain.
    std::uint32_t v;
    while (((v = val_.load(std::memory_order_acquire)) &
            (kLockedMask | kPendingBit)) != 0) {
      P::Pause();
    }

    // Claim the lock and hand queue-headship onward.
    const std::uintptr_t my_spin = me->spin.load(std::memory_order_relaxed);
    if ((v & kTailMask) == me->tail_code) {
      // We are the last queued waiter.
      if (!Policy::HasSecondary(my_spin)) {
        // Secondary queue empty: uninstall the tail and take the lock in one
        // CAS; the queue dissolves.
        std::uint32_t expected = v;
        if (val_.compare_exchange_strong(expected, kLockedVal,
                                         std::memory_order_acquire)) {
          --pc.depth;
          return;
        }
      } else {
        // CNA: main queue drained but the secondary queue has waiters; make
        // the secondary queue the new main queue (its tail's code goes into
        // the word) and wake its head.
        QNode* sec_head = reinterpret_cast<QNode*>(my_spin);
        QNode* sec_tail = sec_head->sec_tail.load(std::memory_order_relaxed);
        std::uint32_t expected = v;
        if (val_.compare_exchange_strong(expected,
                                         kLockedVal | sec_tail->tail_code,
                                         std::memory_order_acquire)) {
          Policy::PassToSecondaryHead(sec_head);
          --pc.depth;
          return;
        }
      }
      // CAS failed: a new waiter enqueued behind us; fall through.
    }
    val_.fetch_or(kLockedVal, std::memory_order_acquire);
    QNode* next;
    while ((next = me->next.load(std::memory_order_acquire)) == nullptr) {
      P::Pause();
    }
    PassHeadship(me, next);
    --pc.depth;
  }

  // Hand queue-headship from `me` to its linked successor `next_raw`.  MCS:
  // FIFO.  CNA: the policy's handover.
  void PassHeadship(QNode* me, QNode* next_raw) {
    if constexpr (kKind == SlowPathKind::kMcs) {
      GrantHeadship(next_raw, Policy::kGrantNuma);
    } else {
      Policy::PassOwnership(*me, next_raw,
                            me->spin.load(std::memory_order_relaxed));
    }
  }

  // Grants queue-headship: stores the spin word, then (parked builds) wakes
  // the grantee if it published park intent.  Dekker pairing with
  // WaitForHeadship: the waiter does "park.store(1); spin recheck", the
  // granter does "spin store; park exchange" -- both words seq_cst, so
  // whichever side runs second is guaranteed to see the other's write and
  // either the waiter never sleeps or the granter issues the wake.
  static void GrantHeadship(QNode* n, std::uintptr_t spin_val) {
    if constexpr (Cfg::kParkWaiters) {
      n->spin.store(spin_val, std::memory_order_seq_cst);
      if (n->park.exchange(0, std::memory_order_seq_cst) != 0) {
        P::UnparkOne(&n->park);  // address-keyed; QNodes are static per-CPU
      }
    } else {
      n->spin.store(spin_val, std::memory_order_release);
    }
  }
  using Policy = locks::CnaPolicy<P, Cfg, QNode, GrantHeadship>;

  // Bounded spin, then park on the per-CPU QNode until GrantHeadship.
  void WaitForHeadship(QNode* me) {
    for (std::uint32_t s = 0; s < Cfg::kParkSpinBudget; ++s) {
      if (me->spin.load(std::memory_order_acquire) != 0) {
        return;
      }
      P::Pause();
    }
    for (;;) {
      me->park.store(1, std::memory_order_seq_cst);
      if (me->spin.load(std::memory_order_seq_cst) != 0) {
        me->park.store(0, std::memory_order_relaxed);
        return;
      }
      (void)P::Park(&me->park, 1u, Cfg::kParkTimeoutNs);
      if (me->spin.load(std::memory_order_acquire) != 0) {
        // Granted: the granter's exchange already consumed (or will consume)
        // the intent; clear defensively for the timeout path.
        me->park.store(0, std::memory_order_relaxed);
        return;
      }
    }
  }

  // Atomically replace the tail bits, preserving locked/pending (the
  // kernel's xchg_tail, done here as a CAS loop on the full word).
  std::uint32_t ExchangeTail(std::uint32_t tail_code) {
    std::uint32_t v = val_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint32_t desired = (v & ~kTailMask) | tail_code;
      if (val_.compare_exchange_strong(v, desired,
                                       std::memory_order_acq_rel)) {
        return v;
      }
    }
  }

  typename P::template Atomic<std::uint32_t> val_{0};
};

}  // namespace cna::qspin

#endif  // CNA_QSPIN_QSPINLOCK_H_
