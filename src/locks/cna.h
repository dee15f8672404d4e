// CNA: Compact NUMA-Aware lock (Dice & Kogan, EuroSys 2019).
//
// The paper's primary contribution, implemented exactly after the pseudo-code
// in Figures 2-5 and the optimizations of Section 6.
//
// CNA is an MCS variant whose shared state is a single word (the tail of the
// main queue) and whose acquisition path performs exactly one atomic
// instruction (SWAP), yet it is NUMA-aware: on unlock, the holder looks for
// the first waiter running on its own socket, moves the "remote" waiters
// crossed on the way into a *secondary queue*, and hands the lock over
// locally.  The secondary queue is threaded through the waiters' own nodes:
//   * a node's `spin` field is 0 while waiting; on handover it receives
//     either 1 ("you hold the lock, the secondary queue is empty") or a
//     pointer to the secondary queue's head ("you hold the lock and inherit
//     this secondary queue") -- Section 4's trick of reusing the spin field
//     so the lock itself stays one word;
//   * the secondary head's `sec_tail` field caches the secondary tail so
//     appending segments and re-splicing are O(1).
// Long-term fairness: with low probability (keep_lock_local() == 0, i.e.
// rand & kKeepLocalMask == 0) the holder flushes the secondary queue back
// into the main queue ahead of its successor, so remote waiters cannot
// starve.  The secondary queue is also flushed when no same-socket successor
// exists (Figure 1(g)).
//
// Handover mode (Section 6's shuffle reduction, made adaptive).  While the
// secondary queue is empty the lock is in one of two modes, carried in the
// grant value written into the successor's `spin` and, while the lock is
// free, in the lock word itself:
//   * NUMA mode (grant 1, free word nullptr -- the paper's values, and the
//     zero-initialized lock): every release runs find_successor();
//   * FIFO mode (grant 2, free word 2): a release is an MCS handover, and
//     with probability 1/(kShuffleMask+1) a NUMA-mode release instead.
// Only a NUMA-mode walk that meets exactly one waiter, on another socket,
// drops to FIFO mode: there is nothing to reorder.  Every other NUMA-mode
// release, and every secondary-queue flush, hands over in NUMA mode.  So a
// lightly contended lock stays in FIFO mode across busy periods, and a lock
// whose queue always holds two or more waiters stays in NUMA mode.
// kShuffleReduction = false never enters FIFO mode: the paper's base CNA
// exactly.
//
// The handover policy (CnaPolicy) is written once over a queue-node type:
// CnaLock runs it, and so does the qspinlock's CNA slow path.
//
// Configuration is a compile-time policy so that the lock object itself stays
// exactly one word -- asserting the paper's headline space claim in the type
// system.
#ifndef CNA_LOCKS_CNA_H_
#define CNA_LOCKS_CNA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "base/cacheline.h"
#include "locks/cna_stats.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cna::locks {

// Default configuration: the paper's constants, with both Section 6
// optimizations below switched on.  The paper's base CNA
// (CnaPaperBaseConfig) sets kShuffleReduction and kEncodeSocketInNext to
// false.
struct CnaDefaultConfig {
  // THRESHOLD (Figure 5): keep_lock_local() == rand & mask; the secondary
  // queue is flushed with probability 1/65536 per handover.
  static constexpr std::uint64_t kKeepLocalMask = 0xffff;
  // Section 6 "shuffle reduction", as the FIFO handover mode described at
  // the top of this file: under light contention the queue shuffling is not
  // repaid by locality (Figure 9's "CNA (opt)").
  static constexpr bool kShuffleReduction = true;
  // THRESHOLD2 (Section 6): the paper's experiments use 0xff.  A FIFO-mode
  // release probes with a NUMA-mode release with probability 1/(mask+1).
  static constexpr std::uint64_t kShuffleMask = 0xff;
  // Section 6, last optimization: draw the random number once, store it in a
  // thread-local counter and decrement per handover instead of drawing per
  // handover.  Off by default (paper leaves it as an engineering tweak).
  static constexpr bool kCounterFairness = false;
  // Section 6, first optimization: "encode the socket of a thread in the
  // next pointer of its predecessor" -- queue nodes are cache-line aligned,
  // so the low 6 pointer bits carry socket+1 and find_successor() can skip
  // the cache miss on the successor's node when deciding locality.
  static constexpr bool kEncodeSocketInNext = true;
  // Update locks::GlobalCnaCounters() on every release (Section 7.1.1's
  // queue-alteration statistics).  Off by default: zero instrumentation.
  static constexpr bool kCollectStats = false;
  // Record slow-path wait time into the telemetry registry and emit trace
  // events for handoffs/queue moves (src/telemetry/).  Off by default: the
  // default build compiles no telemetry code into the lock at all, and the
  // lock stays exactly one word either way (the guard test asserts it).
  static constexpr bool kTelemetry = false;
};

// The paper's base CNA (Sections 4-5): the defaults without the handover mode
// and the socket tags.  The qspinlock's CNA slow path runs this policy.
struct CnaPaperBaseConfig : CnaDefaultConfig {
  static constexpr bool kShuffleReduction = false;
  static constexpr bool kEncodeSocketInNext = false;
};

// Fully observable build: Section 7.1.1 counters plus wait-time histograms
// and trace events.  Runtime cost is one relaxed flag load per slow-path
// entry/handover when telemetry is globally disabled.
struct CnaTelemetryConfig : CnaDefaultConfig {
  static constexpr bool kCollectStats = true;
  static constexpr bool kTelemetry = true;
};

// CNA's handover policy over a queue of CNA nodes, shared by CnaLock (whose
// queue passes the lock) and the qspinlock's CNA slow path (whose queue
// passes headship).  Node has CnaLock::Handle's four fields; kGrant publishes
// a grant into a node's spin (a release store, plus an unpark for a parked
// qspinlock waiter).  Each lock keeps the code for its own lock word and
// calls PassOwnership() once a successor is linked behind its node.
template <typename P, typename Cfg, typename Node,
          void (*kGrant)(Node*, std::uintptr_t)>
class CnaPolicy {
 public:
  // --- Handover mode (see the top of this file). ---
  // Grant values for an empty secondary queue.
  static constexpr std::uintptr_t kGrantNuma = 1;
  static constexpr std::uintptr_t kGrantFifo = 2;

  static bool HasSecondary(std::uintptr_t spin) { return spin > kGrantFifo; }

  // --- Socket-in-next-pointer tagging (Section 6, first optimization). ---
  // Nodes are 64-byte aligned, so the low 6 bits of a next pointer are free;
  // they carry socket+1 (0 = no tag, fall back to the socket field).
  static Node* Tagged(Node* n, int socket) {
    if constexpr (Cfg::kEncodeSocketInNext) {
      const auto tag = static_cast<std::uintptr_t>(socket + 1);
      if (tag <= kSocketTagMask) {
        return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(n) |
                                       tag);
      }
    }
    return n;
  }

  static Node* Ptr(Node* raw) {
    if constexpr (Cfg::kEncodeSocketInNext) {
      return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(raw) &
                                     ~kSocketTagMask);
    } else {
      return raw;
    }
  }

  // Figure 4 once a successor is linked, with the FIFO-mode block before the
  // successor selection.  `next_raw` is the (possibly tagged) value read from
  // me.next; `spin` is the caller's copy of me.spin.
  static void PassOwnership(Node& me, Node* next_raw, std::uintptr_t spin) {
    if constexpr (Cfg::kShuffleReduction) {
      // FIFO mode: an MCS handover that keeps the mode, except that with
      // probability 1/(kShuffleMask+1) the release probes in NUMA mode.
      if (spin == kGrantFifo) {
        if ((P::Random() & Cfg::kShuffleMask) != 0) {
          kGrant(Ptr(next_raw), kGrantFifo);
          Count(&CnaEventCounters::releases);
          Count(&CnaEventCounters::shuffle_skips);
          Count(&CnaEventCounters::fifo_handovers);
          TraceHandoff(telemetry::TraceEventType::kHandoffFifo);
          return;
        }
        spin = kGrantNuma;
      }
    }

    Node* succ = nullptr;
    if (KeepLockLocal() &&
        (succ = FindSuccessor(me, next_raw, spin)) != nullptr) {
      // Same-socket successor found: pass ownership together with the
      // current secondary-queue designator (NUMA-mode grant or head
      // pointer) -- Figure 1(b)/(d).
      kGrant(succ, spin);
      Count(&CnaEventCounters::local_handovers);
      TraceHandoff(telemetry::TraceEventType::kHandoffLocal);
    } else if (HasSecondary(spin)) {
      // Fairness flush (or no local successor): splice the secondary queue in
      // front of our main-queue successor and hand ownership to its head --
      // Figure 1(g).  succ->sec_tail need not be cleared: the head is about
      // to own the queue and will never read it (paper, end of Section 5).
      // The raw (possibly socket-tagged) next value is spliced verbatim so
      // the tag survives for later traversals.
      succ = reinterpret_cast<Node*>(spin);
      succ->sec_tail.load(std::memory_order_relaxed)
          ->next.store(next_raw, std::memory_order_relaxed);
      kGrant(succ, kGrantNuma);
      Count(&CnaEventCounters::secondary_flushes);
      TraceHandoff(telemetry::TraceEventType::kHandoffSecondary);
    } else {
      // Secondary queue empty: plain MCS handover, in FIFO mode if
      // find_successor() met a lone remote waiter, else in NUMA mode (this
      // includes a keep_lock_local() fairness draw).
      kGrant(Ptr(next_raw), spin);
      Count(&CnaEventCounters::fifo_handovers);
      TraceHandoff(telemetry::TraceEventType::kHandoffFifo);
    }
    Count(&CnaEventCounters::releases);
  }

  // The main queue drained and the lock word now names the secondary tail:
  // the secondary queue is the main queue.  Hand ownership to its head.
  static void PassToSecondaryHead(Node* sec_head) {
    kGrant(sec_head, kGrantNuma);
    Count(&CnaEventCounters::releases);
    Count(&CnaEventCounters::secondary_flushes);
    TraceHandoff(telemetry::TraceEventType::kHandoffSecondary);
  }

  // Section 7.1.1's event counters; compiled out unless Cfg::kCollectStats.
  static void Count(std::atomic<std::uint64_t> CnaEventCounters::*counter,
                    std::uint64_t n = 1) {
    if constexpr (Cfg::kCollectStats) {
      (GlobalCnaCounters().*counter).fetch_add(n, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::uintptr_t kSocketTagMask = kCacheLineSize - 1;

  // Socket of the node `node`, preferring the tag carried by the raw next
  // value that led to it (avoids touching the node's cache line).
  static int SocketOf(Node* raw, Node* node) {
    if constexpr (Cfg::kEncodeSocketInNext) {
      const auto tag = reinterpret_cast<std::uintptr_t>(raw) & kSocketTagMask;
      if (tag != 0) {
        return static_cast<int>(tag) - 1;
      }
    }
    return node->socket.load(std::memory_order_acquire);
  }

  // Telemetry-only: classify the handover / queue move in the event trace.
  // Compiles to nothing unless Cfg::kTelemetry; the socket/tid lookups are
  // reached only with tracing switched on at runtime.
  static void TraceHandoff(telemetry::TraceEventType type,
                           std::uint64_t arg = 0) {
    if constexpr (Cfg::kTelemetry) {
      if (telemetry::TraceEnabled()) {
        telemetry::TraceEmit(type, P::CurrentSocket(), P::CpuId(), arg);
      }
    }
  }

  // Figure 5's find_successor(): walk the main queue looking for the first
  // waiter on our socket; move everything crossed on the way into the
  // secondary queue (appending to it if it already exists).  `spin` is
  // updated in place when the secondary queue is created here, or set to the
  // FIFO-mode grant when the walk meets one waiter, on another socket, and
  // the secondary queue is empty: there is nothing to reorder.
  static Node* FindSuccessor(Node& me, Node* next_raw, std::uintptr_t& spin) {
    Node* next = Ptr(next_raw);
    int my_socket = me.socket.load(std::memory_order_relaxed);
    if (my_socket == -1) {
      // We took ownership without waiting and never recorded our socket.
      my_socket = P::CurrentSocket();
    }
    if (SocketOf(next_raw, next) == my_socket) {
      return next;  // immediate successor is local: nothing to move
    }
    Node* sec_head = next;
    Node* sec_tail = next;
    std::uint64_t segment_len = 1;
    Node* cur_raw = next->next.load(std::memory_order_acquire);
    while (Ptr(cur_raw) != nullptr) {
      Node* cur = Ptr(cur_raw);
      if (SocketOf(cur_raw, cur) == my_socket) {
        // Move [sec_head .. sec_tail] into the secondary queue.
        if (HasSecondary(spin)) {
          // Append segment behind the existing secondary tail (untagged:
          // secondary nodes keep their socket in the socket field).
          reinterpret_cast<Node*>(spin)
              ->sec_tail.load(std::memory_order_relaxed)
              ->next.store(sec_head, std::memory_order_relaxed);
        } else {
          // Secondary queue was empty: the segment head becomes its head.
          spin = reinterpret_cast<std::uintptr_t>(sec_head);
          me.spin.store(spin, std::memory_order_relaxed);
        }
        sec_tail->next.store(nullptr, std::memory_order_relaxed);
        reinterpret_cast<Node*>(spin)->sec_tail.store(
            sec_tail, std::memory_order_relaxed);
        Count(&CnaEventCounters::queue_alterations);
        Count(&CnaEventCounters::waiters_moved, segment_len);
        TraceHandoff(telemetry::TraceEventType::kSecondaryMove, segment_len);
        return cur;
      }
      sec_tail = cur;
      ++segment_len;
      cur_raw = cur->next.load(std::memory_order_acquire);
    }
    // No same-socket waiter linked in yet.
    if constexpr (Cfg::kShuffleReduction) {
      if (segment_len == 1 && spin == kGrantNuma) {
        spin = kGrantFifo;
      }
    }
    return nullptr;
  }

  // Figure 5's keep_lock_local(), optionally with the Section 6 deferred-draw
  // counter: draw once, count down per handover, flush when it hits zero.
  static bool KeepLockLocal() {
    if constexpr (Cfg::kCounterFairness) {
      std::uint64_t& countdown = P::TlsSlot();
      if (countdown == 0) {
        countdown = (P::Random() & Cfg::kKeepLocalMask) + 1;
        return false;
      }
      --countdown;
      return true;
    } else {
      return (P::Random() & Cfg::kKeepLocalMask) != 0;
    }
  }
};

template <typename P, typename Cfg = CnaDefaultConfig>
class CnaLock {
 public:
  // Figure 2's cna_node_t.  Padded to a cache line so each waiter spins
  // inside its own line (the standard deployment for queue locks; the extra
  // fields relative to MCS are the point the paper makes about node space
  // being "almost never a practical concern").
  struct alignas(kCacheLineSize) Handle {
    // 0 = waiting; 1 = lock granted in NUMA mode, secondary queue empty;
    // 2 = lock granted in FIFO mode (secondary queue empty); any other value
    // = lock granted, value is the secondary queue head (a 64-aligned
    // Handle*, so always > 2).
    typename P::template Atomic<std::uintptr_t> spin{0};
    typename P::template Atomic<int> socket{-1};
    typename P::template Atomic<Handle*> sec_tail{nullptr};
    typename P::template Atomic<Handle*> next{nullptr};
  };

  static constexpr std::size_t kStateBytes = sizeof(void*);
  static constexpr bool kHasTryLock = true;

  CnaLock() = default;
  CnaLock(const CnaLock&) = delete;
  CnaLock& operator=(const CnaLock&) = delete;

  // Figure 3.  Identical to MCS except: the socket id is recorded (only on
  // contention, so the uncontended path pays nothing for NUMA-awareness), and
  // an uncontended acquire sets spin to the grant of the mode the free word
  // carried (1 in NUMA mode, as in the paper), so unlock always passes a
  // non-zero value to the successor.
  void Lock(Handle& me) {
    me.next.store(nullptr, std::memory_order_relaxed);
    me.socket.store(-1, std::memory_order_relaxed);
    me.spin.store(0, std::memory_order_relaxed);

    const std::uintptr_t prev =
        tail_.exchange(Word(&me), std::memory_order_acq_rel);
    if (IsFree(prev)) {
      me.spin.store(GrantOf(prev), std::memory_order_relaxed);
      return;
    }
    Handle* tail = reinterpret_cast<Handle*>(prev);
    const int my_socket = P::CurrentSocket();
    me.socket.store(my_socket, std::memory_order_relaxed);
    tail->next.store(Policy::Tagged(&me, my_socket),
                     std::memory_order_release);
    if constexpr (Cfg::kTelemetry) {
      if (telemetry::Enabled()) {
        const std::uint64_t t0 = telemetry::NowNs();
        while (me.spin.load(std::memory_order_acquire) == 0) {
          P::Pause();
        }
        const std::uint64_t waited = telemetry::NowNs() - t0;
        telemetry::CnaWaitHistogram().RecordAt(my_socket, P::CpuId(), waited);
        telemetry::TraceEmit(telemetry::TraceEventType::kLockSlowPath,
                             my_socket, P::CpuId(), /*arg=*/0, waited, t0);
        return;
      }
    }
    while (me.spin.load(std::memory_order_acquire) == 0) {
      P::Pause();
    }
  }

  // Loads the word first and CASes only a free one, so a failed try on a held
  // lock does not write the lock line.  Out of line: it serves try-lock
  // calls, the tables' stats probe and park revalidation, not the plain
  // acquisition path, so it should not take inlining budget from the code
  // around Lock/Unlock.
  [[gnu::noinline]] bool TryLock(Handle& me) {
    std::uintptr_t word = tail_.load(std::memory_order_relaxed);
    if (!IsFree(word)) {
      return false;
    }
    me.next.store(nullptr, std::memory_order_relaxed);
    me.socket.store(-1, std::memory_order_relaxed);
    me.spin.store(0, std::memory_order_relaxed);
    if (!tail_.compare_exchange_strong(word, Word(&me),
                                       std::memory_order_acq_rel)) {
      return false;
    }
    me.spin.store(GrantOf(word), std::memory_order_relaxed);
    return true;
  }

  // Figure 4: the lock word's part (return the lock to free, or reinstall
  // the secondary queue as the main queue); CnaPolicy passes the lock once a
  // successor is linked.  me.spin is loaded once into `spin` (a real
  // implementation keeps it in a register; the simulator would otherwise
  // charge every re-read).
  void Unlock(Handle& me) {
    Handle* next_raw = me.next.load(std::memory_order_acquire);
    const std::uintptr_t spin = me.spin.load(std::memory_order_relaxed);
    if (Policy::Ptr(next_raw) == nullptr) {
      // No successor visible in the main queue.
      if (!Policy::HasSecondary(spin)) {
        // Secondary queue empty too: try to return the lock to "free",
        // keeping its mode.
        std::uintptr_t expected = Word(&me);
        if (tail_.compare_exchange_strong(expected, FreeWordOf(spin),
                                          std::memory_order_acq_rel)) {
          Policy::Count(&CnaEventCounters::releases);
          return;
        }
      } else {
        // Main queue empty but secondary is not: try to make the secondary
        // queue the new main queue (its tail becomes the lock tail) and pass
        // the lock to its head.
        Handle* sec_head = reinterpret_cast<Handle*>(spin);
        std::uintptr_t expected = Word(&me);
        if (tail_.compare_exchange_strong(
                expected,
                Word(sec_head->sec_tail.load(std::memory_order_relaxed)),
                std::memory_order_acq_rel)) {
          Policy::PassToSecondaryHead(sec_head);
          return;
        }
      }
      // A new waiter swapped itself in between our check and the CAS; wait
      // for it to link itself behind us.
      while (Policy::Ptr(next_raw = me.next.load(std::memory_order_acquire)) ==
             nullptr) {
        P::Pause();
      }
    }
    Policy::PassOwnership(me, next_raw, spin);
  }

  bool HasQueuedWaiters(const Handle& me) const {
    return Policy::Ptr(me.next.load(std::memory_order_acquire)) != nullptr;
  }

 private:
  // The lock passes straight to the successor: a release store of the grant.
  static void Grant(Handle* n, std::uintptr_t grant) {
    n->spin.store(grant, std::memory_order_release);
  }
  using Policy = CnaPolicy<P, Cfg, Handle, Grant>;

  // --- The lock word's handover modes (see the top of this file). ---
  // FIFO mode's free word is its grant value; NUMA mode's free word is 0
  // (nullptr), as in the paper.
  static std::uintptr_t Word(Handle* n) {
    return reinterpret_cast<std::uintptr_t>(n);
  }
  // The lock word holds no node: 0 or 2, never a (64-aligned) Handle*.  The
  // word is never socket-tagged, so this does not depend on the tagging.
  static bool IsFree(std::uintptr_t word) { return word <= Policy::kGrantFifo; }
  static std::uintptr_t GrantOf(std::uintptr_t free_word) {
    return free_word == 0 ? Policy::kGrantNuma : Policy::kGrantFifo;
  }
  static std::uintptr_t FreeWordOf(std::uintptr_t grant) {
    return grant & Policy::kGrantFifo;
  }

  // Tail of the main queue while held; IsFree() values while free.
  typename P::template Atomic<std::uintptr_t> tail_{0};
};

}  // namespace cna::locks

#endif  // CNA_LOCKS_CNA_H_
