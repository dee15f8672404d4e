// ParkingLot<P>: a global hashed parking lot keyed by lock address -- the
// kernel-futex / WebKit-parking-lot shape, with per-socket FIFO wait queues
// so wakeups can preserve CNA's socket-local handoff policy.
//
// Waiters live on the parker's own stack (a Waiter node enqueued into one of
// 256 buckets), so a million mostly-idle lock words cost zero resident
// parking state: the lot's footprint is buckets + currently-parked waiters,
// never keys.
//
// Lost-wakeup protocol (the Dekker/store-buffer pattern, both halves fenced
// seq_cst):
//
//   parker:   enqueue + bump bucket census (RMW) ; fence ; revalidate ; park
//   unparker: make the awaited state true         ; fence ; read census ; wake
//
// If the parker's revalidate misses the unparker's state change, the
// revalidate is ordered before it, hence the census bump is visible to the
// unparker's census read -- the unparker takes the bucket guard and finds the
// waiter.  Conversely if the unparker's census read sees zero, the parker had
// not yet published, so its revalidate observes the state change and never
// blocks.  There is no window.  The per-waiter word then closes the
// publish-to-sleep gap: the unparker sets it to 1 before waking, and
// P::Park's atomic compare refuses to sleep on a word that is already 1.
//
// Unpark never dereferences the waiter's word after handoff: the word's
// address is only used as a wake key (see platform/park.h), and the word
// store itself happens under the bucket guard, which the timeout/cancel
// paths must also take before the frame can die.
#ifndef CNA_PARKING_PARKING_LOT_H_
#define CNA_PARKING_PARKING_LOT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "platform/park.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cna::parking {

// Spin-then-park policy knobs shared by the table-level blocking paths.
inline constexpr std::uint32_t kBlockingSpinBudget = 128;
// Park timeout: liveness belt-and-braces only -- the protocol above makes
// the wakeup itself lost-proof; the timer bounds the damage of any bug in a
// *caller's* validate/unpark pairing to one retry period.
inline constexpr std::uint64_t kBlockingParkTimeoutNs = 2'000'000;

// Aggregate accounting (plain std::atomic: diagnostics, invisible to the
// simulator's schedule exploration).  Invariant checked by the stress test:
//   enqueues == unparks + timeouts + cancels
// -- every published waiter leaves by exactly one of the three exits.
struct ParkingLotStats {
  std::uint64_t enqueues = 0;  // waiters published into a bucket
  std::uint64_t parks = 0;     // waiters whose revalidate passed (committed)
  std::uint64_t unparks = 0;   // waiters popped by UnparkOne/UnparkAll
  std::uint64_t timeouts = 0;  // waiters that timed out and self-unlinked
  std::uint64_t cancels = 0;   // waiters whose revalidate fired pre-block
};

template <typename P>
class ParkingLot {
  template <typename T>
  using Atomic = typename P::template Atomic<T>;

 public:
  static constexpr std::size_t kBuckets = 256;
  static constexpr int kSockets = 8;

  enum class Outcome {
    kWoken,         // popped by an unpark
    kTimeout,       // timer expired; caller re-runs its acquire loop
    kValidateFail,  // the awaited state arrived before blocking
  };

  ParkingLot() = default;
  ParkingLot(const ParkingLot&) = delete;
  ParkingLot& operator=(const ParkingLot&) = delete;

  // The process-wide lot all blocking tables share (futex-style: one lot,
  // many locks).  Tests construct private instances.
  static ParkingLot& Global() {
    static ParkingLot lot;
    return lot;
  }

  // Parks the caller on `key` unless validate() returns false.  validate is
  // called after the waiter is published (the revalidate of the protocol
  // above); returning false means "the state I would wait for is already
  // true" -- typically a TryLock that succeeded -- and the caller proceeds
  // without blocking.  timeout_ns == kParkNoTimeout waits for an unpark
  // forever.  Spurious wakes re-park internally; a timeout after a spurious
  // wake restarts the timer, so the total wait can exceed timeout_ns.
  template <typename Validate>
  Outcome ParkConditionally(const void* key, Validate&& validate,
                            std::uint64_t timeout_ns) {
    Bucket& b = BucketOf(key);
    Waiter me;
    me.key = key;
    me.socket = SocketIndex(P::CurrentSocket());
    LockBucket(b);
    Enqueue(b, &me);
    b.census.fetch_add(1, std::memory_order_seq_cst);
    UnlockBucket(b);
    stats_enqueues_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!validate()) {
      return Cancel(b, &me);
    }
    const bool count_telemetry = telemetry::Enabled();
    const std::uint64_t t0 = count_telemetry ? telemetry::NowNs() : 0;
    stats_parks_.fetch_add(1, std::memory_order_relaxed);
    // The park is committed (validate saw the lock still held): going to
    // sleep with locks held is what lockdep's park-while-holding check flags.
    telemetry::lockdep::OnPark(P::CpuId());
    if (count_telemetry) {
      telemetry::ParkingParksCounter().Add();
    }
    for (;;) {
      if (me.word.load(std::memory_order_acquire) != 0) {
        return Finish(Outcome::kWoken, me.socket, count_telemetry, t0);
      }
      const ParkResult r = P::Park(&me.word, 0u, timeout_ns);
      if (r == ParkResult::kTimeout) {
        LockBucket(b);
        if (me.word.load(std::memory_order_acquire) != 0) {
          // An unpark popped us in the same instant: the wake wins.
          UnlockBucket(b);
          return Finish(Outcome::kWoken, me.socket, count_telemetry, t0);
        }
        Unlink(b, &me);
        b.census.fetch_sub(1, std::memory_order_seq_cst);
        UnlockBucket(b);
        stats_timeouts_.fetch_add(1, std::memory_order_relaxed);
        if (count_telemetry) {
          telemetry::ParkingTimeoutsCounter().Add();
        }
        return Finish(Outcome::kTimeout, me.socket, count_telemetry, t0);
      }
      // kWoken or kValueMismatch: loop to re-check the word.
    }
  }

  // Wakes the longest-waiting parked waiter on `key`, scanning socket FIFOs
  // starting from `preferred_socket` -- the unlocking thread's socket, so
  // handoff stays socket-local when a local waiter exists (CNA's policy,
  // carried into the blocking layer).  Returns true if a waiter was woken.
  bool UnparkOne(const void* key, int preferred_socket) {
    Bucket& b = BucketOf(key);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (b.census.load(std::memory_order_seq_cst) == 0) {
      return false;  // fast path: nobody parked in this bucket
    }
    LockBucket(b);
    Waiter* w = PopLocked(b, key, SocketIndex(preferred_socket));
    if (w != nullptr) {
      b.census.fetch_sub(1, std::memory_order_seq_cst);
      DeliverLocked(w);
    }
    UnlockBucket(b);
    return w != nullptr;
  }

  // Wakes every parked waiter on `key` (writer unlock on a rw table: all
  // blocked readers may proceed at once).
  std::size_t UnparkAll(const void* key) {
    Bucket& b = BucketOf(key);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (b.census.load(std::memory_order_seq_cst) == 0) {
      return 0;
    }
    std::size_t woken = 0;
    LockBucket(b);
    for (int s = 0; s < kSockets; ++s) {
      while (Waiter* w = PopFromSocketLocked(b, key, s)) {
        b.census.fetch_sub(1, std::memory_order_seq_cst);
        DeliverLocked(w);
        ++woken;
      }
    }
    UnlockBucket(b);
    return woken;
  }

  // Exact count of waiters currently published on `key` (takes the bucket
  // guard; tests and the C API).
  std::size_t CountWaiters(const void* key) {
    Bucket& b = BucketOf(key);
    std::size_t n = 0;
    LockBucket(b);
    for (int s = 0; s < kSockets; ++s) {
      for (Waiter* w = b.head[s]; w != nullptr; w = w->next) {
        if (w->key == key) {
          ++n;
        }
      }
    }
    UnlockBucket(b);
    return n;
  }

  // Total published waiters across all buckets (approximate: sums the
  // per-bucket censuses without stopping the world).
  std::size_t TotalWaitersApprox() const {
    std::size_t n = 0;
    for (const Bucket& b : buckets_) {
      n += b.census.load(std::memory_order_relaxed);
    }
    return n;
  }

  ParkingLotStats Stats() const {
    ParkingLotStats s;
    s.enqueues = stats_enqueues_.load(std::memory_order_relaxed);
    s.parks = stats_parks_.load(std::memory_order_relaxed);
    s.unparks = stats_unparks_.load(std::memory_order_relaxed);
    s.timeouts = stats_timeouts_.load(std::memory_order_relaxed);
    s.cancels = stats_cancels_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Waiter {
    Waiter* next = nullptr;
    const void* key = nullptr;
    int socket = 0;
    // 0 = published/parked; 1 = popped by an unparker.  P::Atomic so the
    // simulator explores schedules around the publish/park/wake races.
    Atomic<std::uint32_t> word{0};
  };

  struct Bucket {
    // TAS guard over the FIFO lists.  Held only for O(queue) pointer work;
    // the census is what keeps unlock fast paths out of here entirely.
    Atomic<std::uint32_t> guard{0};
    Atomic<std::uint32_t> census{0};
    Waiter* head[kSockets] = {};
    Waiter* tail[kSockets] = {};
  };

  static int SocketIndex(int socket) {
    return socket >= 0 ? socket % kSockets : 0;
  }

  Bucket& BucketOf(const void* key) {
    auto h = reinterpret_cast<std::uintptr_t>(key);
    h ^= h >> 17;
    h *= 0x9e3779b97f4a7c15ull;
    return buckets_[(h >> 40) & (kBuckets - 1)];
  }

  void LockBucket(Bucket& b) {
    while (b.guard.exchange(1, std::memory_order_acquire) != 0) {
      P::Pause();
    }
  }
  void UnlockBucket(Bucket& b) {
    b.guard.store(0, std::memory_order_release);
  }

  void Enqueue(Bucket& b, Waiter* w) {
    const int s = w->socket;
    w->next = nullptr;
    if (b.tail[s] != nullptr) {
      b.tail[s]->next = w;
    } else {
      b.head[s] = w;
    }
    b.tail[s] = w;
  }

  void Unlink(Bucket& b, Waiter* w) {
    const int s = w->socket;
    Waiter* prev = nullptr;
    for (Waiter* cur = b.head[s]; cur != nullptr; cur = cur->next) {
      if (cur == w) {
        if (prev != nullptr) {
          prev->next = cur->next;
        } else {
          b.head[s] = cur->next;
        }
        if (b.tail[s] == cur) {
          b.tail[s] = prev;
        }
        return;
      }
      prev = cur;
    }
  }

  Waiter* PopFromSocketLocked(Bucket& b, const void* key, int s) {
    Waiter* prev = nullptr;
    for (Waiter* cur = b.head[s]; cur != nullptr; cur = cur->next) {
      if (cur->key == key) {
        if (prev != nullptr) {
          prev->next = cur->next;
        } else {
          b.head[s] = cur->next;
        }
        if (b.tail[s] == cur) {
          b.tail[s] = prev;
        }
        return cur;
      }
      prev = cur;
    }
    return nullptr;
  }

  Waiter* PopLocked(Bucket& b, const void* key, int preferred_socket) {
    for (int i = 0; i < kSockets; ++i) {
      const int s = (preferred_socket + i) % kSockets;
      if (Waiter* w = PopFromSocketLocked(b, key, s)) {
        return w;
      }
    }
    return nullptr;
  }

  // Marks a popped waiter woken and issues the wake.  The word store runs
  // under the bucket guard; P::UnparkOne is address-keyed only, so it is
  // safe even if the waiter observes the store and frees its frame before
  // the wake call executes.
  void DeliverLocked(Waiter* w) {
    auto* word = &w->word;
    word->store(1, std::memory_order_release);
    P::UnparkOne(word);
    stats_unparks_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::Enabled()) {
      telemetry::ParkingUnparksCounter().Add();
      telemetry::TraceEmit(telemetry::TraceEventType::kUnpark,
                           P::CurrentSocket(), P::CpuId(),
                           reinterpret_cast<std::uint64_t>(w->key));
    }
  }

  Outcome Cancel(Bucket& b, Waiter* me) {
    LockBucket(b);
    if (me->word.load(std::memory_order_acquire) != 0) {
      // Raced with an unparker that already popped us: consume the wake.
      UnlockBucket(b);
      return Outcome::kWoken;
    }
    Unlink(b, me);
    b.census.fetch_sub(1, std::memory_order_seq_cst);
    UnlockBucket(b);
    stats_cancels_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kValidateFail;
  }

  Outcome Finish(Outcome o, int socket, bool count_telemetry,
                 std::uint64_t t0) {
    if (count_telemetry) {
      const std::uint64_t now = telemetry::NowNs();
      const std::uint64_t parked_ns = now > t0 ? now - t0 : 0;
      telemetry::ParkingParkedHistogram().Record(socket, parked_ns);
      telemetry::TraceEmit(telemetry::TraceEventType::kPark, socket,
                           P::CpuId(), /*arg=*/o == Outcome::kTimeout ? 1 : 0,
                           parked_ns, t0);
    }
    return o;
  }

  Bucket buckets_[kBuckets];
  // Diagnostics (plain std::atomic: never part of the explored schedule).
  std::atomic<std::uint64_t> stats_enqueues_{0};
  std::atomic<std::uint64_t> stats_parks_{0};
  std::atomic<std::uint64_t> stats_unparks_{0};
  std::atomic<std::uint64_t> stats_timeouts_{0};
  std::atomic<std::uint64_t> stats_cancels_{0};
};

// Spin-then-park acquisition of a lock with a try-lock path.  The bounded
// spin keeps light contention identical to a spinning acquisition; past the
// budget the waiter parks keyed by `key` (the lock's address), with
// try_acquire itself as the publish-then-recheck revalidate -- so the lock
// can never sit free with a sleeping waiter (the lost-wakeup proof is at the
// top of this file).  Wakeups barge: a woken waiter retries try_acquire
// against concurrent arrivals and re-parks if it loses, trading strict FIFO
// for the unlock-side fast path.  Returns whether the first attempt failed,
// i.e. whether the acquisition was contended.
template <typename P, typename TryAcquire>
bool SpinThenPark(const void* key, TryAcquire&& try_acquire) {
  if (try_acquire()) {
    return false;
  }
  for (std::uint32_t spin = 0; spin < kBlockingSpinBudget; ++spin) {
    P::Pause();
    if (try_acquire()) {
      return true;
    }
  }
  auto& lot = ParkingLot<P>::Global();
  bool acquired = false;
  while (!acquired) {
    lot.ParkConditionally(
        key,
        [&] {
          acquired = try_acquire();
          return !acquired;  // park only while the lock stays busy
        },
        kBlockingParkTimeoutNs);
  }
  return true;
}

}  // namespace cna::parking

#endif  // CNA_PARKING_PARKING_LOT_H_
