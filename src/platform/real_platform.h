// RealPlatform: binds the lock-algorithm templates to real hardware.
//
// Every lock in src/locks/ is a template over a Platform policy supplying:
//   * Atomic<T>        -- atomic cell type (std::atomic here),
//   * Pause()          -- polite spin-wait hint,
//   * CurrentSocket()  -- the paper's current_numa_node(),
//   * Random()/TlsSlot() -- keep_lock_local() support,
//   * OnDataAccess()   -- critical-section data-traffic hook (no-op here; the
//                         hardware's caches do the real thing),
//   * NowNs()          -- the clock latency telemetry stamps with,
//   * kStampPeriod     -- one observed table acquisition in this many reads
//                         that clock,
//   * ContextLocal<T>() -- one T per execution context (the held-lock
//                         ledger, locktable/held_ledger.h).
// SimPlatform (src/sim/sim_platform.h) implements the same interface against
// the NUMA machine simulator, so one algorithm body serves both worlds.
#ifndef CNA_PLATFORM_REAL_PLATFORM_H_
#define CNA_PLATFORM_REAL_PLATFORM_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "base/spin_hint.h"
#include "platform/park.h"
#include "platform/thread_context.h"
#include "telemetry/metrics.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>
#else
#include <condition_variable>
#include <mutex>
#endif

namespace cna {

struct RealPlatform {
  template <typename T>
  using Atomic = std::atomic<T>;

  // Polite spin: PAUSE, with a periodic OS yield so spinners cannot starve
  // the lock holder on over-subscribed machines (the classic spin-then-yield
  // policy; essential when more threads than CPUs run the tests).
  static void Pause() noexcept {
    thread_local std::uint32_t spins = 0;
    SpinHint();
    if ((++spins & 0x3f) == 0) {
      std::this_thread::yield();
    }
  }

  static int CurrentSocket() {
    return platform::ThreadContext::Current().CurrentSocket();
  }

  static std::uint64_t Random() {
    return platform::ThreadContext::Current().Random();
  }

  static std::uint64_t& TlsSlot() {
    return platform::ThreadContext::Current().TlsSlot();
  }

  // Dense id of the executing thread; stands in for smp_processor_id() in the
  // user-space qspinlock build.
  static int CpuId() {
    return platform::ThreadContext::Current().ThreadId();
  }

  // The clock the tables' wait and hold histograms use: steady_clock here;
  // the simulator's NowNs() is the fiber's simulated clock instead.
  static std::uint64_t NowNs() { return telemetry::NowNs(); }

  // One observed lock-table acquisition in kStampPeriod, drawn from the
  // context's PRNG, reads the clock; its wait, hold and lockdep fold are
  // recorded with this weight (locktable/lock_table.h).  A steady_clock read
  // waits for the caller's outstanding cache misses, so stamping every lock
  // edge cost more than the lock.  A power of two.
  static constexpr std::uint32_t kStampPeriod = 16;

  // This thread's instance of T, built on first use and destroyed when the
  // thread exits.  For state that belongs to the execution context rather
  // than to any one lock (the held-lock ledger); never index a shared array
  // by CpuId() for that -- thread ids are not reused, so such arrays alias
  // live threads once enough threads have come and gone.
  template <typename T>
  static T& ContextLocal() {
    thread_local T value;
    return value;
  }

  // Critical-section data-access hook: on real hardware the cache hierarchy
  // handles locality, so this is a no-op.  The simulator charges coherence
  // traffic here instead.
  static void OnDataAccess(std::uint64_t /*object_id*/, bool /*write*/) {}

  // Deliberate wait off the fast path: unlike Pause(), actually cedes the
  // CPU for roughly the given duration.  Used by waiters that have been
  // taken out of contention on purpose (GCR passivation) -- on an
  // oversubscribed machine the whole point is to leave the run queue, not
  // to spin politely next to the holder.
  static void PassiveWait(std::uint64_t approx_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(approx_ns));
  }

  // External (non-critical-section) work hook: real platforms actually burn
  // the cycles; the simulator advances the local clock instead.
  static void ExternalWork(std::uint64_t approx_ns) {
    // One-shot calibration at first use (thread-safe magic static): the loop
    // rate varies a few x across compilers and cores, so time a fixed batch
    // against steady_clock once and scale, rather than assuming ~1 iteration
    // per nanosecond.
    static const double iters_per_ns = CalibrateExternalWork();
    const auto iters = static_cast<std::uint64_t>(
        static_cast<double>(approx_ns) * iters_per_ns);
    for (std::uint64_t i = 0; i < iters; ++i) {
      asm volatile("" ::: "memory");
    }
  }

  // --- Blocking primitives (contract in platform/park.h) ---

#if defined(__linux__)
  static ParkResult Park(std::atomic<std::uint32_t>* addr,
                         std::uint32_t expected_bits,
                         std::uint64_t timeout_ns) {
    static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
                  "futex needs a bare 32-bit word");
    if (addr->load(std::memory_order_acquire) != expected_bits) {
      return ParkResult::kValueMismatch;
    }
    timespec ts;
    timespec* tsp = nullptr;
    if (timeout_ns != kParkNoTimeout) {
      ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
      ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
      tsp = &ts;
    }
    const long rc = syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr),
                            FUTEX_WAIT_PRIVATE, expected_bits, tsp, nullptr, 0);
    if (rc == 0) {
      return ParkResult::kWoken;
    }
    switch (errno) {
      case ETIMEDOUT:
        return ParkResult::kTimeout;
      case EAGAIN:
        return ParkResult::kValueMismatch;  // the word changed first
      default:
        return ParkResult::kWoken;  // EINTR etc.: report as a spurious wake
    }
  }

  static void UnparkOne(std::atomic<std::uint32_t>* addr) {
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr),
            FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
  }

  static void UnparkAll(std::atomic<std::uint32_t>* addr) {
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr),
            FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
  }
#else
  // Portable fallback: a static table of condvar buckets keyed by address.
  // The waiter holds the bucket mutex between the value check and the wait,
  // and the waker bumps the bucket epoch under the same mutex, so the wake
  // cannot slip into that window.  Collisions only cause spurious wakes,
  // which the Park contract already allows.
  static ParkResult Park(std::atomic<std::uint32_t>* addr,
                         std::uint32_t expected_bits,
                         std::uint64_t timeout_ns) {
    ParkBucket& b = BucketFor(addr);
    std::unique_lock<std::mutex> lk(b.mu);
    if (addr->load(std::memory_order_acquire) != expected_bits) {
      return ParkResult::kValueMismatch;
    }
    const std::uint64_t epoch = b.epoch;
    if (timeout_ns == kParkNoTimeout) {
      b.cv.wait(lk, [&] { return b.epoch != epoch; });
      return ParkResult::kWoken;
    }
    const bool woken =
        b.cv.wait_for(lk, std::chrono::nanoseconds(timeout_ns),
                      [&] { return b.epoch != epoch; });
    return woken ? ParkResult::kWoken : ParkResult::kTimeout;
  }

  static void UnparkOne(std::atomic<std::uint32_t>* addr) { WakeBucket(addr); }
  static void UnparkAll(std::atomic<std::uint32_t>* addr) { WakeBucket(addr); }
#endif

 private:
#if !defined(__linux__)
  struct ParkBucket {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t epoch = 0;
  };

  static ParkBucket& BucketFor(const void* addr) {
    static ParkBucket table[64];
    auto h = reinterpret_cast<std::uintptr_t>(addr);
    h ^= h >> 9;
    return table[(h >> 4) & 63];
  }

  static void WakeBucket(const void* addr) {
    ParkBucket& b = BucketFor(addr);
    {
      std::lock_guard<std::mutex> lk(b.mu);
      ++b.epoch;
    }
    b.cv.notify_all();
  }
#endif

  static double CalibrateExternalWork() {
    using clock = std::chrono::steady_clock;
    constexpr std::uint64_t kBatch = 1 << 22;
    // Take the fastest of a few runs to shed scheduler noise (the first run
    // doubles as warm-up); clamp to a sane range so a wildly descheduled
    // calibration cannot turn every work knob into a no-op or a stall.
    double best_ns = 0;
    for (int run = 0; run < 3; ++run) {
      const auto t0 = clock::now();
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        asm volatile("" ::: "memory");
      }
      const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          clock::now() - t0)
                          .count();
      if (dt > 0 && (best_ns == 0 || static_cast<double>(dt) < best_ns)) {
        best_ns = static_cast<double>(dt);
      }
    }
    if (best_ns <= 0) {
      return 1.0;
    }
    const double rate = static_cast<double>(kBatch) / best_ns;
    return rate < 0.01 ? 0.01 : (rate > 64.0 ? 64.0 : rate);
  }
};

}  // namespace cna

#endif  // CNA_PLATFORM_REAL_PLATFORM_H_
