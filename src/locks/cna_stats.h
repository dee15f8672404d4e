// Optional CNA event statistics.
//
// Section 7.1.1 of the paper: "We also collected statistics on how many times
// the main waiting queue is altered in CNA, and confirmed that the shuffle
// reduction optimization indeed reduces this number by almost a factor of ten
// at 4 threads."  These counters reproduce that measurement.
//
// They are compile-time opt-in (Cfg::kCollectStats) so the lock itself stays
// one word and the default fast path carries zero instrumentation.  Counters
// live in a process-global sink -- they are diagnostics, not simulated state,
// so the simulator charges nothing for them.
#ifndef CNA_LOCKS_CNA_STATS_H_
#define CNA_LOCKS_CNA_STATS_H_

#include <atomic>
#include <cstdint>

namespace cna::locks {

struct CnaEventCounters {
  // Completed acquisition/release pairs observed at unlock time (for
  // qspin-CNA: queue-headship passes).
  std::atomic<std::uint64_t> releases{0};
  // Handovers that passed to a same-socket successor found by
  // find_successor() (includes the immediate-successor fast case).
  std::atomic<std::uint64_t> local_handovers{0};
  // Handovers that went to the head of the secondary queue (fairness flush or
  // no local successor).
  std::atomic<std::uint64_t> secondary_flushes{0};
  // Plain FIFO handovers (empty secondary queue, no reorganization).
  std::atomic<std::uint64_t> fifo_handovers{0};
  // Handovers short-circuited by the shuffle-reduction optimization.
  std::atomic<std::uint64_t> shuffle_skips{0};
  // The paper's "main waiting queue is altered" events: find_successor moved
  // at least one waiter into the secondary queue.
  std::atomic<std::uint64_t> queue_alterations{0};
  // Total waiters moved into the secondary queue across all alterations.
  std::atomic<std::uint64_t> waiters_moved{0};

  void Reset() {
    releases.store(0, std::memory_order_relaxed);
    local_handovers.store(0, std::memory_order_relaxed);
    secondary_flushes.store(0, std::memory_order_relaxed);
    fifo_handovers.store(0, std::memory_order_relaxed);
    shuffle_skips.store(0, std::memory_order_relaxed);
    queue_alterations.store(0, std::memory_order_relaxed);
    waiters_moved.store(0, std::memory_order_relaxed);
  }
};

// Process-global sink used by every CNA queue (CnaLock, qspin-CNA) whose
// config sets kCollectStats.  Benchmarks Reset() it around measured regions.
inline CnaEventCounters& GlobalCnaCounters() {
  static CnaEventCounters counters;
  return counters;
}

// Plain-value snapshot of every event counter.  Summaries embed this whole
// struct (rather than hand-copying fields) so new counters cannot silently
// drift out of the reports.
struct CnaCountersSnapshot {
  std::uint64_t releases = 0;
  std::uint64_t local_handovers = 0;
  std::uint64_t secondary_flushes = 0;
  std::uint64_t fifo_handovers = 0;
  std::uint64_t shuffle_skips = 0;
  std::uint64_t queue_alterations = 0;
  std::uint64_t waiters_moved = 0;
};

inline CnaCountersSnapshot SnapshotCnaCounters(
    const CnaEventCounters& c = GlobalCnaCounters()) {
  CnaCountersSnapshot out;
  out.releases = c.releases.load(std::memory_order_relaxed);
  out.local_handovers = c.local_handovers.load(std::memory_order_relaxed);
  out.secondary_flushes = c.secondary_flushes.load(std::memory_order_relaxed);
  out.fifo_handovers = c.fifo_handovers.load(std::memory_order_relaxed);
  out.shuffle_skips = c.shuffle_skips.load(std::memory_order_relaxed);
  out.queue_alterations = c.queue_alterations.load(std::memory_order_relaxed);
  out.waiters_moved = c.waiters_moved.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cna::locks

#endif  // CNA_LOCKS_CNA_STATS_H_
