// Real-thread stress of the resizable lock table
// (src/locktable/resizable_lock_table.h): grow/shrink under load (this file
// runs in the CI TSan job's real-thread filter).
//
// Two invariants under concurrent resizing:
//  * Zero lost updates: plain per-key counters mutated only under the key's
//    stripe -- in whichever snapshot the acquisition landed -- sum to
//    exactly the operations issued, across any number of migrations.
//  * Acquisition accounting: every lock-step drain and every validation
//    retry is an acquisition somewhere, so over the table's lifetime
//      total_acquisitions == caller acquisitions + validation_retries
//                            + drained_stripes
//    (the resizable analogue of the combining table's
//    combined + pass_through == total_ops identity).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "core/pthread_api.h"
#include "core/registry.h"
#include "locks/cna.h"
#include "locktable/resizable_lock_table.h"
#include "platform/real_platform.h"

namespace cna {
namespace {

using RealResizable =
    locktable::ResizableLockTable<RealPlatform, locks::CnaLock<RealPlatform>>;

constexpr std::uint64_t kKeyRange = 512;

// A CNA lock that counts its failed try-locks.  With stats on, a table
// acquisition probes with a try-lock first, so a failed probe means that
// acquisition found its stripe held and will be counted contended.
struct ProbeCountingCna : locks::CnaLock<RealPlatform> {
  static inline std::atomic<std::uint64_t> failed_probes{0};

  bool TryLock(Handle& h) {
    if (locks::CnaLock<RealPlatform>::TryLock(h)) {
      return true;
    }
    failed_probes.fetch_add(1);
    return false;
  }
};

// --- Grow/shrink under load: no lost updates, exact accounting ---

TEST(ReshardingStress, ManualGrowShrinkUnderLoadLosesNoUpdates) {
  locktable::ResizableLockTableOptions o;
  o.stripes = 8;
  o.policy.min_stripes = 4;
  o.policy.max_stripes = 1024;
  o.policy.check_interval_ops = 0;  // manual resizes only: exact accounting
  o.stats_probe_period = 1;
  RealResizable table(o);

  constexpr int kWorkers = 6;
  constexpr int kItersPerWorker = 4000;
  constexpr int kResizes = 40;
  // Mutated only under the key's stripe; any acquisition that slipped
  // through a migration un-excluded shows up as a lost increment.
  std::vector<std::uint64_t> counters(kKeyRange, 0);
  // Caller-side acquisition counts, per worker (single-key ops: one stripe
  // acquisition per op; TryLock successes included, spurious failures not).
  std::vector<std::uint64_t> acquired(kWorkers, 0);

  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      XorShift64 rng =
          XorShift64::FromSeed(0xabcd + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kItersPerWorker; ++i) {
        // Skew: ~half the traffic on 8 hot keys, the rest uniform.
        const std::uint64_t key = rng.NextBelow(2) != 0
                                      ? rng.NextBelow(8)
                                      : rng.NextBelow(kKeyRange);
        if (rng.NextBelow(8) == 0) {
          if (table.TryLock(key)) {
            counters[key]++;
            table.Unlock(key);
            acquired[static_cast<std::size_t>(t)]++;
          }
          // Spurious TryLock failure (held stripe, migration, or stale
          // snapshot): no op issued, nothing to count on the caller side.
        } else {
          table.Lock(key);
          counters[key]++;
          table.Unlock(key);
          acquired[static_cast<std::size_t>(t)]++;
        }
      }
    });
  }
  std::thread resizer([&] {
    XorShift64 rng = XorShift64::FromSeed(0x5e5e);
    // Runs to exactly kResizes completed resizes (an idle table resizes
    // fast, so finishing after the workers costs nothing); alternating
    // small/large targets always change the size, so TryResize -- the only
    // resizer -- never reports a no-op.
    for (int done = 0; done < kResizes; ++done) {
      const std::size_t target = done % 2 == 0
                                     ? 256 + (rng.NextBelow(2) << 9)
                                     : 4 + rng.NextBelow(4);
      EXPECT_TRUE(table.TryResize(target));
      std::this_thread::yield();
    }
  });
  for (auto& th : workers) {
    th.join();
  }
  resizer.join();

  // Reclaim every superseded snapshot so its stats fold into the lifetime
  // summary (nothing is pinned anymore, so the drain must fully quiesce).
  table.domain().DrainAll();
  const auto s = table.Summary();
  EXPECT_EQ(s.epoch.retired, s.epoch.reclaimed);
  EXPECT_EQ(s.epoch.pending(), 0u);
  EXPECT_EQ(s.grows + s.shrinks, static_cast<std::uint64_t>(kResizes));
  EXPECT_GT(s.grows, 0u);
  EXPECT_GT(s.shrinks, 0u);
  EXPECT_GT(s.drained_stripes, 0u);

  // Zero lost updates: the guarded counters saw every successful op.
  std::uint64_t issued = 0;
  for (const std::uint64_t a : acquired) {
    issued += a;
  }
  std::uint64_t counted = 0;
  for (const std::uint64_t c : counters) {
    counted += c;
  }
  EXPECT_EQ(counted, issued);

  // The lifetime accounting identity (see file header).
  EXPECT_EQ(s.locks.total_acquisitions,
            issued + s.validation_retries + s.drained_stripes);
}

// --- Multi-key transactions across migrations conserve value ---

TEST(ReshardingStress, TransfersAcrossResizesConserveTotal) {
  locktable::ResizableLockTableOptions o;
  o.stripes = 16;
  o.policy.min_stripes = 4;
  o.policy.max_stripes = 512;
  o.policy.check_interval_ops = 0;
  RealResizable table(o);

  constexpr int kWorkers = 4;
  constexpr int kItersPerWorker = 3000;
  constexpr std::uint64_t kInitialPerKey = 1000;
  std::vector<std::uint64_t> balance(kKeyRange, kInitialPerKey);
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      XorShift64 rng =
          XorShift64::FromSeed(0xfeed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kItersPerWorker; ++i) {
        const std::uint64_t from = rng.NextBelow(kKeyRange);
        const std::uint64_t to = rng.NextBelow(kKeyRange);
        if (from == to) {
          continue;
        }
        RealResizable::MultiGuard guard(table, {from, to});
        const std::uint64_t amount = rng.NextBelow(5);
        const std::uint64_t moved =
            amount < balance[from] ? amount : balance[from];
        balance[from] -= moved;
        balance[to] += moved;
      }
    });
  }
  std::thread resizer([&] {
    bool grow = true;
    while (!stop.load(std::memory_order_relaxed)) {
      table.TryResize(grow ? 256 : 8);
      grow = !grow;
      std::this_thread::yield();
    }
  });
  for (auto& th : workers) {
    th.join();
  }
  stop.store(true, std::memory_order_relaxed);
  resizer.join();

  std::uint64_t total = 0;
  for (const std::uint64_t b : balance) {
    total += b;
  }
  EXPECT_EQ(total, kKeyRange * kInitialPerKey);
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

// --- The automatic policy reacts to measured contention ---

TEST(ReshardingStress, PolicyGrowsUnderUniformContentionAndShrinksWhenQuiet) {
  locktable::ResizableLockTableOptions o;
  o.stripes = 4;
  o.policy.min_stripes = 4;
  o.policy.max_stripes = 4096;
  o.policy.check_interval_ops = 256;
  o.policy.min_sample_ops = 200;  // below the tick interval so every
                                  // evaluation acts, even single-threaded
  o.policy.grow_contention = 0.05;
  o.policy.shrink_contention = 0.02;
  o.stats_probe_period = 1;  // exact contention counts: deterministic signal
  locktable::ResizableLockTable<RealPlatform, ProbeCountingCna> table(o);

  // Contended phase, independent of scheduling.  Each round the test thread
  // locks a uniformly drawn key, hands it to the worker, and releases it
  // only after an acquisition has failed its contention probe against it --
  // the worker's own, or the lock-step drain of a resize the worker's
  // policy tick started.  Every round thus holds a contended acquisition
  // however the threads are scheduled (about half of each policy sample,
  // far above grow_contention), and the load stays spread over every
  // stripe (the policy's skew gate).  The next round starts once the
  // worker has released, so no probe outlives its round.
  constexpr int kRounds = 1024;
  constexpr std::uint64_t kNoKey = ~std::uint64_t{0};
  std::atomic<std::uint64_t> next_key{kNoKey};
  std::atomic<int> rounds_done{0};
  std::thread worker([&] {
    for (int i = 0; i < kRounds; ++i) {
      std::uint64_t key;
      while ((key = next_key.exchange(kNoKey)) == kNoKey) {
        std::this_thread::yield();
      }
      table.Lock(key);
      table.Unlock(key);
      rounds_done.store(i + 1);
    }
  });
  XorShift64 rng = XorShift64::FromSeed(0x9090);
  for (int i = 0; i < kRounds; ++i) {
    const std::uint64_t key = rng.NextBelow(kKeyRange);
    table.Lock(key);
    const std::uint64_t probes = ProbeCountingCna::failed_probes.load();
    next_key.store(key);
    while (ProbeCountingCna::failed_probes.load() == probes) {
      std::this_thread::yield();
    }
    table.Unlock(key);
    while (rounds_done.load() != i + 1) {
      std::this_thread::yield();
    }
  }
  worker.join();
  const std::size_t contended_stripes = table.stripes();
  EXPECT_GT(contended_stripes, 4u)
      << "uniform contention on 4 stripes must trigger growth";
  EXPECT_GT(table.Summary().grows, 0u);

  // Quiet phase: one thread, zero contention; the policy's two-sample
  // hysteresis streak shrinks the namespace back step by step.
  for (int i = 0; i < 100000; ++i) {
    table.Lock(static_cast<std::uint64_t>(i) % kKeyRange);
    table.Unlock(static_cast<std::uint64_t>(i) % kKeyRange);
  }
  EXPECT_LT(table.stripes(), contended_stripes)
      << "a quiet table must shrink back";
  EXPECT_GT(table.Summary().shrinks, 0u);
}

// --- C API round trip (the surface CI's TSan job exercises) ---

TEST(ReshardingStress, CApiRoundTripWithConcurrentResizes) {
  cna_resizable_t* table = cna_resizable_create_default(16);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(cna_resizable_stripes(table), 16u);

  // Lock/unlock across a concurrent manual resize from another thread.
  constexpr int kIters = 2000;
  std::atomic<bool> stop{false};
  std::uint64_t guarded = 0;
  std::thread resizer([&] {
    bool grow = true;
    while (!stop.load(std::memory_order_relaxed)) {
      cna_resizable_resize(table, grow ? 128 : 8);
      grow = !grow;
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < kIters; ++i) {
    const std::uint64_t key = static_cast<std::uint64_t>(i) % 64;
    ASSERT_EQ(cna_resizable_lock(table, key), 0);
    ++guarded;
    ASSERT_EQ(cna_resizable_unlock(table, key), 0);
    const std::uint64_t pair[2] = {key, key + 64};
    ASSERT_EQ(cna_resizable_lock_many(table, pair, 2), 0);
    ++guarded;
    ASSERT_EQ(cna_resizable_unlock_many(table, pair, 2), 0);
  }
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
  EXPECT_EQ(guarded, static_cast<std::uint64_t>(2 * kIters));

  // Error surface: unlock without a lock reports EPERM, resize to the
  // current size reports EBUSY (no-op), null tables are rejected.
  EXPECT_EQ(cna_resizable_unlock(table, 7), EPERM);
  const std::size_t now = cna_resizable_stripes(table);
  EXPECT_EQ(cna_resizable_resize(table, now), EBUSY);
  EXPECT_EQ(cna_resizable_lock(nullptr, 0), EINVAL);

  // Reclamation observability: every completed resize -- however many the
  // background resizer got through -- retired exactly one snapshot, and one
  // deterministic manual resize from this thread moves both counters.
  const std::uint64_t before =
      cna_resizable_grows(table) + cna_resizable_shrinks(table);
  EXPECT_EQ(cna_resizable_epoch_retired(table), before);
  ASSERT_EQ(cna_resizable_resize(table, now == 8 ? 32 : 8), 0);
  const std::uint64_t resizes =
      cna_resizable_grows(table) + cna_resizable_shrinks(table);
  EXPECT_EQ(resizes, before + 1);
  EXPECT_EQ(cna_resizable_epoch_retired(table), resizes);
  EXPECT_LE(cna_resizable_epoch_reclaimed(table),
            cna_resizable_epoch_retired(table));

  cna_resizable_destroy(table);
}

// --- The registry's adaptive facade ---

TEST(ReshardingStress, AdaptiveShardedMutexResizesAndReports) {
  core::AdaptiveShardedMutex mutex(core::LockKind::kCna, 8);
  EXPECT_EQ(mutex.stripes(), 8u);
  mutex.lock(42);
  mutex.unlock(42);
  mutex.lock_many({1, 2, 3});
  mutex.unlock_many({1, 2, 3});
  EXPECT_TRUE(mutex.try_resize(64));
  EXPECT_EQ(mutex.stripes(), 64u);
  const auto s = mutex.summary();
  EXPECT_EQ(s.grows, 1u);
  EXPECT_EQ(s.epoch.retired, 1u);
  EXPECT_THROW(core::AdaptiveShardedMutex("no-such-lock", 8),
               std::invalid_argument);
}

}  // namespace
}  // namespace cna
