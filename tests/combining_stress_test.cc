// Real-thread stress of the flat-combining table: mixed Apply / Guard /
// Submit users on the same stripes (this file runs in the CI TSan job's
// real-thread filter).
//
// The accounting invariant under stress: every Apply/Submit operation is
// executed exactly once, by its submitter or by a combiner, so per stripe
// combined + pass_through equals the number of operations issued against
// that stripe -- and no increment is ever lost.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "apps/sharded_kv.h"
#include "core/pthread_api.h"
#include "locks/cna.h"
#include "locktable/combining.h"
#include "platform/real_platform.h"

namespace cna {
namespace {

using RealCombining =
    locktable::CombiningTable<RealPlatform, locks::CnaLock<RealPlatform>>;

TEST(CombiningStress, MixedApplyGuardUsersBalancePerStripeCounters) {
  RealCombining table({.stripes = 4,
                       .collect_stats = true,
                       .combining_budget = 8});
  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 2000;
  // Shared counters, one per stripe, mutated only under the stripe's lock
  // (inside closures and Guard sections); a lost update or a torn batch
  // shows up as a mismatch against the issued-op counts.
  std::vector<std::uint64_t> guarded(table.stripes(), 0);
  // Per-thread, per-stripe counts of issued Apply/Submit operations (Guard
  // sections are lock users, not published operations, and are counted
  // separately).
  std::vector<std::vector<std::uint64_t>> issued(
      kThreads, std::vector<std::uint64_t>(table.stripes(), 0));
  std::vector<std::vector<std::uint64_t>> guard_ops(
      kThreads, std::vector<std::uint64_t>(table.stripes(), 0));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      XorShift64 rng =
          XorShift64::FromSeed(0xc0de + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kItersPerThread; ++i) {
        // Skew: ~two thirds of the traffic on one hot key.
        const std::uint64_t key =
            rng.NextBelow(3) != 0 ? 0 : rng.NextBelow(64);
        const std::size_t s = table.StripeOf(key);
        const std::uint64_t roll = rng.NextBelow(10);
        if (roll < 6) {
          table.Apply(key, [&guarded, s] { guarded[s]++; });
          issued[static_cast<std::size_t>(t)][s]++;
        } else if (roll < 8) {
          auto f = table.Submit(key, [&guarded, s] { guarded[s]++; });
          f.Wait();
          issued[static_cast<std::size_t>(t)][s]++;
        } else {
          typename RealCombining::Guard guard(table, key);
          guarded[s]++;
          guard_ops[static_cast<std::size_t>(t)][s]++;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  std::uint64_t total_issued = 0;
  for (std::size_t s = 0; s < table.stripes(); ++s) {
    std::uint64_t issued_here = 0;
    std::uint64_t guards_here = 0;
    for (int t = 0; t < kThreads; ++t) {
      issued_here += issued[static_cast<std::size_t>(t)][s];
      guards_here += guard_ops[static_cast<std::size_t>(t)][s];
    }
    const auto* c = table.CombiningStripeStats(s);
    ASSERT_NE(c, nullptr);
    // The defining invariant: every published op executed exactly once.
    EXPECT_EQ(c->combined.load() + c->pass_through.load(), issued_here)
        << "stripe " << s;
    // And nothing was lost: the guarded counter saw every mutation.
    EXPECT_EQ(guarded[s], issued_here + guards_here) << "stripe " << s;
    total_issued += issued_here;
  }
  const auto summary = table.CombiningSummary();
  EXPECT_EQ(summary.TotalOps(), total_issued);
}

TEST(CombiningStress, CombiningShardedKvLosesNoIncrements) {
  apps::CombiningShardedKvOptions o;
  o.key_range = 256;
  o.lock_stripes = 8;
  o.collect_stats = true;
  o.hot_pct = 80;
  o.cs_compute_ns = 0;
  apps::CombiningShardedKv<RealPlatform, locks::CnaLock<RealPlatform>> kv(o);
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      XorShift64 rng =
          XorShift64::FromSeed(0xfeed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kItersPerThread; ++i) {
        kv.HotOp(rng);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Every HotOp is one Add(key, 1): the sum over all slots equals the op
  // count exactly iff no increment was lost or doubled.
  EXPECT_EQ(kv.TotalValue(),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  const auto summary = kv.table().CombiningSummary();
  EXPECT_EQ(summary.TotalOps(),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
}

TEST(CombiningStress, BatchesInterleaveWithSingleOps) {
  RealCombining table({.stripes = 4, .collect_stats = true});
  std::vector<std::uint64_t> cells(32, 0);
  constexpr int kThreads = 4;
  constexpr int kBatches = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t keys[4];
      XorShift64 rng =
          XorShift64::FromSeed(0xabc + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kBatches; ++i) {
        for (auto& k : keys) {
          k = rng.NextBelow(32);
        }
        table.ApplyBatch(keys, 4, [&table, &cells](std::uint64_t key) {
          cells[static_cast<std::size_t>(key)]++;
          (void)table;
        });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::uint64_t sum = 0;
  for (std::uint64_t v : cells) {
    sum += v;
  }
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kThreads) * kBatches * 4);
}

// C-surface round trip, concurrent: cna_locktable_* over a combining table
// drives the same machinery from plain function pointers.
TEST(CombiningStress, CApiRoundTrip) {
  cna_locktable_t* table = cna_locktable_create_combining("cna", 4);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(cna_locktable_stripes(table), 4u);
  EXPECT_EQ(cna_locktable_state_bytes(table), 4 * sizeof(void*));
  EXPECT_LT(cna_locktable_stripe_of(table, 42), 4u);

  struct Ctx {
    std::atomic<std::uint64_t> sum{0};
  } ctx;
  constexpr int kThreads = 4;
  constexpr int kIters = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        ASSERT_EQ(cna_locktable_apply(
                      table, static_cast<std::uint64_t>(i % 8),
                      [](void* c) {
                        static_cast<Ctx*>(c)->sum.fetch_add(
                            1, std::memory_order_relaxed);
                      },
                      &ctx),
                  0);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(ctx.sum.load(), static_cast<std::uint64_t>(kThreads) * kIters);
  cna_locktable_stats_t stats;
  ASSERT_EQ(cna_locktable_get_stats(table, &stats), 0);
  EXPECT_EQ(stats.pass_through_ops + stats.combined_ops,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.grows + stats.shrinks + stats.epoch_retired, 0u);

  // Lock/unlock coexistence and error mapping; a combining table has no
  // try-lock or multi-key calls, and apply needs a combining table.
  EXPECT_EQ(cna_locktable_lock(table, 5), 0);
  EXPECT_EQ(cna_locktable_unlock(table, 5), 0);
  EXPECT_EQ(cna_locktable_unlock(table, 5), EPERM);
  EXPECT_EQ(cna_locktable_apply(table, 0, nullptr, nullptr), EINVAL);
  EXPECT_EQ(cna_locktable_trylock(table, 5), EINVAL);
  const std::uint64_t keys[2] = {1, 2};
  EXPECT_EQ(cna_locktable_lock_many(table, keys, 2), EINVAL);
  cna_locktable_t* fixed = cna_locktable_create("cna", 4);
  ASSERT_NE(fixed, nullptr);
  EXPECT_EQ(cna_locktable_apply(
                fixed, 0, [](void*) {}, nullptr),
            EINVAL);
  cna_locktable_destroy(fixed);

  // Unknown names and non-try-lockable kinds are rejected at creation.
  EXPECT_EQ(cna_locktable_create_combining("no-such-lock", 4), nullptr);
  EXPECT_EQ(cna_locktable_create_combining("clh", 4), nullptr);

  cna_locktable_destroy(table);
  cna_locktable_destroy(nullptr);  // must be a no-op
}

}  // namespace
}  // namespace cna
