// Property tests for the table_stats.h counter families shared by the three
// keyed namespaces (LockTable, RwLockTable, CombiningTable):
//
//  * snapshots are monotone -- every aggregate in a later Summarize() is >=
//    the same aggregate in an earlier one;
//  * per-stripe counters sum to the table totals -- Summarize()'s per-stripe
//    counts are exactly the fold of stripe(s) over all stripes, occupied/max
//    included, and the rest of the summary matches the test's own counts;
//  * disabled stats stay disabled -- null stripe pointers, zero summaries;
//  * counter cells take the table's stripe padding;
//  * a reader-writer summary taken while exclusive acquisitions are being
//    recorded splits them exactly: its derived shared counts read 0.
//
// Drivers are single-threaded over RealPlatform, so the expected counts are
// exact, not bounds; the last case checks its threads' own tallies.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "base/cacheline.h"
#include "locks/cna.h"
#include "locks/cna_rwlock.h"
#include "locktable/combining.h"
#include "locktable/lock_table.h"
#include "locktable/rw_lock_table.h"
#include "platform/real_platform.h"

namespace cna {
namespace {

using RealCna = locks::CnaLock<RealPlatform>;
using RealRw = locks::CnaRwLock<RealPlatform, locks::CnaRwCompactConfig>;

// One deterministic mixed workload phase against any of the three tables.
template <typename Driver>
void RunPhase(Driver&& op, std::uint64_t ops, std::uint64_t phase) {
  for (std::uint64_t i = 0; i < ops; ++i) {
    op(phase * 7919 + i * 31);  // spread keys over many stripes
  }
}

TEST(TableStatsProperties, LockTableMonotoneAndConsistent) {
  locktable::LockTable<RealPlatform, RealCna> table(
      {.stripes = 16, .collect_stats = true});
  std::uint64_t txn_stripes = 0;
  auto op = [&table, &txn_stripes](std::uint64_t key) {
    {
      typename decltype(table)::Guard guard(table, key);
    }
    if (table.TryLock(key)) {
      table.Unlock(key);
    }
    const std::uint64_t keys[] = {key, key + 1};
    typename decltype(table)::MultiGuard txn(table, keys, 2);
    txn_stripes += txn.size();
  };

  RunPhase(op, 200, 1);
  const auto s1 = table.StatsSummary();
  RunPhase(op, 300, 2);
  const auto s2 = table.StatsSummary();

  // Monotone.
  EXPECT_GE(s2.total_acquisitions, s1.total_acquisitions);
  EXPECT_GE(s2.contended_acquisitions, s1.contended_acquisitions);
  EXPECT_GE(s2.trylock_failures, s1.trylock_failures);
  EXPECT_GE(s2.multi_key_acquisitions, s1.multi_key_acquisitions);
  EXPECT_GE(s2.occupied_stripes, s1.occupied_stripes);
  EXPECT_GE(s2.max_stripe_acquisitions, s1.max_stripe_acquisitions);
  EXPECT_GT(s2.total_acquisitions, s1.total_acquisitions);

  // Per-stripe fold equals the summary.
  std::uint64_t acq = 0, contended = 0, max = 0;
  std::size_t occupied = 0;
  for (std::size_t s = 0; s < table.stripes(); ++s) {
    const auto* c = table.StripeStats(s);
    ASSERT_NE(c, nullptr);
    const std::uint64_t a = c->acquisitions.load();
    acq += a;
    contended += c->contended.load();
    occupied += a > 0 ? 1 : 0;
    max = a > max ? a : max;
  }
  EXPECT_EQ(acq, s2.total_acquisitions);
  EXPECT_EQ(contended, s2.contended_acquisitions);
  EXPECT_EQ(occupied, s2.occupied_stripes);
  EXPECT_EQ(max, s2.max_stripe_acquisitions);
  EXPECT_EQ(s2.stripes, table.stripes());

  // Single-threaded accounting: Guard + TryLock + 2-key MultiGuard (the
  // MultiGuard takes 2 stripes, or 1 when key and key+1 collide).
  EXPECT_GE(s2.total_acquisitions, 500u * 3);
  EXPECT_LE(s2.total_acquisitions, 500u * 4);
  EXPECT_EQ(s2.trylock_failures, 0u);
  EXPECT_EQ(s2.multi_key_acquisitions, txn_stripes);
  EXPECT_EQ(s2.multi_key_acquisitions + 500u * 2, s2.total_acquisitions);
  // A mutex table has no shared part.
  EXPECT_EQ(s2.shared_acquisitions, 0u);
  EXPECT_EQ(s2.shared_contended, 0u);
}

TEST(TableStatsProperties, RwLockTableMonotoneAndConsistent) {
  locktable::RwLockTable<RealPlatform, RealRw> table(
      {.stripes = 16, .collect_stats = true});
  auto op = [&table](std::uint64_t key) {
    {
      typename decltype(table)::ReadGuard read(table, key);
    }
    {
      typename decltype(table)::WriteGuard write(table, key + 3);
    }
    if (table.TryLockShared(key)) {
      table.UnlockShared(key);
    }
  };

  RunPhase(op, 200, 1);
  const auto s1 = table.StatsSummary();
  RunPhase(op, 300, 2);
  const auto s2 = table.StatsSummary();

  EXPECT_GE(s2.read_acquisitions, s1.read_acquisitions);
  EXPECT_GE(s2.write_acquisitions, s1.write_acquisitions);
  EXPECT_GE(s2.read_contended, s1.read_contended);
  EXPECT_GE(s2.writer_waits, s1.writer_waits);
  EXPECT_GE(s2.trylock_failures, s1.trylock_failures);
  EXPECT_GE(s2.occupied_stripes, s1.occupied_stripes);
  EXPECT_GE(s2.max_stripe_acquisitions, s1.max_stripe_acquisitions);
  EXPECT_GT(s2.TotalAcquisitions(), s1.TotalAcquisitions());

  // One counter cell for both modes: the fold covers reads and writes
  // together, and the summary splits them.
  std::uint64_t acq = 0, contended = 0, max = 0;
  std::size_t occupied = 0;
  for (std::size_t s = 0; s < table.stripes(); ++s) {
    const auto* c = table.StripeStats(s);
    ASSERT_NE(c, nullptr);
    const std::uint64_t a = c->acquisitions.load();
    acq += a;
    contended += c->contended.load();
    occupied += a > 0 ? 1 : 0;
    max = a > max ? a : max;
  }
  EXPECT_EQ(acq, s2.TotalAcquisitions());
  EXPECT_EQ(contended, s2.read_contended + s2.writer_waits);
  EXPECT_EQ(occupied, s2.occupied_stripes);
  EXPECT_EQ(max, s2.max_stripe_acquisitions);

  EXPECT_EQ(s2.read_acquisitions, 500u * 2);
  EXPECT_EQ(s2.write_acquisitions, 500u);
  // Single-threaded: no probe or try-lock finds a stripe held, and no
  // MultiGuard runs.
  EXPECT_EQ(s2.read_contended, 0u);
  EXPECT_EQ(s2.writer_waits, 0u);
  EXPECT_EQ(s2.trylock_failures, 0u);
  EXPECT_EQ(s2.multi_key_acquisitions, 0u);
}

TEST(TableStatsProperties, CombiningTableMonotoneAndConsistent) {
  locktable::CombiningTable<RealPlatform, RealCna> table(
      {.stripes = 16, .collect_stats = true});
  auto op = [&table](std::uint64_t key) {
    table.Apply(key, [] {});
    const std::uint64_t keys[] = {key, key + 5};
    table.ApplyBatch(keys, 2, [](std::uint64_t) {});
  };

  RunPhase(op, 200, 1);
  const auto s1 = table.CombiningSummary();
  RunPhase(op, 300, 2);
  const auto s2 = table.CombiningSummary();

  EXPECT_GE(s2.pass_through, s1.pass_through);
  EXPECT_GE(s2.combined, s1.combined);
  EXPECT_GE(s2.batches, s1.batches);
  EXPECT_GE(s2.budget_cutoffs, s1.budget_cutoffs);
  EXPECT_GE(s2.occupied_stripes, s1.occupied_stripes);
  EXPECT_GE(s2.max_stripe_ops, s1.max_stripe_ops);
  EXPECT_GT(s2.TotalOps(), s1.TotalOps());

  std::uint64_t pass = 0, comb = 0, max = 0;
  std::size_t occupied = 0;
  for (std::size_t s = 0; s < table.stripes(); ++s) {
    const auto* c = table.CombiningStripeStats(s);
    ASSERT_NE(c, nullptr);
    const std::uint64_t ops = c->pass_through.load() + c->combined.load();
    pass += c->pass_through.load();
    comb += c->combined.load();
    occupied += ops > 0 ? 1 : 0;
    max = ops > max ? ops : max;
  }
  EXPECT_EQ(pass, s2.pass_through);
  EXPECT_EQ(comb, s2.combined);
  EXPECT_EQ(occupied, s2.occupied_stripes);
  EXPECT_EQ(max, s2.max_stripe_ops);

  // Single-threaded: one Apply + one 2-key batch per op (a batch of 2 keys
  // is 1 published op per distinct stripe, and key/key+5 never collide on a
  // stripe... unless the hash says so, in which case the batch is one op).
  EXPECT_EQ(s2.combined, 0u);
  // Every op took its stripe's fast path, which drains nothing.
  EXPECT_EQ(s2.batches, 0u);
  EXPECT_EQ(s2.budget_cutoffs, 0u);
  EXPECT_GE(s2.pass_through, 500u * 2);
  EXPECT_LE(s2.pass_through, 500u * 3);
  // The underlying lock-table counters are live too, and agree: every
  // single-threaded op is one fast-path stripe acquisition.
  EXPECT_EQ(table.StatsSummary().total_acquisitions, s2.TotalOps());
}

TEST(TableStatsProperties, DisabledStatsStayDisabled) {
  locktable::LockTable<RealPlatform, RealCna> lock_table({.stripes = 8});
  locktable::RwLockTable<RealPlatform, RealRw> rw_table({.stripes = 8});
  locktable::CombiningTable<RealPlatform, RealCna> combining({.stripes = 8});

  {
    typename decltype(lock_table)::Guard guard(lock_table, 1);
  }
  {
    typename decltype(rw_table)::ReadGuard guard(rw_table, 1);
  }
  combining.Apply(1, [] {});

  EXPECT_FALSE(lock_table.stats_enabled());
  EXPECT_FALSE(rw_table.stats_enabled());
  EXPECT_FALSE(combining.stats_enabled());
  EXPECT_EQ(lock_table.StripeStats(0), nullptr);
  EXPECT_EQ(rw_table.StripeStats(0), nullptr);
  EXPECT_EQ(combining.CombiningStripeStats(0), nullptr);
  EXPECT_EQ(lock_table.StatsSummary().total_acquisitions, 0u);
  EXPECT_EQ(rw_table.StatsSummary().TotalAcquisitions(), 0u);
  EXPECT_EQ(combining.CombiningSummary().TotalOps(), 0u);
}

TEST(TableStatsLayout, CellsFollowStripePadding) {
  using locktable::StripePadding;
  const auto gap = [](const void* a, const void* b) {
    return reinterpret_cast<std::uintptr_t>(b) -
           reinterpret_cast<std::uintptr_t>(a);
  };
  for (const StripePadding padding :
       {StripePadding::kCompact, StripePadding::kCacheLine}) {
    const std::uintptr_t stride =
        padding == StripePadding::kCompact ? 16 : kCacheLineSize;
    locktable::LockTable<RealPlatform, RealCna> lock_table(
        {.stripes = 4, .padding = padding, .collect_stats = true});
    locktable::RwLockTable<RealPlatform, RealRw> rw_table(
        {.stripes = 4, .padding = padding, .collect_stats = true});
    locktable::CombiningTable<RealPlatform, RealCna> combining(
        {.stripes = 4, .padding = padding, .collect_stats = true});
    EXPECT_EQ(gap(lock_table.StripeStats(0), lock_table.StripeStats(1)),
              stride);
    EXPECT_EQ(gap(lock_table.StripeStats(0), lock_table.StripeStats(3)),
              3 * stride);
    EXPECT_EQ(gap(rw_table.StripeStats(0), rw_table.StripeStats(1)), stride);
    EXPECT_EQ(gap(combining.CombiningStripeStats(0),
                  combining.CombiningStripeStats(1)),
              stride);
    EXPECT_EQ(gap(combining.CombiningStripeStats(0),
                  combining.CombiningStripeStats(3)),
              3 * stride);
  }
}

// Three threads take stripes exclusively only (Lock, TryLock, 2-key
// MultiGuard) while a fourth takes summaries.  The shared counts are derived
// as total minus exclusive, so a summary that read the two sides out of step
// would show reads that never happened, or wrap.
TEST(TableStatsProperties, RwSummaryWhileRecordingSplitsExactly) {
  using Table = locktable::RwLockTable<RealPlatform, RealRw>;
  Table table({.stripes = 16, .collect_stats = true});
  constexpr int kWorkers = 3;
  constexpr int kSnapshots = 100'000;
  struct Tally {
    std::uint64_t acquisitions = 0;
    std::uint64_t trylock_failures = 0;
    std::uint64_t multi_key = 0;
  };
  std::array<Tally, kWorkers> tallies{};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    Tally& tally = tallies[static_cast<std::size_t>(w)];
    workers.emplace_back([&table, &stop, &tally, w] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        // Four keys over 16 stripes: the threads keep meeting.
        const std::uint64_t key = (i + static_cast<std::uint64_t>(w)) % 4;
        switch (i % 3) {
          case 0:
            table.Lock(key);
            table.Unlock(key);
            ++tally.acquisitions;
            break;
          case 1:
            if (table.TryLock(key)) {
              table.Unlock(key);
              ++tally.acquisitions;
            } else {
              ++tally.trylock_failures;
            }
            break;
          default: {
            const std::uint64_t keys[] = {key, key + 1};
            Table::MultiGuard txn(table, keys, 2);
            tally.acquisitions += txn.size();
            tally.multi_key += txn.size();
          }
        }
      }
    });
  }

  // Violations are counted, not asserted one by one, to keep a failure's
  // report short.
  std::uint64_t nonzero_reads = 0;
  std::uint64_t went_back = 0;
  locktable::RwTableStatsSummary prev = table.StatsSummary();
  for (int n = 0; n < kSnapshots; ++n) {
    const locktable::RwTableStatsSummary cur = table.StatsSummary();
    nonzero_reads += cur.read_acquisitions != 0 || cur.read_contended != 0;
    went_back += cur.TotalAcquisitions() < prev.TotalAcquisitions() ||
                 cur.write_acquisitions < prev.write_acquisitions ||
                 cur.writer_waits < prev.writer_waits ||
                 cur.trylock_failures < prev.trylock_failures ||
                 cur.multi_key_acquisitions < prev.multi_key_acquisitions ||
                 cur.occupied_stripes < prev.occupied_stripes ||
                 cur.max_stripe_acquisitions < prev.max_stripe_acquisitions;
    prev = cur;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(nonzero_reads, 0u);
  EXPECT_EQ(went_back, 0u);

  Tally total;
  for (const Tally& t : tallies) {
    total.acquisitions += t.acquisitions;
    total.trylock_failures += t.trylock_failures;
    total.multi_key += t.multi_key;
  }
  const locktable::RwTableStatsSummary last = table.StatsSummary();
  EXPECT_EQ(last.read_acquisitions, 0u);
  EXPECT_EQ(last.read_contended, 0u);
  EXPECT_EQ(last.write_acquisitions, total.acquisitions);
  EXPECT_EQ(last.trylock_failures, total.trylock_failures);
  EXPECT_EQ(last.multi_key_acquisitions, total.multi_key);
  EXPECT_LE(last.writer_waits, last.write_acquisitions);
}

}  // namespace
}  // namespace cna
