// Property tests for the table_stats.h counter families shared by the three
// keyed namespaces (LockTable, RwLockTable, CombiningTable):
//
//  * snapshots are monotone -- every aggregate in a later Summarize() is >=
//    the same aggregate in an earlier one;
//  * per-stripe counters sum to the table totals -- Summarize() is exactly
//    the fold of stripe(s) over all stripes, occupied/max included;
//  * disabled stats stay disabled -- null stripe pointers, zero summaries.
//
// Drivers are single-threaded over RealPlatform, so the expected counts are
// exact, not bounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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
  auto op = [&table](std::uint64_t key) {
    {
      typename decltype(table)::Guard guard(table, key);
    }
    if (table.TryLock(key)) {
      table.Unlock(key);
    }
    const std::uint64_t keys[] = {key, key + 1};
    typename decltype(table)::MultiGuard txn(table, keys, 2);
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
  std::uint64_t acq = 0, contended = 0, failures = 0, multi = 0, max = 0;
  std::size_t occupied = 0;
  for (std::size_t s = 0; s < table.stripes(); ++s) {
    const auto* c = table.StripeStats(s);
    ASSERT_NE(c, nullptr);
    const std::uint64_t a = c->acquisitions.load();
    acq += a;
    contended += c->contended.load();
    failures += c->trylock_failures.load();
    multi += c->multi_key.load();
    occupied += a > 0 ? 1 : 0;
    max = a > max ? a : max;
  }
  EXPECT_EQ(acq, s2.total_acquisitions);
  EXPECT_EQ(contended, s2.contended_acquisitions);
  EXPECT_EQ(failures, s2.trylock_failures);
  EXPECT_EQ(multi, s2.multi_key_acquisitions);
  EXPECT_EQ(occupied, s2.occupied_stripes);
  EXPECT_EQ(max, s2.max_stripe_acquisitions);
  EXPECT_EQ(s2.stripes, table.stripes());

  // Single-threaded accounting: Guard + TryLock + 2-key MultiGuard (the
  // MultiGuard takes 2 stripes, or 1 when key and key+1 collide).
  EXPECT_GE(s2.total_acquisitions, 500u * 3);
  EXPECT_LE(s2.total_acquisitions, 500u * 4);
  EXPECT_EQ(s2.trylock_failures, 0u);
  EXPECT_EQ(s2.multi_key_acquisitions + 500u * 2, s2.total_acquisitions);
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

  std::uint64_t reads = 0, writes = 0, rc = 0, ww = 0, failures = 0, max = 0;
  std::size_t occupied = 0;
  for (std::size_t s = 0; s < table.stripes(); ++s) {
    const auto* c = table.StripeStats(s);
    ASSERT_NE(c, nullptr);
    // One counter cell for both modes: shared acquisitions are the reads,
    // exclusive ones the writes.
    const std::uint64_t r = c->shared_acquisitions.load();
    const std::uint64_t w = c->acquisitions.load();
    reads += r;
    writes += w;
    rc += c->shared_contended.load();
    ww += c->contended.load();
    failures += c->trylock_failures.load();
    occupied += r + w > 0 ? 1 : 0;
    max = r + w > max ? r + w : max;
  }
  EXPECT_EQ(reads, s2.read_acquisitions);
  EXPECT_EQ(writes, s2.write_acquisitions);
  EXPECT_EQ(rc, s2.read_contended);
  EXPECT_EQ(ww, s2.writer_waits);
  EXPECT_EQ(failures, s2.trylock_failures);
  EXPECT_EQ(occupied, s2.occupied_stripes);
  EXPECT_EQ(max, s2.max_stripe_acquisitions);

  EXPECT_EQ(s2.read_acquisitions, 500u * 2);
  EXPECT_EQ(s2.write_acquisitions, 500u);
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

  std::uint64_t pass = 0, comb = 0, batches = 0, cutoffs = 0, max = 0;
  std::size_t occupied = 0;
  for (std::size_t s = 0; s < table.stripes(); ++s) {
    const auto* c = table.CombiningStripeStats(s);
    ASSERT_NE(c, nullptr);
    const std::uint64_t ops = c->pass_through.load() + c->combined.load();
    pass += c->pass_through.load();
    comb += c->combined.load();
    batches += c->batches.load();
    cutoffs += c->budget_cutoffs.load();
    occupied += ops > 0 ? 1 : 0;
    max = ops > max ? ops : max;
  }
  EXPECT_EQ(pass, s2.pass_through);
  EXPECT_EQ(comb, s2.combined);
  EXPECT_EQ(batches, s2.batches);
  EXPECT_EQ(cutoffs, s2.budget_cutoffs);
  EXPECT_EQ(occupied, s2.occupied_stripes);
  EXPECT_EQ(max, s2.max_stripe_ops);

  // Single-threaded: one Apply + one 2-key batch per op (a batch of 2 keys
  // is 1 published op per distinct stripe, and key/key+5 never collide on a
  // stripe... unless the hash says so, in which case the batch is one op).
  EXPECT_EQ(s2.combined, 0u);
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

}  // namespace
}  // namespace cna
