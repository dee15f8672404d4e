// Lock-table subsystem tests: namespace geometry, the handle-free locking
// surface, Guard/MultiGuard semantics, per-stripe statistics, and the
// simulator-based stress tests (many fibers, random multi-key transactions;
// no deadlock -- Machine::Run() throws on one -- and no lost updates).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "apps/mini_leveldb.h"
#include "apps/sharded_kv.h"
#include "base/cacheline.h"
#include "base/rng.h"
#include "locks/cna.h"
#include "locks/mcs.h"
#include "locktable/lock_table.h"
#include "platform/real_platform.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

using RealCna = locks::CnaLock<RealPlatform>;
using SimCna = locks::CnaLock<SimPlatform>;
using RealTable = locktable::LockTable<RealPlatform, RealCna>;
using SimTable = locktable::LockTable<SimPlatform, SimCna>;

sim::MachineConfig TwoSocketSmall(int cpus_per_socket = 8) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, cpus_per_socket);
  return cfg;
}

// ---------- Geometry ----------

TEST(LockTable, StripeCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(RealTable({.stripes = 0}).stripes(), 1u);
  EXPECT_EQ(RealTable({.stripes = 1}).stripes(), 1u);
  EXPECT_EQ(RealTable({.stripes = 16}).stripes(), 16u);
  EXPECT_EQ(RealTable({.stripes = 17}).stripes(), 32u);
  EXPECT_EQ(RealTable({.stripes = 1000}).stripes(), 1024u);
}

TEST(LockTable, StripeOfIsDeterministicAndInRange) {
  RealTable table({.stripes = 64});
  for (std::uint64_t key : {0ull, 1ull, 42ull, ~0ull, 1ull << 63}) {
    const std::size_t s = table.StripeOf(key);
    EXPECT_LT(s, table.stripes());
    EXPECT_EQ(s, table.StripeOf(key));
  }
}

TEST(LockTable, HashSpreadsSequentialKeysAcrossStripes) {
  RealTable table({.stripes = 64});
  std::set<std::size_t> stripes;
  for (std::uint64_t key = 0; key < 256; ++key) {
    stripes.insert(table.StripeOf(key));
  }
  // Full-avalanche mixing: 256 sequential keys must touch most of the 64
  // stripes (a modulo hash would stripe them perfectly; splitmix spreads
  // them statistically).
  EXPECT_GT(stripes.size(), 48u);
}

TEST(LockTable, CompactLayoutIsOneWordPerStripe) {
  RealTable table({.stripes = 1024});
  EXPECT_EQ(table.LockStateBytes(), 1024 * sizeof(void*));
  EXPECT_EQ(RealTable::PerStripeStateBytes(), sizeof(void*));
}

TEST(LockTable, CacheLinePaddingCostsALinePerStripe) {
  RealTable table(
      {.stripes = 64, .padding = locktable::StripePadding::kCacheLine});
  EXPECT_EQ(table.LockStateBytes(), 64 * kCacheLineSize);
}

// The headline acceptance number: a million-stripe CNA namespace is 8 MiB of
// lock words -- cheap enough to embed a NUMA-aware lock per object.
TEST(LockTable, MillionStripeTableIsEightMiB) {
  RealTable table({.stripes = 1u << 20});
  EXPECT_EQ(table.stripes(), 1u << 20);
  EXPECT_EQ(table.LockStateBytes(), (1u << 20) * sizeof(void*));
  EXPECT_LE(table.LockStateBytes(), 8u << 20);
  // And it is usable, not just allocatable.
  table.Lock(123456789);
  table.Unlock(123456789);
}

// ---------- Handle-free locking surface ----------

TEST(LockTable, LockUnlockRoundTrip) {
  RealTable table({.stripes = 16});
  table.Lock(7);
  EXPECT_EQ(table.HeldByThisContext(), 1u);
  table.Unlock(7);
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

TEST(LockTable, TryLockReflectsStripeState) {
  RealTable table({.stripes = 16});
  const std::uint64_t key = 5;
  ASSERT_TRUE(table.TryLock(key));
  // Same stripe, same context: the stripe is held (by us), so a second
  // try-lock fails rather than deadlocking.
  EXPECT_FALSE(table.TryLock(key));
  table.Unlock(key);
  EXPECT_TRUE(table.TryLock(key));
  table.Unlock(key);
}

TEST(LockTable, DistinctStripesUnlockOutOfOrder) {
  RealTable table({.stripes = 1024});
  // Find two keys on different stripes.
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  while (table.StripeOf(a) == table.StripeOf(b)) {
    ++b;
  }
  table.Lock(a);
  table.Lock(b);
  EXPECT_EQ(table.HeldByThisContext(), 2u);
  table.Unlock(a);  // acquisition order a,b; release order a,b (non-LIFO)
  table.Unlock(b);
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

TEST(LockTable, UnlockOfUnheldStripeThrows) {
  RealTable table({.stripes = 16});
  EXPECT_THROW(table.Unlock(3), std::logic_error);
}

TEST(LockTable, LedgerReusesNodesAcrossAcquisitions) {
  // A fresh thread has a fresh ledger, so earlier tests' nesting cannot
  // have grown it.  100 sequential acquisitions reuse one inline node and
  // never allocate an overflow node.
  std::thread([] {
    RealTable table({.stripes = 16});
    RealTable::Ledger& ledger = RealTable::ContextLedger();
    const RealTable::Handle* first = nullptr;
    for (int i = 0; i < 100; ++i) {
      table.Lock(static_cast<std::uint64_t>(i));
      ASSERT_EQ(ledger.held(), 1u);
      if (first == nullptr) {
        first = ledger.At(0).node;
      }
      EXPECT_EQ(ledger.At(0).node, first);
      table.Unlock(static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(ledger.held(), 0u);
    EXPECT_EQ(ledger.overflow_nodes(), 0u);
  }).join();
}

// ---------- Guard / MultiGuard ----------

TEST(LockTable, GuardIsRaii) {
  RealTable table({.stripes = 16});
  {
    RealTable::Guard g(table, 9);
    EXPECT_EQ(table.HeldByThisContext(), 1u);
    EXPECT_EQ(g.stripe(), table.StripeOf(9));
  }
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

TEST(LockTable, MultiGuardDeduplicatesCollidingKeys) {
  RealTable table({.stripes = 1});  // every key collides on stripe 0
  {
    RealTable::MultiGuard g(table, {1, 2, 3, 4});
    EXPECT_EQ(g.stripes().size(), 1u);
    EXPECT_EQ(table.HeldByThisContext(), 1u);
  }
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

TEST(LockTable, MultiGuardAcquiresStripesInAscendingOrder) {
  RealTable table({.stripes = 1024});
  RealTable::MultiGuard g(table, {11, 22, 33, 44, 55});
  const auto& stripes = g.stripes();
  for (std::size_t i = 1; i < stripes.size(); ++i) {
    EXPECT_LT(stripes[i - 1], stripes[i]);
  }
}

TEST(LockTable, MultiGuardHandlesDuplicateKeys) {
  RealTable table({.stripes = 64});
  RealTable::MultiGuard g(table, {7, 7, 7});
  EXPECT_EQ(g.stripes().size(), 1u);
}

TEST(LockTable, MultiGuardBeyondInlineCapacity) {
  RealTable table({.stripes = 4096});
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < RealTable::MultiGuard::kInlineKeys + 8; ++k) {
    keys.push_back(k * 977);
  }
  {
    RealTable::MultiGuard g(table, keys.data(), keys.size());
    EXPECT_EQ(table.HeldByThisContext(), g.size());
    const auto stripes = g.stripes();
    for (std::size_t i = 1; i < stripes.size(); ++i) {
      EXPECT_LT(stripes[i - 1], stripes[i]);
    }
  }
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

// The first stripe starts a cache line in the compact layout too, wherever
// the allocator happens to be: which stripes share a line (and so every
// simulated result) must not depend on the heap's history.
TEST(LockTable, CompactStripeArrayStartsACacheLine) {
  std::vector<std::unique_ptr<char[]>> skew;
  for (const std::size_t stripes : {1u, 16u, 1024u}) {
    for (std::size_t bytes = 1; bytes <= 72; bytes += 7) {
      skew.push_back(std::make_unique<char[]>(bytes));
      RealTable real({.stripes = stripes});
      SimTable sim({.stripes = stripes});
      ASSERT_EQ(real.padding(), locktable::StripePadding::kCompact);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&real.StripeLock(0)) %
                    kCacheLineSize,
                0u)
          << stripes << " stripes after a " << bytes << " B allocation";
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&sim.StripeLock(0)) %
                    kCacheLineSize,
                0u)
          << stripes << " stripes after a " << bytes << " B allocation";
      EXPECT_EQ(real.LockStateBytes(), stripes * sizeof(RealCna));
    }
  }
}

TEST(LockTable, RejectsAbsurdStripeCounts) {
  EXPECT_THROW(RealTable({.stripes = RealTable::kMaxStripes + 1}),
               std::length_error);
}

TEST(LockTable, CheckedUnlockKeysIsAllOrNothing) {
  RealTable table({.stripes = 1024});
  std::uint64_t held = 1;
  std::uint64_t unheld = 2;
  while (table.StripeOf(held) == table.StripeOf(unheld)) {
    ++unheld;
  }
  table.Lock(held);
  const std::uint64_t keys[2] = {unheld, held};
  EXPECT_THROW(table.UnlockKeys(keys, 2), std::logic_error);
  EXPECT_EQ(table.HeldByThisContext(), 1u);  // nothing was half-released
  table.Unlock(held);
}

// ---------- Statistics ----------

TEST(LockTableStats, CountsAcquisitionsAndOccupancy) {
  RealTable table({.stripes = 16, .collect_stats = true});
  ASSERT_TRUE(table.stats_enabled());
  for (int i = 0; i < 10; ++i) {
    RealTable::Guard g(table, 1);
  }
  RealTable::MultiGuard g(table, {2, 3});
  const auto s = table.StatsSummary();
  EXPECT_EQ(s.total_acquisitions, 10u + g.stripes().size());
  EXPECT_EQ(s.multi_key_acquisitions, g.stripes().size());
  EXPECT_EQ(s.contended_acquisitions, 0u);  // single-threaded
  EXPECT_EQ(s.max_stripe_acquisitions, 10u);
  EXPECT_LE(s.occupied_stripes, 3u);
  EXPECT_GE(s.occupied_stripes, 1u);
  EXPECT_GT(s.Occupancy(), 0.0);
}

TEST(LockTableStats, DisabledByDefaultAndFree) {
  RealTable table({.stripes = 16});
  EXPECT_FALSE(table.stats_enabled());
  table.Lock(1);
  table.Unlock(1);
  const auto s = table.StatsSummary();
  EXPECT_EQ(s.total_acquisitions, 0u);
}

TEST(LockTableStats, ObservesContentionOnSim) {
  sim::Machine m(TwoSocketSmall());
  SimTable table({.stripes = 1, .collect_stats = true});
  for (int t = 0; t < 4; ++t) {
    m.Spawn([&] {
      for (int i = 0; i < 50; ++i) {
        SimTable::Guard g(table, 0);
        sim::Machine::Active()->AdvanceLocalWork(200);
      }
    });
  }
  m.Run();
  const auto s = table.StatsSummary();
  EXPECT_EQ(s.total_acquisitions, 200u);
  EXPECT_GT(s.contended_acquisitions, 0u);
  EXPECT_EQ(s.occupied_stripes, 1u);
}

// ---------- Simulator stress: mutual exclusion ----------

TEST(LockTableSim, GuardedIncrementsAreNotLost) {
  sim::Machine m(TwoSocketSmall());
  SimTable table({.stripes = 4});  // 16 keys over 4 stripes: heavy collision
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  constexpr std::uint64_t kKeys = 16;
  std::vector<std::uint64_t> counters(kKeys, 0);
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&, t] {
      XorShift64 rng = XorShift64::FromSeed(static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t key = rng.NextBelow(kKeys);
        SimTable::Guard g(table, key);
        // Read-modify-write of plain shared memory: any mutual-exclusion
        // violation manifests as a lost count.
        const std::uint64_t v = counters[key];
        sim::Machine::Active()->AdvanceLocalWork(50);
        counters[key] = v + 1;
      }
    });
  }
  m.Run();
  std::uint64_t total = 0;
  for (std::uint64_t c : counters) {
    total += c;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---------- Simulator stress: random multi-key transactions ----------
//
// Many fibers run random two- and three-key transfers over a small account
// set through MultiGuard.  Colliding stripes, overlapping key sets, and
// reversed orders are all exercised; Machine::Run() throws on deadlock, and
// value conservation catches lost updates.
TEST(LockTableSim, MultiGuardTransactionsNoDeadlockNoLostUpdates) {
  sim::Machine m(TwoSocketSmall());
  apps::ShardedKvOptions o;
  o.key_range = 32;
  o.lock_stripes = 4;  // aggressive stripe collisions
  o.cs_compute_ns = 30;
  apps::ShardedKv<SimPlatform, SimCna> kv(o);
  constexpr std::uint64_t kInitial = 1000;
  for (std::uint64_t k = 0; k < o.key_range; ++k) {
    kv.Put(k, kInitial);
  }
  constexpr int kThreads = 12;
  constexpr int kIters = 150;
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&, t] {
      XorShift64 rng = XorShift64::FromSeed(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t a = rng.NextBelow(o.key_range);
        const std::uint64_t b = rng.NextBelow(o.key_range);
        if (rng.Next() & 1) {
          kv.Transfer(a, b, 1 + rng.NextBelow(10));
        } else {
          // Three-key read-only audit through the same ordered discipline.
          const std::uint64_t c = rng.NextBelow(o.key_range);
          const std::uint64_t keys[3] = {a, b, c};
          typename apps::ShardedKv<SimPlatform, SimCna>::Table::MultiGuard g(
              kv.table(), keys, 3);
          sim::Machine::Active()->AdvanceLocalWork(30);
        }
      }
    });
  }
  m.Run();  // throws std::logic_error on deadlock
  EXPECT_EQ(kv.TotalValue(), kInitial * o.key_range);  // conservation
}

TEST(LockTableSim, TransactionsAcrossManyStripesWithMcs) {
  // Same discipline holds for any Lockable, not just CNA.
  sim::Machine m(TwoSocketSmall());
  using Mcs = locks::McsLock<SimPlatform>;
  apps::ShardedKvOptions o;
  o.key_range = 64;
  o.lock_stripes = 16;
  apps::ShardedKv<SimPlatform, Mcs> kv(o);
  for (std::uint64_t k = 0; k < o.key_range; ++k) {
    kv.Put(k, 100);
  }
  for (int t = 0; t < 8; ++t) {
    m.Spawn([&, t] {
      XorShift64 rng = XorShift64::FromSeed(7 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 100; ++i) {
        kv.Transfer(rng.NextBelow(o.key_range), rng.NextBelow(o.key_range),
                    1 + rng.NextBelow(5));
      }
    });
  }
  m.Run();
  EXPECT_EQ(kv.TotalValue(), 100u * o.key_range);
}

// ---------- ShardedKv semantics ----------

TEST(ShardedKv, PutGetEraseRoundTrip) {
  apps::ShardedKvOptions o;
  o.key_range = 128;
  o.lock_stripes = 8;
  apps::ShardedKv<RealPlatform, RealCna> kv(o);
  EXPECT_FALSE(kv.Get(5).has_value());
  kv.Put(5, 55);
  ASSERT_TRUE(kv.Get(5).has_value());
  EXPECT_EQ(*kv.Get(5), 55u);
  EXPECT_TRUE(kv.Erase(5));
  EXPECT_FALSE(kv.Erase(5));
  EXPECT_FALSE(kv.Get(5).has_value());
}

TEST(ShardedKv, TransferMovesUpToAvailable) {
  apps::ShardedKvOptions o;
  o.key_range = 16;
  o.lock_stripes = 4;
  apps::ShardedKv<RealPlatform, RealCna> kv(o);
  kv.Put(1, 10);
  EXPECT_EQ(kv.Transfer(1, 2, 4), 4u);
  EXPECT_EQ(kv.Transfer(1, 2, 100), 6u);  // clamped to remaining balance
  EXPECT_EQ(*kv.Get(2), 10u);
  EXPECT_FALSE(kv.Get(1).has_value());    // drained to 0 == absent
  EXPECT_EQ(kv.Transfer(3, 3, 5), 0u);    // self-transfer is a no-op
  EXPECT_EQ(kv.TotalValue(), 10u);
}

// ---------- MiniLevelDb on the lock table ----------

TEST(MiniLevelDbOnLockTable, ConfigurableShardCount) {
  apps::MiniLevelDbOptions o;
  o.prefill_keys = 1000;
  o.cache_shards = 64;
  o.cache_capacity_per_shard = 8;
  apps::MiniLevelDb<RealPlatform, RealCna> db(o);
  EXPECT_EQ(db.cache_shard_locks().stripes(), 64u);
  XorShift64 rng = XorShift64::FromSeed(3);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(db.ReadRandomOp(rng).has_value());
  }
  EXPECT_EQ(db.version_refs(), 0u);
}

TEST(MiniLevelDbOnLockTable, ShardLocksArePaddedPerStripe) {
  apps::MiniLevelDbOptions o;
  o.prefill_keys = 10;
  apps::MiniLevelDb<RealPlatform, RealCna> db(o);
  // 16 shard locks, one cache line each: the small hot table trades the
  // compact layout for freedom from false sharing.
  EXPECT_EQ(db.cache_shard_locks().stripes(), 16u);
  EXPECT_EQ(db.cache_shard_locks().LockStateBytes(), 16 * kCacheLineSize);
}

}  // namespace
}  // namespace cna
