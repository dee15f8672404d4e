// RwLockTable subsystem tests: reader/writer surfaces and guards (the
// exclusive surface shared with the mutex table runs typed over both stripe
// types in locktable_test.cc), per-stripe read/write statistics, the
// registry factories (MakeRwLockTable, core::SharedMutex,
// core::ShardedSharedMutex), and the C surface (cna_rwlock_*, and
// cna_locktable_* over reader-writer stripes) round-trip -- including the
// real-thread stress the CI ThreadSanitizer job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <thread>
#include <vector>

#include "apps/sharded_kv.h"
#include "core/pthread_api.h"
#include "core/registry.h"
#include "locks/cna_rwlock.h"
#include "locktable/rw_lock_table.h"
#include "platform/real_platform.h"

namespace cna {
namespace {

using RealRw = locks::CnaRwLock<RealPlatform>;
using RealRwCompact = locks::CnaRwLock<RealPlatform, locks::CnaRwCompactConfig>;
using Table = locktable::RwLockTable<RealPlatform, RealRw>;
using CompactTable = locktable::RwLockTable<RealPlatform, RealRwCompact>;
constexpr auto kShared = locktable::HoldMode::kShared;
constexpr auto kExclusive = locktable::HoldMode::kExclusive;

// ---------- Geometry ----------

TEST(RwLockTable, StripeOfMatchesMutexTableHash) {
  CompactTable rw({.stripes = 64});
  locktable::LockTable<RealPlatform, locks::CnaLock<RealPlatform>> mx(
      {.stripes = 64});
  for (std::uint64_t key : {0ull, 1ull, 42ull, ~0ull}) {
    EXPECT_EQ(rw.StripeOf(key), mx.StripeOf(key));
  }
}

// ---------- Reader/writer surface ----------

TEST(RwLockTable, SharedAndExclusiveRoundTrip) {
  Table table({.stripes = 16});
  table.LockShared(7);
  EXPECT_EQ(table.HeldByThisContext(kShared), 1u);
  table.UnlockShared(7);
  table.LockExclusive(7);
  EXPECT_EQ(table.HeldByThisContext(kExclusive), 1u);
  table.UnlockExclusive(7);
  EXPECT_EQ(table.HeldByThisContext(kShared), 0u);
  EXPECT_EQ(table.HeldByThisContext(kExclusive), 0u);
}

TEST(RwLockTable, ReadersOfOneStripeShare) {
  Table table({.stripes = 4});
  ASSERT_TRUE(table.TryLockShared(1));
  EXPECT_TRUE(table.TryLockShared(1));  // second reader admitted
  EXPECT_FALSE(table.TryLockExclusive(1));
  table.UnlockShared(1);
  table.UnlockShared(1);
  EXPECT_TRUE(table.TryLockExclusive(1));
  EXPECT_FALSE(table.TryLockShared(1));  // writer blocks readers
  table.UnlockExclusive(1);
}

TEST(RwLockTable, UnifiedUnlockDispatchesOnHeldMode) {
  Table table({.stripes = 16});
  table.LockShared(3);
  table.Unlock(3);  // releases the shared hold
  EXPECT_EQ(table.HeldByThisContext(kShared), 0u);
  table.LockExclusive(3);
  table.Unlock(3);  // releases the exclusive hold
  EXPECT_EQ(table.HeldByThisContext(kExclusive), 0u);
  EXPECT_THROW(table.Unlock(3), std::logic_error);  // held in neither mode
}

TEST(RwLockTable, ReadGuardIsRaii) {
  Table table({.stripes = 16});
  {
    Table::ReadGuard r(table, 9);
    EXPECT_EQ(table.HeldByThisContext(kShared), 1u);
    EXPECT_EQ(r.stripe(), table.StripeOf(9));
  }
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

// The exclusive surface's checked releases match exclusive holds only: a
// stripe held shared satisfies neither UnlockExclusive nor UnlockKeys, and
// MultiGuard's holds are exclusive.
TEST(RwLockTable, ExclusiveReleasesRequireExclusiveHolds) {
  Table table({.stripes = 1024});
  table.LockShared(1);
  const std::uint64_t one[1] = {1};
  EXPECT_THROW(table.UnlockKeys(one, 1), std::logic_error);
  EXPECT_THROW(table.UnlockExclusive(1), std::logic_error);
  EXPECT_EQ(table.HeldByThisContext(kShared), 1u);
  table.UnlockShared(1);
  EXPECT_THROW(table.UnlockShared(1), std::logic_error);
  Table::MultiGuard g(table, {11, 22, 33, 11});
  EXPECT_EQ(table.HeldByThisContext(kExclusive), g.size());
}

// ---------- Statistics ----------

TEST(RwLockTableStats, CountsReadsWritesAndOccupancy) {
  Table table({.stripes = 16, .collect_stats = true});
  ASSERT_TRUE(table.stats_enabled());
  for (int i = 0; i < 8; ++i) {
    Table::ReadGuard g(table, 1);
  }
  for (int i = 0; i < 2; ++i) {
    Table::WriteGuard g(table, 1);
  }
  const auto s = table.StatsSummary();
  EXPECT_EQ(s.read_acquisitions, 8u);
  EXPECT_EQ(s.write_acquisitions, 2u);
  EXPECT_EQ(s.writer_waits, 0u);  // single-threaded: nothing to wait for
  EXPECT_EQ(s.TotalAcquisitions(), 10u);
  EXPECT_DOUBLE_EQ(s.ReadShare(), 0.8);
  EXPECT_EQ(s.occupied_stripes, 1u);
  EXPECT_EQ(s.max_stripe_acquisitions, 10u);
}

// MultiGuard's exclusive acquisitions count as multi-key, as on the mutex
// table.
TEST(RwLockTableStats, CountsMultiKeyWrites) {
  Table table({.stripes = 1024, .collect_stats = true});
  std::size_t taken = 0;
  {
    Table::MultiGuard g(table, {1, 2, 3});
    taken = g.size();
  }
  const auto s = table.StatsSummary();
  EXPECT_EQ(s.multi_key_acquisitions, taken);
  EXPECT_EQ(s.write_acquisitions, taken);
  EXPECT_EQ(s.read_acquisitions, 0u);
}

TEST(RwLockTableStats, WriterWaitsObservedUnderReaders) {
  Table table({.stripes = 1, .collect_stats = true});
  table.LockShared(0);
  std::thread writer([&] { Table::WriteGuard g(table, 0); });
  // Give the writer time to fail its probe and start waiting, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  table.UnlockShared(0);
  writer.join();
  const auto s = table.StatsSummary();
  EXPECT_EQ(s.write_acquisitions, 1u);
  EXPECT_EQ(s.writer_waits, 1u);  // the probe failed against our reader
}

// ---------- Real-thread stress (runs under TSan in CI) ----------

// Writers keep per-key values even outside their critical sections (odd
// while mid-update); readers assert they never observe an odd value.  Any
// reader/writer overlap on a stripe manifests as an odd observation; any
// writer/writer overlap as a lost increment.
TEST(RwLockTableStress, ReadersNeverObserveWritersMidUpdate) {
  CompactTable table({.stripes = 8});
  constexpr std::uint64_t kKeys = 32;
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kIters = 2000;
  std::vector<std::uint64_t> values(kKeys, 0);
  std::atomic<bool> odd_seen{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) * 7919 + 1;
      for (int i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t key = x % kKeys;
        CompactTable::WriteGuard g(table, key);
        values[key] += 1;  // odd: update in progress
        std::this_thread::yield();
        values[key] += 1;  // even again
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) * 104729 + 3;
      for (int i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t key = x % kKeys;
        CompactTable::ReadGuard g(table, key);
        if (values[key] % 2 != 0) {
          odd_seen.store(true);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_FALSE(odd_seen.load());
  std::uint64_t total = 0;
  for (std::uint64_t v : values) {
    total += v;
  }
  EXPECT_EQ(total, 2u * kWriters * kIters);  // no lost writer updates
}

// The read-mostly KV substrate over real threads: value conservation across
// concurrent Add()s while Get()s run against the same stripes.
TEST(RwLockTableStress, RwShardedKvKeepsTotals) {
  apps::RwShardedKvOptions o;
  o.key_range = 64;
  o.lock_stripes = 8;
  o.cs_compute_ns = 0;
  apps::RwShardedKv<RealPlatform, RealRw> kv(o);
  constexpr int kThreads = 4;
  constexpr int kIters = 1500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      XorShift64 rng = XorShift64::FromSeed(40 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t key = rng.NextBelow(o.key_range);
        if (rng.Next() % 4 == 0) {
          kv.Add(key, 1);
        } else {
          (void)kv.Get(key);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  // Replay the deterministic RNG streams to count how many Adds ran: every
  // one of them must have landed exactly once (no lost updates under
  // concurrent readers).
  std::uint64_t expected_adds = 0;
  for (int t = 0; t < kThreads; ++t) {
    XorShift64 rng = XorShift64::FromSeed(40 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kIters; ++i) {
      (void)rng.NextBelow(o.key_range);
      expected_adds += rng.Next() % 4 == 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(kv.TotalValue(), expected_adds);
  EXPECT_GT(expected_adds, 0u);
}

// ---------- Registry factories ----------

TEST(MakeRwLockTable, EveryKindBuildsAndRoundTrips) {
  for (auto kind : core::AllRwLockKinds()) {
    auto table = core::MakeRwLockTable<RealPlatform>(
        kind, locktable::LockTableOptions{.stripes = 8});
    ASSERT_NE(table, nullptr) << core::RwLockKindName(kind);
    EXPECT_EQ(table->Stripes(), 8u);
    EXPECT_EQ(table->Name(), core::RwLockKindName(kind));
    table->LockShared(42);
    table->UnlockShared(42);
    table->Lock(42);
    table->Unlock(42);  // unified release of the exclusive hold
    const std::uint64_t keys[3] = {1, 2, 3};
    table->LockMany(keys, 3);
    table->UnlockMany(keys, 3);
    EXPECT_GE(table->LockStateBytes(),
              table->Stripes() * table->PerStripeStateBytes());
  }
}

TEST(SharedMutex, ByNameAndByKind) {
  core::SharedMutex by_kind(core::RwLockKind::kCnaRw);
  core::SharedMutex by_name("cna-rw-compact");
  EXPECT_EQ(by_name.name(), "cna-rw-compact");
  EXPECT_EQ(by_name.state_bytes(), 8u);
  by_kind.lock_shared();
  EXPECT_TRUE(by_kind.try_lock_shared());
  by_kind.unlock_shared();
  by_kind.unlock_shared();
  by_kind.lock();
  by_kind.unlock();
  EXPECT_THROW(core::SharedMutex("no-such-rwlock"), std::invalid_argument);
}

TEST(ShardedSharedMutex, ConcurrentReadersSerializedWriters) {
  core::ShardedSharedMutex table("cna-rw", 16);
  EXPECT_EQ(table.stripes(), 16u);
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  constexpr std::uint64_t kKeys = 16;
  std::vector<std::uint64_t> counters(kKeys, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      for (int i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t key = x % kKeys;
        if (x % 3 == 0) {
          table.lock(key);
          ++counters[key];
          table.unlock(key);
        } else {
          table.lock_shared(key);
          (void)counters[key];
          table.unlock_shared(key);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : counters) {
    total += c;
  }
  EXPECT_GT(total, 0u);  // and no lost exclusive increments:
  std::uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
    for (int i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      expected += x % 3 == 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(total, expected);
}

// ---------- C surface ----------

TEST(CRwLockApi, CreateByNameRoundTrip) {
  cna_rwlock_t* rw = cna_rwlock_create("cna-rw-compact");
  ASSERT_NE(rw, nullptr);
  EXPECT_EQ(cna_rwlock_state_bytes(rw), 8u);
  // Shared recursion, pthread-style unified unlock.
  EXPECT_EQ(cna_rwlock_rdlock(rw), 0);
  EXPECT_EQ(cna_rwlock_tryrdlock(rw), 0);
  EXPECT_EQ(cna_rwlock_trywrlock(rw), EBUSY);  // readers in
  EXPECT_EQ(cna_rwlock_unlock(rw), 0);
  EXPECT_EQ(cna_rwlock_unlock(rw), 0);
  EXPECT_EQ(cna_rwlock_wrlock(rw), 0);
  EXPECT_EQ(cna_rwlock_tryrdlock(rw), EBUSY);  // writer in
  EXPECT_EQ(cna_rwlock_unlock(rw), 0);
  EXPECT_EQ(cna_rwlock_unlock(rw), EPERM);  // nothing held
  cna_rwlock_destroy(rw);
}

TEST(CRwLockApi, RejectsUnknownNamesAndNulls) {
  EXPECT_EQ(cna_rwlock_create("no-such-rwlock"), nullptr);
  EXPECT_EQ(cna_rwlock_create(nullptr), nullptr);
  EXPECT_EQ(cna_rwlock_rdlock(nullptr), EINVAL);
  EXPECT_EQ(cna_rwlock_wrlock(nullptr), EINVAL);
  EXPECT_EQ(cna_rwlock_unlock(nullptr), EINVAL);
  EXPECT_EQ(cna_rwlock_state_bytes(nullptr), 0u);
  cna_rwlock_destroy(nullptr);  // must be a no-op
}

// Reader-writer tables through the one cna_locktable_* family: create takes
// the rwlock kinds, rdlock/tryrdlock add the reader side, and unlock
// releases the newest hold in either mode.
TEST(CRwLockTableApi, CreateByNameRoundTrip) {
  cna_locktable_t* table = cna_locktable_create("cna-rw-compact", 100);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(cna_locktable_stripes(table), 128u);  // rounded up to 2^7
  EXPECT_EQ(cna_locktable_state_bytes(table), 128u * 8u);
  EXPECT_EQ(cna_locktable_rdlock(table, 7), 0);
  EXPECT_EQ(cna_locktable_rdlock(table, 7), 0);     // readers share
  EXPECT_EQ(cna_locktable_trylock(table, 7), EBUSY);
  EXPECT_EQ(cna_locktable_unlock(table, 7), 0);
  EXPECT_EQ(cna_locktable_unlock(table, 7), 0);
  EXPECT_EQ(cna_locktable_lock(table, 7), 0);
  EXPECT_EQ(cna_locktable_tryrdlock(table, 7), EBUSY);
  EXPECT_EQ(cna_locktable_unlock(table, 7), 0);
  EXPECT_EQ(cna_locktable_unlock(table, 7), EPERM);
  cna_locktable_destroy(table);
}

TEST(CRwLockTableApi, MultiKeyExclusiveTransactions) {
  cna_locktable_t* table = cna_locktable_create("cna-rw-compact", 16);
  ASSERT_NE(table, nullptr);
  const uint64_t keys[4] = {1, 2, 3, 1ull << 40};
  EXPECT_EQ(cna_locktable_lock_many(table, keys, 4), 0);
  EXPECT_EQ(cna_locktable_unlock_many(table, keys, 4), 0);
  // Partial sets release nothing.
  ASSERT_EQ(cna_locktable_lock(table, 1), 0);
  const uint64_t mixed[2] = {1, 2};
  EXPECT_EQ(cna_locktable_unlock_many(table, mixed, 2), EPERM);
  EXPECT_EQ(cna_locktable_unlock(table, 1), 0);
  cna_locktable_destroy(table);
}

TEST(CRwLockTableApi, CrossThreadReadersShareWritersExclude) {
  cna_locktable_t* table = cna_locktable_create("cna-rw", 4);
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(cna_locktable_rdlock(table, 0), 0);
  int rd_result = -1;
  int wr_result = -1;
  std::thread worker([&] {
    rd_result = cna_locktable_tryrdlock(table, 0);  // readers share
    if (rd_result == 0) {
      cna_locktable_unlock(table, 0);
    }
    wr_result = cna_locktable_trylock(table, 0);  // writer excluded
  });
  worker.join();
  EXPECT_EQ(rd_result, 0);
  EXPECT_EQ(wr_result, EBUSY);
  EXPECT_EQ(cna_locktable_unlock(table, 0), 0);
  cna_locktable_destroy(table);
}

TEST(CRwLockTableApi, RejectsUnknownNamesAndNulls) {
  EXPECT_EQ(cna_locktable_create("no-such-rwlock", 8), nullptr);
  EXPECT_EQ(cna_locktable_create(nullptr, 8), nullptr);
  EXPECT_EQ(cna_locktable_create("cna-rw", size_t{1} << 40), nullptr);
  EXPECT_EQ(cna_locktable_rdlock(nullptr, 1), EINVAL);
  EXPECT_EQ(cna_locktable_tryrdlock(nullptr, 1), EINVAL);
  EXPECT_EQ(cna_locktable_stripes(nullptr), 0u);
  EXPECT_EQ(cna_locktable_state_bytes(nullptr), 0u);
}

// Only the fixed-table create builds reader-writer stripes, and only tables
// of them have a reader side.
TEST(CRwLockTableApi, ReaderSideBelongsToRwTables) {
  EXPECT_EQ(cna_locktable_create_blocking("cna-rw", 8), nullptr);
  EXPECT_EQ(cna_locktable_create_resizable("cna-rw", 8), nullptr);
  EXPECT_EQ(cna_locktable_create_combining("cna-rw-compact", 8), nullptr);
  cna_locktable_t* mutex_table = cna_locktable_create("cna", 8);
  ASSERT_NE(mutex_table, nullptr);
  EXPECT_EQ(cna_locktable_rdlock(mutex_table, 1), EINVAL);
  EXPECT_EQ(cna_locktable_tryrdlock(mutex_table, 1), EINVAL);
  EXPECT_EQ(cna_locktable_unlock(mutex_table, 1), EPERM);  // nothing taken
  cna_locktable_destroy(mutex_table);
}

}  // namespace
}  // namespace cna
