// Public-surface tests for the sharded lock table: the registry factory
// (MakeLockTable over every lock kind), core::ShardedMutex, and the C
// surface (cna_locktable_*) round-trip, including a real-thread stress that
// the CI ThreadSanitizer job runs.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/any_lock_table.h"
#include "core/pthread_api.h"
#include "core/registry.h"
#include "platform/real_platform.h"

namespace cna {
namespace {

// ---------- Registry factory ----------

TEST(MakeLockTable, EveryKindBuildsAndRoundTrips) {
  for (auto kind : core::AllLockKinds()) {
    auto table = core::MakeLockTable<RealPlatform>(
        kind, locktable::LockTableOptions{.stripes = 8});
    ASSERT_NE(table, nullptr) << core::LockKindName(kind);
    EXPECT_EQ(table->Stripes(), 8u);
    EXPECT_EQ(table->Name(), core::LockKindName(kind));
    table->Lock(42);
    table->Unlock(42);
    const std::uint64_t keys[3] = {1, 2, 3};
    table->LockMany(keys, 3);
    table->UnlockMany(keys, 3);
    EXPECT_GE(table->LockStateBytes(),
              table->Stripes() * table->PerStripeStateBytes());
  }
}

TEST(MakeLockTable, OneWordKindsStayCompact) {
  for (auto kind : {core::LockKind::kMcs, core::LockKind::kCna}) {
    auto table = core::MakeLockTable<RealPlatform>(
        kind, locktable::LockTableOptions{.stripes = 1024});
    EXPECT_EQ(table->PerStripeStateBytes(), sizeof(void*))
        << core::LockKindName(kind);
    EXPECT_EQ(table->LockStateBytes(), 1024 * sizeof(void*))
        << core::LockKindName(kind);
  }
}

TEST(MakeLockTable, TryLockSupportMatchesTheLockKind) {
  auto cna = core::MakeLockTable<RealPlatform>(
      core::LockKind::kCna, locktable::LockTableOptions{.stripes = 4});
  ASSERT_TRUE(cna->SupportsTryLock());
  EXPECT_TRUE(cna->TryLock(9));
  EXPECT_FALSE(cna->TryLock(9));  // same stripe, already held
  cna->Unlock(9);
}

// ---------- ShardedMutex ----------

TEST(ShardedMutex, ByNameAndByKind) {
  core::ShardedMutex by_kind(core::LockKind::kCna, 64);
  core::ShardedMutex by_name("cna", 64);
  EXPECT_EQ(by_kind.stripes(), 64u);
  EXPECT_EQ(by_name.name(), "cna");
  EXPECT_EQ(by_name.lock_state_bytes(), 64 * sizeof(void*));
  EXPECT_THROW(core::ShardedMutex("no-such-lock", 8), std::invalid_argument);
}

TEST(ShardedMutex, LockManyIsDeadlockFreeAcrossThreads) {
  core::ShardedMutex table("cna", 16);
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::uint64_t> accounts(32, 1000);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) * 977 + 13;
      for (int i = 0; i < kIters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t a = (x >> 13) % accounts.size();
        const std::uint64_t b = (x >> 41) % accounts.size();
        if (a == b) {
          continue;
        }
        // Opposite key orders from different threads: the sorted-stripe
        // acquisition inside lock_many prevents deadlock.
        table.lock_many({a, b});
        if (accounts[a] > 0) {
          accounts[a] -= 1;
          accounts[b] += 1;
        }
        table.unlock_many({a, b});
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  std::uint64_t total = 0;
  for (std::uint64_t v : accounts) {
    total += v;
  }
  EXPECT_EQ(total, 1000u * accounts.size());
}

TEST(ShardedMutex, PerKeyCountersSurviveContention) {
  core::ShardedMutex table("cna", 8);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
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
        table.lock(key);
        ++counters[key];
        table.unlock(key);
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
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---------- C surface ----------

TEST(CLockTableApi, CreateByNameRoundTrip) {
  cna_locktable_t* table = cna_locktable_create("cna", 100);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(cna_locktable_stripes(table), 128u);  // rounded up to 2^7
  EXPECT_EQ(cna_locktable_state_bytes(table), 128 * sizeof(void*));
  EXPECT_EQ(cna_locktable_lock(table, 7), 0);
  EXPECT_EQ(cna_locktable_trylock(table, 7), EBUSY);  // same stripe
  EXPECT_EQ(cna_locktable_unlock(table, 7), 0);
  EXPECT_EQ(cna_locktable_trylock(table, 7), 0);
  EXPECT_EQ(cna_locktable_unlock(table, 7), 0);
  cna_locktable_destroy(table);
}

TEST(CLockTableApi, MultiKeyTransactions) {
  cna_locktable_t* table = cna_locktable_create_default(16);
  ASSERT_NE(table, nullptr);
  const uint64_t keys[4] = {1, 2, 3, 1ull << 40};
  EXPECT_EQ(cna_locktable_lock_many(table, keys, 4), 0);
  EXPECT_EQ(cna_locktable_unlock_many(table, keys, 4), 0);
  cna_locktable_destroy(table);
}

TEST(CLockTableApi, StripeOfMatchesLockGranularity) {
  cna_locktable_t* table = cna_locktable_create("mcs", 64);
  ASSERT_NE(table, nullptr);
  const size_t s = cna_locktable_stripe_of(table, 99);
  EXPECT_LT(s, cna_locktable_stripes(table));
  EXPECT_EQ(s, cna_locktable_stripe_of(table, 99));
  cna_locktable_destroy(table);
}

TEST(CLockTableApi, UnlockWithoutLockReturnsEperm) {
  cna_locktable_t* table = cna_locktable_create("cna", 8);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(cna_locktable_unlock(table, 99), EPERM);
  const uint64_t keys[2] = {1, 2};
  EXPECT_EQ(cna_locktable_unlock_many(table, keys, 2), EPERM);
  // Misuse must not corrupt the table: a normal round-trip still works.
  EXPECT_EQ(cna_locktable_lock(table, 99), 0);
  EXPECT_EQ(cna_locktable_unlock(table, 99), 0);
  cna_locktable_destroy(table);
}

TEST(CLockTableApi, PartialUnlockManyReleasesNothing) {
  cna_locktable_t* table = cna_locktable_create("cna", 1024);
  ASSERT_NE(table, nullptr);
  // Hold key B's stripe but not key A's.
  uint64_t held = 1;
  uint64_t unheld = 2;
  while (cna_locktable_stripe_of(table, held) ==
         cna_locktable_stripe_of(table, unheld)) {
    ++unheld;
  }
  ASSERT_EQ(cna_locktable_lock(table, held), 0);
  const uint64_t keys[2] = {unheld, held};
  // The checked release verifies the whole set before touching anything, so
  // the held stripe must survive the failed call...
  EXPECT_EQ(cna_locktable_unlock_many(table, keys, 2), EPERM);
  // ...which we can observe: unlocking it normally still succeeds.
  EXPECT_EQ(cna_locktable_unlock(table, held), 0);
  EXPECT_EQ(cna_locktable_unlock(table, held), EPERM);  // now actually free
  cna_locktable_destroy(table);
}

TEST(CLockTableApi, AbsurdStripeCountYieldsNullNotAbort) {
  // 2^40 stripes would be a terabyte of lock words; creation must fail by
  // returning nullptr (no exception may cross the C boundary).
  EXPECT_EQ(cna_locktable_create("cna", size_t{1} << 40), nullptr);
  EXPECT_EQ(cna_locktable_create_default(~size_t{0}), nullptr);
}

TEST(CMutexApi, UnlockWithoutLockReturnsEperm) {
  cna_mutex_t* mutex = cna_mutex_create("mcs");
  ASSERT_NE(mutex, nullptr);
  EXPECT_EQ(cna_mutex_unlock(mutex), EPERM);
  EXPECT_EQ(cna_mutex_lock(mutex), 0);
  EXPECT_EQ(cna_mutex_unlock(mutex), 0);
  cna_mutex_destroy(mutex);
}

TEST(CLockTableApi, RejectsUnknownNamesAndNulls) {
  EXPECT_EQ(cna_locktable_create("no-such-lock", 8), nullptr);
  EXPECT_EQ(cna_locktable_create(nullptr, 8), nullptr);
  EXPECT_EQ(cna_locktable_lock(nullptr, 1), EINVAL);
  EXPECT_EQ(cna_locktable_trylock(nullptr, 1), EINVAL);
  EXPECT_EQ(cna_locktable_unlock(nullptr, 1), EINVAL);
  EXPECT_EQ(cna_locktable_lock_many(nullptr, nullptr, 0), EINVAL);
  EXPECT_EQ(cna_locktable_stripes(nullptr), 0u);
  EXPECT_EQ(cna_locktable_state_bytes(nullptr), 0u);
  cna_locktable_destroy(nullptr);  // must be a no-op
}

TEST(CLockTableApi, CrossThreadTryLockSeesHeldStripe) {
  cna_locktable_t* table = cna_locktable_create("cna", 4);
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(cna_locktable_lock(table, 0), 0);
  const size_t held_stripe = cna_locktable_stripe_of(table, 0);
  // Find another key on the same stripe and one on a different stripe.
  uint64_t same = 1;
  while (cna_locktable_stripe_of(table, same) != held_stripe) {
    ++same;
  }
  uint64_t other = 1;
  while (cna_locktable_stripe_of(table, other) == held_stripe) {
    ++other;
  }
  int same_result = -1;
  int other_result = -1;
  std::thread worker([&] {
    same_result = cna_locktable_trylock(table, same);
    other_result = cna_locktable_trylock(table, other);
    if (other_result == 0) {
      cna_locktable_unlock(table, other);
    }
  });
  worker.join();
  EXPECT_EQ(same_result, EBUSY);
  EXPECT_EQ(other_result, 0);
  EXPECT_EQ(cna_locktable_unlock(table, 0), 0);
  cna_locktable_destroy(table);
}

}  // namespace
}  // namespace cna
