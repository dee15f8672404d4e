// Held-lock ledger tests (src/locktable/held_ledger.h): one ledger per
// execution context supplies the queue nodes of every table and mutex of a
// lock type and records what the context holds.
//
// Covered: deep holds across two tables released out of order (nodes must
// not move while held), a release through the wrong table, Submit futures
// waited in reverse order, a fresh ledger per sim::Machine after a Run that
// throws mid-hold, and threads whose ids are congruent modulo 1024 (which
// any 1024-slot array indexed by context id would alias) sharing one mutex
// and one table.  Suites named *Sim* run on simulator fibers; the rest run
// on real threads and are part of the TSan and ASan CI legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "locks/cna.h"
#include "locktable/combining.h"
#include "locktable/held_ledger.h"
#include "locktable/lock_table.h"
#include "platform/real_platform.h"
#include "platform/thread_context.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

using RealCna = locks::CnaLock<RealPlatform>;
using SimCna = locks::CnaLock<SimPlatform>;
using RealTable = locktable::LockTable<RealPlatform, RealCna>;
using SimTable = locktable::LockTable<SimPlatform, SimCna>;
using RealCombining = locktable::CombiningTable<RealPlatform, RealCna>;

// Whether another thread can take stripe `s` of `table` right now.
bool FreeForOtherThread(RealTable& table, std::size_t s) {
  bool free = false;
  std::thread([&] {
    free = table.TryLockStripe(s);
    if (free) {
      table.UnlockStripe(s);
    }
  }).join();
  return free;
}

// Creates and retires threads until the next thread id handed out is
// congruent to `id` modulo `modulus`.  Thread ids are never reused, so this
// is how a long-running process ends up with such pairs.
void BurnThreadIdsUntilCongruent(int id, int modulus) {
  while (platform::MaxThreadId() % modulus != id % modulus) {
    std::thread([] { (void)platform::ThreadContext::Current(); }).join();
  }
}

TEST(HeldLedger, FortyStripesAcrossTwoTablesReleaseOutOfOrder) {
  RealTable a({.stripes = 64});
  RealTable b({.stripes = 64});
  // 20 stripes of each table, interleaved: 40 holds, well past the ledger's
  // inline nodes, so later acquisitions add overflow nodes while earlier
  // holds' nodes sit in the CNA lock words' tails.
  std::vector<std::pair<RealTable*, std::size_t>> held;
  for (std::size_t s = 0; s < 20; ++s) {
    a.LockStripe(s);
    held.emplace_back(&a, s);
    b.LockStripe(s);
    held.emplace_back(&b, s);
  }
  EXPECT_EQ(a.HeldByThisContext(), 20u);
  EXPECT_EQ(b.HeldByThisContext(), 20u);
  EXPECT_GE(RealTable::ContextLedger().overflow_nodes(),
            40 - RealTable::Ledger::kInlineNodes);
  EXPECT_FALSE(FreeForOtherThread(a, 3));
  EXPECT_FALSE(FreeForOtherThread(b, 17));

  std::shuffle(held.begin(), held.end(), std::mt19937(7));
  for (std::size_t i = 0; i < held.size(); ++i) {
    held[i].first->UnlockStripe(held[i].second);
    EXPECT_EQ(a.HeldByThisContext() + b.HeldByThisContext(),
              held.size() - i - 1);
  }
  for (std::size_t s = 0; s < 20; ++s) {
    EXPECT_TRUE(FreeForOtherThread(a, s)) << "table a stripe " << s;
    EXPECT_TRUE(FreeForOtherThread(b, s)) << "table b stripe " << s;
  }
}

TEST(HeldLedger, UnlockThroughOtherTableThrowsAndKeepsTheHold) {
  RealTable a({.stripes = 16});
  RealTable b({.stripes = 16});
  const std::uint64_t key = 5;
  a.Lock(key);
  EXPECT_THROW(b.Unlock(key), std::logic_error);
  EXPECT_TRUE(a.HoldsStripe(a.StripeOf(key)));
  EXPECT_EQ(a.HeldByThisContext(), 1u);
  EXPECT_EQ(b.HeldByThisContext(), 0u);
  EXPECT_FALSE(FreeForOtherThread(a, a.StripeOf(key)));
  EXPECT_TRUE(FreeForOtherThread(b, b.StripeOf(key)));
  a.Unlock(key);
  EXPECT_TRUE(FreeForOtherThread(a, a.StripeOf(key)));
}

TEST(HeldLedger, FortySubmitFuturesWaitedInReverseOrder) {
  RealCombining table({.stripes = 4});
  std::vector<int> ran;
  std::vector<RealCombining::Future> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(table.Submit(7, [&ran, i] { ran.push_back(i); }));
  }
  EXPECT_EQ(table.PendingInThisContext(), 40u);
  for (std::size_t i = futures.size(); i-- > 0;) {
    futures[i].Wait();
    EXPECT_TRUE(futures[i].Ready());
    EXPECT_EQ(table.PendingInThisContext(), i);
  }
  std::sort(ran.begin(), ran.end());
  ASSERT_EQ(ran.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(ran[static_cast<std::size_t>(i)], i);
  }
}

TEST(HeldLedgerSim, ThrowingRunLeavesNothingForTheNextMachine) {
  sim::MachineConfig cfg = sim::MachineConfig::TwoSocket();
  {
    // Fiber 0 finishes holding stripe 1; fiber 1 queues behind it and is
    // never woken, so Run() reports the deadlock by throwing -- with one
    // hold and one queued node still in the two CPUs' ledgers.
    SimTable table({.stripes = 16});
    sim::Machine m(cfg);
    m.SpawnOnCpu(0, [&] {
      table.LockStripe(1);
      table.LockStripe(2);
      table.UnlockStripe(2);
    });
    m.SpawnOnCpu(1, [&] { table.LockStripe(1); });
    EXPECT_THROW(m.Run(), std::logic_error);
  }
  SimTable table({.stripes = 16});
  sim::Machine m(cfg);
  std::size_t held_before[2] = {9, 9};
  std::size_t held_during[2] = {9, 9};
  std::size_t held_after[2] = {9, 9};
  for (int cpu = 0; cpu < 2; ++cpu) {
    m.SpawnOnCpu(cpu, [&, cpu] {
      held_before[cpu] = SimTable::ContextLedger().held();
      table.LockStripe(1);
      held_during[cpu] = table.HeldByThisContext();
      table.UnlockStripe(1);
      held_after[cpu] = table.HeldByThisContext();
    });
  }
  m.Run();
  for (int cpu = 0; cpu < 2; ++cpu) {
    EXPECT_EQ(held_before[cpu], 0u) << "cpu " << cpu;
    EXPECT_EQ(held_during[cpu], 1u) << "cpu " << cpu;
    EXPECT_EQ(held_after[cpu], 0u) << "cpu " << cpu;
  }
}

// Two live threads whose ids are congruent modulo 1024 hammer one
// core::Mutex and one LockTable.  Anything still indexed by id modulo 1024
// would hand both threads the same bookkeeping.
TEST(HeldLedger, ThreadsCongruentModulo1024ShareOneMutexAndTable) {
  constexpr int kModulus = 1024;
  constexpr int kIters = 2000;
  core::Mutex mutex("cna");
  RealTable table({.stripes = 16});
  std::uint64_t mutex_count = 0;  // guarded by mutex
  std::uint64_t table_count = 0;  // guarded by table's stripe for key 3
  std::atomic<int> first_id{-1};
  std::atomic<bool> go{false};
  int second_id = -1;

  auto hammer = [&] {
    while (!go.load()) {
      std::this_thread::yield();
    }
    for (int i = 0; i < kIters; ++i) {
      mutex.lock();
      table.Lock(3);
      ++mutex_count;
      ++table_count;
      table.Unlock(3);
      mutex.unlock();
      RealTable::MultiGuard g(table, {1, 2, 3});
      ++table_count;
    }
  };
  std::thread first([&] {
    first_id.store(platform::ThreadContext::Current().ThreadId());
    hammer();
  });
  while (first_id.load() < 0) {
    std::this_thread::yield();
  }
  BurnThreadIdsUntilCongruent(first_id.load(), kModulus);
  std::thread second([&] {
    second_id = platform::ThreadContext::Current().ThreadId();
    go.store(true);
    hammer();
  });
  first.join();
  second.join();

  EXPECT_NE(second_id, first_id.load());
  EXPECT_EQ(second_id % kModulus, first_id.load() % kModulus);
  EXPECT_EQ(mutex_count, 2u * kIters);
  EXPECT_EQ(table_count, 4u * kIters);
  EXPECT_EQ(table.HeldByThisContext(), 0u);
}

}  // namespace
}  // namespace cna
