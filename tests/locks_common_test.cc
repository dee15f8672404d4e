// Common correctness tests applied to EVERY lock implementation, on both
// platforms:
//  * mutual exclusion and progress with real OS threads (RealPlatform),
//  * mutual exclusion and progress with simulated fibers (SimPlatform),
//  * state-size (footprint) assertions backing the paper's space claims,
//  * try-lock semantics where supported.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "locks/clh.h"
#include "locks/cna.h"
#include "locks/cohort.h"
#include "locks/cst.h"
#include "locks/hbo.h"
#include "locks/hmcs.h"
#include "locks/lock_api.h"
#include "locks/mcs.h"
#include "locks/mcscr.h"
#include "locks/tas.h"
#include "locks/ticket.h"
#include "platform/real_platform.h"
#include "platform/thread_context.h"
#include "qspin/qspinlock.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

using locks::ScopedLock;

// CNA beside its default (FIFO handover mode, socket-tagged successors): the
// paper's base policy (locks::CnaPaperBaseConfig), and the handover mode
// without tags, whose free-word test must not depend on the tag stripping.
struct UntaggedCnaConfig : locks::CnaDefaultConfig {
  static constexpr bool kEncodeSocketInNext = false;
};

// ---------- Real-thread typed tests ----------

template <typename L>
class RealLockTest : public ::testing::Test {};

using RealLockTypes = ::testing::Types<
    locks::McsLock<RealPlatform>, locks::CnaLock<RealPlatform>,
    locks::CnaLock<RealPlatform, locks::CnaPaperBaseConfig>,
    locks::CnaLock<RealPlatform, UntaggedCnaConfig>,
    locks::McscrLock<RealPlatform>, locks::TasLock<RealPlatform>, locks::TtasLock<RealPlatform>,
    locks::BackoffTasLock<RealPlatform>, locks::TicketLock<RealPlatform>,
    locks::PartitionedTicketLock<RealPlatform>, locks::ClhLock<RealPlatform>,
    locks::HboLock<RealPlatform>, locks::CBoMcsLock<RealPlatform>,
    locks::CTktTktLock<RealPlatform>, locks::CPtlTktLock<RealPlatform>,
    locks::HmcsLock<RealPlatform>, locks::CstLock<RealPlatform>,
    qspin::QSpinLock<RealPlatform, qspin::SlowPathKind::kMcs>,
    qspin::QSpinLock<RealPlatform, qspin::SlowPathKind::kCna>>;
TYPED_TEST_SUITE(RealLockTest, RealLockTypes);

TYPED_TEST(RealLockTest, SingleThreadLockUnlock) {
  TypeParam lock;
  for (int i = 0; i < 100; ++i) {
    typename TypeParam::Handle h;
    lock.Lock(h);
    lock.Unlock(h);
  }
  SUCCEED();
}

TYPED_TEST(RealLockTest, MutualExclusionAcrossThreads) {
  TypeParam lock;
  constexpr int kThreads = 4;
  constexpr int kIters = 1500;
  std::uint64_t counter = 0;  // deliberately non-atomic
  std::atomic<int> in_cs{0};
  std::atomic<bool> violation{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Virtual sockets so NUMA-aware locks exercise cross-socket paths.
      platform::ThreadContext::Current().SetVirtualSocket(t % 2);
      for (int i = 0; i < kIters; ++i) {
        ScopedLock<TypeParam> guard(lock);
        if (in_cs.fetch_add(1, std::memory_order_acq_rel) != 0) {
          violation.store(true, std::memory_order_relaxed);
        }
        ++counter;
        in_cs.fetch_sub(1, std::memory_order_acq_rel);
      }
      platform::ThreadContext::Current().SetVirtualSocket(
          platform::ThreadContext::kAutoSocket);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TYPED_TEST(RealLockTest, NestingTwoDistinctLocks) {
  TypeParam a;
  TypeParam b;
  constexpr int kThreads = 3;
  constexpr int kIters = 500;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      platform::ThreadContext::Current().SetVirtualSocket(t % 2);
      for (int i = 0; i < kIters; ++i) {
        typename TypeParam::Handle ha;
        typename TypeParam::Handle hb;
        a.Lock(ha);
        b.Lock(hb);
        ++counter;
        b.Unlock(hb);
        a.Unlock(ha);
      }
      platform::ThreadContext::Current().SetVirtualSocket(
          platform::ThreadContext::kAutoSocket);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TYPED_TEST(RealLockTest, StateBytesAreDeclared) {
  EXPECT_GT(TypeParam::kStateBytes, 0u);
}

// ---------- Try-lock tests (only for locks that support it) ----------

template <typename L>
class TryLockTest : public ::testing::Test {};

using TryLockTypes = ::testing::Types<
    locks::McsLock<RealPlatform>, locks::CnaLock<RealPlatform>,
    locks::TasLock<RealPlatform>, locks::TtasLock<RealPlatform>,
    locks::BackoffTasLock<RealPlatform>, locks::TicketLock<RealPlatform>,
    locks::HboLock<RealPlatform>,
    qspin::QSpinLock<RealPlatform, qspin::SlowPathKind::kMcs>,
    qspin::QSpinLock<RealPlatform, qspin::SlowPathKind::kCna>>;
TYPED_TEST_SUITE(TryLockTest, TryLockTypes);

TYPED_TEST(TryLockTest, TryLockSucceedsWhenFree) {
  TypeParam lock;
  typename TypeParam::Handle h;
  ASSERT_TRUE(lock.TryLock(h));
  lock.Unlock(h);
  // And again: the unlock must have fully released.
  typename TypeParam::Handle h2;
  ASSERT_TRUE(lock.TryLock(h2));
  lock.Unlock(h2);
}

TYPED_TEST(TryLockTest, TryLockFailsWhenHeld) {
  TypeParam lock;
  typename TypeParam::Handle holder;
  lock.Lock(holder);
  std::atomic<int> result{-1};
  std::thread t([&] {
    typename TypeParam::Handle h;
    result.store(lock.TryLock(h) ? 1 : 0);
    if (result.load() == 1) {
      lock.Unlock(h);
    }
  });
  t.join();
  EXPECT_EQ(result.load(), 0);
  lock.Unlock(holder);
}

// ---------- Simulated-fiber typed tests ----------

template <typename L>
class SimLockTest : public ::testing::Test {};

using SimLockTypes = ::testing::Types<
    locks::McsLock<SimPlatform>, locks::CnaLock<SimPlatform>,
    locks::CnaLock<SimPlatform, locks::CnaPaperBaseConfig>,
    locks::CnaLock<SimPlatform, UntaggedCnaConfig>,
    locks::McscrLock<SimPlatform>, locks::TasLock<SimPlatform>, locks::TtasLock<SimPlatform>,
    locks::BackoffTasLock<SimPlatform>, locks::TicketLock<SimPlatform>,
    locks::PartitionedTicketLock<SimPlatform>, locks::ClhLock<SimPlatform>,
    locks::HboLock<SimPlatform>, locks::CBoMcsLock<SimPlatform>,
    locks::CTktTktLock<SimPlatform>, locks::CPtlTktLock<SimPlatform>,
    locks::HmcsLock<SimPlatform>, locks::CstLock<SimPlatform>,
    qspin::QSpinLock<SimPlatform, qspin::SlowPathKind::kMcs>,
    qspin::QSpinLock<SimPlatform, qspin::SlowPathKind::kCna>>;
TYPED_TEST_SUITE(SimLockTest, SimLockTypes);

TYPED_TEST(SimLockTest, MutualExclusionOnSimulatedMachine) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 4);
  sim::Machine m(cfg);
  TypeParam lock;
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::uint64_t counter = 0;
  int in_cs = 0;
  bool violation = false;
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&] {
      for (int i = 0; i < kIters; ++i) {
        ScopedLock<TypeParam> guard(lock);
        violation |= (in_cs++ != 0);
        ++counter;
        --in_cs;
      }
    });
  }
  m.Run();
  EXPECT_FALSE(violation);
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TYPED_TEST(SimLockTest, AllFibersMakeProgress) {
  // Starvation check at modest scale: every fiber must finish its quota.
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 8);
  sim::Machine m(cfg);
  TypeParam lock;
  constexpr int kThreads = 12;
  std::vector<int> done(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&, t] {
      for (int i = 0; i < 100; ++i) {
        ScopedLock<TypeParam> guard(lock);
        ++done[static_cast<std::size_t>(t)];
      }
    });
  }
  m.Run();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(done[static_cast<std::size_t>(t)], 100) << "thread " << t;
  }
}

// ---------- Footprint: the paper's space argument ----------

TEST(Footprint, CnaIsExactlyOneWord) {
  // The headline claim: "a compact NUMA-aware lock ... requires one word of
  // memory, regardless of the number of sockets".
  EXPECT_EQ(sizeof(locks::CnaLock<RealPlatform>), sizeof(void*));
  EXPECT_EQ(sizeof(locks::McsLock<RealPlatform>), sizeof(void*));
  EXPECT_EQ(locks::CnaLock<RealPlatform>::kStateBytes, sizeof(void*));
}

TEST(Footprint, QspinlockIsFourBytes) {
  // "The Linux kernel ... strictly limits the size of its spin lock to 4
  // bytes" -- and the CNA variant must not grow it.
  using Stock = qspin::QSpinLock<RealPlatform, qspin::SlowPathKind::kMcs>;
  using Cna = qspin::QSpinLock<RealPlatform, qspin::SlowPathKind::kCna>;
  EXPECT_EQ(sizeof(Stock), 4u);
  EXPECT_EQ(sizeof(Cna), 4u);
}

TEST(Footprint, HierarchicalLocksGrowWithSockets) {
  // Cohort/HMCS state is O(sockets * cache line): at least one line per
  // potential socket, dwarfing CNA's single word.
  EXPECT_GE(sizeof(locks::CBoMcsLock<RealPlatform>),
            8u * kCacheLineSize);
  EXPECT_GE(sizeof(locks::HmcsLock<RealPlatform>), 8u * kCacheLineSize);
  EXPECT_GT(locks::CBoMcsLock<RealPlatform>::kStateBytes,
            64u * locks::CnaLock<RealPlatform>::kStateBytes);
}

TEST(Footprint, CstGrowsLazilyWithTouchedSockets) {
  locks::CstLock<RealPlatform> lock;
  EXPECT_EQ(lock.DynamicFootprintBytes(), 0u);
  platform::ThreadContext::Current().SetVirtualSocket(0);
  {
    ScopedLock<locks::CstLock<RealPlatform>> g(lock);
  }
  const auto after_one = lock.DynamicFootprintBytes();
  EXPECT_GT(after_one, 0u);
  platform::ThreadContext::Current().SetVirtualSocket(1);
  {
    ScopedLock<locks::CstLock<RealPlatform>> g(lock);
  }
  EXPECT_EQ(lock.DynamicFootprintBytes(), 2 * after_one);
  platform::ThreadContext::Current().SetVirtualSocket(
      platform::ThreadContext::kAutoSocket);
}

// ---------- FIFO property of the pure queue locks ----------

TEST(QueueOrder, McsIsFifoOnSim) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 4);
  sim::Machine m(cfg);
  locks::McsLock<SimPlatform> lock;
  std::vector<int> order;
  constexpr int kThreads = 6;
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&, t] {
      // Stagger arrivals so the queue order is t0, t1, ..., t5.
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 500 + 1);
      typename locks::McsLock<SimPlatform>::Handle h;
      lock.Lock(h);
      if (t == 0) {
        // Keep the lock until everyone is queued.
        sim::Machine::Active()->AdvanceLocalWork(100'000);
      }
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(QueueOrder, TicketIsFifoOnSim) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 4);
  sim::Machine m(cfg);
  locks::TicketLock<SimPlatform> lock;
  std::vector<int> order;
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 500 + 1);
      typename locks::TicketLock<SimPlatform>::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(100'000);
      }
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace cna
