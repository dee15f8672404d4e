// CNA-specific tests: the algorithmic invariants of Figures 2-5, the
// secondary-queue mechanics of Figure 1, the fairness knob, the Section 6
// optimizations and the handover mode that carries shuffle reduction.  Most
// tests run on the simulator, whose deterministic scheduling lets us replay
// the paper's running example exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "locks/cna.h"
#include "locks/lock_api.h"
#include "locks/mcs.h"
#include "locks/mcscr.h"
#include "platform/real_platform.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"
#include "telemetry/metrics.h"

namespace cna {
namespace {

using SimCna = locks::CnaLock<SimPlatform>;

sim::MachineConfig TwoSocketSmall(int cpus_per_socket = 8) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, cpus_per_socket);
  return cfg;
}

// Replays the acquisition pattern of the paper's Figure 1: six threads
// enqueue while t0 holds the lock; sockets alternate 0,1,0,1,0,1 (scatter
// placement).  CNA must serve all same-socket waiters first (t0, t2, t4:
// socket 0), then flush the secondary queue in FIFO order (t1, t3, t5).
TEST(CnaAlgorithm, ServesLocalWaitersThenFlushesSecondaryQueue) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::vector<int> order;
  std::vector<int> socket_order;
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&, t] {
      // Arrival order t0 < t1 < ... < t5, all before t0 releases.
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 400 + 1);
      SimCna::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(200'000);
      }
      order.push_back(t);
      socket_order.push_back(sim::Machine::Active()->CurrentSocket());
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3, 5}));
  EXPECT_EQ(socket_order, (std::vector<int>{0, 0, 0, 1, 1, 1}));
}

TEST(CnaAlgorithm, ComparedToMcsWhichStaysFifo) {
  sim::Machine m(TwoSocketSmall());
  locks::McsLock<SimPlatform> lock;
  std::vector<int> order;
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 400 + 1);
      locks::McsLock<SimPlatform>::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(200'000);
      }
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// Figure 1(d): consecutive same-socket handovers pass the secondary-queue
// designator along unchanged; the handover writes only the successor's spin
// field (copying me->spin), never restructuring the queue.
TEST(CnaAlgorithm, UncontendedAcquireSkipsSocketRecording) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  int recorded_socket = -2;
  m.Spawn([&] {
    SimCna::Handle h;
    lock.Lock(h);
    recorded_socket = h.socket.load();
    lock.Unlock(h);
  });
  m.Run();
  // Uncontended path: Figure 3 line 8 returns before line 10 records the
  // socket -- "when the lock is not contended, this line does not add any
  // overhead".
  EXPECT_EQ(recorded_socket, -1);
}

TEST(CnaAlgorithm, UncontendedSpinFieldHoldsOne) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::uintptr_t spin_value = 0;
  m.Spawn([&] {
    SimCna::Handle h;
    lock.Lock(h);
    spin_value = h.spin.load();
    lock.Unlock(h);
  });
  m.Run();
  EXPECT_EQ(spin_value, 1u);  // Figure 3 line 8
}

TEST(CnaAlgorithm, ContendedWaiterRecordsItsSocket) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::vector<int> sockets;
  for (int t = 0; t < 2; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 100 + 1);
      SimCna::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(50'000);
      } else {
        sockets.push_back(h.socket.load());
      }
      lock.Unlock(h);
    });
  }
  m.Run();
  ASSERT_EQ(sockets.size(), 1u);
  EXPECT_EQ(sockets[0], 1);  // fiber 1 runs on socket 1 (scatter placement)
}

// While waiting in the secondary queue, a node's spin stays 0 and its
// sec_tail designates the queue tail only for the head node.  We verify the
// externally observable effect: remote threads are granted in their original
// order after the flush (FIFO within the secondary queue).
TEST(CnaAlgorithm, SecondaryQueuePreservesFifoAmongRemoteWaiters) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::vector<int> order;
  // 8 fibers: even ids socket 0, odd ids socket 1.
  for (int t = 0; t < 8; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 300 + 1);
      SimCna::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(300'000);
      }
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  // Local first (0,2,4,6), then remote in arrival order (1,3,5,7).
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
}

// Fairness: with an aggressive threshold (flush probability 1/4), remote
// waiters must be served long before the local stream dries up.
struct AggressiveFairnessConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0x3;
};

struct CounterConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0xf;
  static constexpr bool kCounterFairness = true;
};

TEST(CnaFairness, SecondaryQueueIsFlushedProbabilistically) {
  sim::Machine m(TwoSocketSmall());
  locks::CnaLock<SimPlatform, AggressiveFairnessConfig> lock;
  // Two fibers per socket ping-ponging for a while; count how many times
  // socket 1 fibers get the lock while socket 0 keeps re-acquiring.
  std::map<int, int> grants_by_socket;
  constexpr int kIters = 400;
  for (int t = 0; t < 4; ++t) {
    m.Spawn([&] {
      for (int i = 0; i < kIters; ++i) {
        locks::ScopedLock<locks::CnaLock<SimPlatform, AggressiveFairnessConfig>>
            g(lock);
        ++grants_by_socket[sim::Machine::Active()->CurrentSocket()];
      }
    });
  }
  m.Run();
  EXPECT_EQ(grants_by_socket[0] + grants_by_socket[1], 4 * kIters);
  EXPECT_EQ(grants_by_socket[0], 2 * kIters);
  EXPECT_EQ(grants_by_socket[1], 2 * kIters);
}

TEST(CnaFairness, CounterModeAlsoFlushes) {
  sim::Machine m(TwoSocketSmall());
  locks::CnaLock<SimPlatform, CounterConfig> lock;
  std::vector<int> done(4, 0);
  for (int t = 0; t < 4; ++t) {
    m.Spawn([&, t] {
      for (int i = 0; i < 200; ++i) {
        locks::ScopedLock<locks::CnaLock<SimPlatform, CounterConfig>> g(lock);
        ++done[static_cast<std::size_t>(t)];
      }
    });
  }
  m.Run();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(done[static_cast<std::size_t>(t)], 200);
  }
}

// Shuffle reduction (Section 6, on in the default lock): under the all-local
// pattern the handover order equals MCS's FIFO order.
TEST(CnaShuffleReduction, MostHandoversAreFifoWhenSecondaryEmpty) {
  auto cfg = TwoSocketSmall();
  cfg.placement = sim::Placement::kPackSockets;  // all on socket 0
  sim::Machine m(cfg);
  SimCna lock;
  std::vector<int> order;
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 400 + 1);
      SimCna::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(200'000);
      }
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// The unlock CAS path: a holder with an empty main queue hands the lock back
// to "free" (tail -> nullptr); a later arrival takes the uncontended path.
TEST(CnaAlgorithm, ReleaseToEmptyQueueRestoresFreeState) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  int acquisitions = 0;
  m.Spawn([&] {
    for (int i = 0; i < 5; ++i) {
      SimCna::Handle h;
      lock.Lock(h);
      ++acquisitions;
      lock.Unlock(h);
      sim::Machine::Active()->AdvanceLocalWork(100);
    }
  });
  m.Run();
  EXPECT_EQ(acquisitions, 5);
}

// Race window in unlock: the CAS to nullptr fails because a new waiter
// swapped the tail but has not linked yet; the holder must wait for the link
// and then hand over.  Reproduce with two fibers whose clocks collide.
TEST(CnaAlgorithm, UnlockWaitsForLateLinkingSuccessor) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::vector<int> order;
  for (int t = 0; t < 2; ++t) {
    m.Spawn([&, t] {
      SimCna::Handle h;
      // Near-simultaneous arrival: both at clock ~0.
      lock.Lock(h);
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0] + order[1], 1);  // both ran, in some order
}

// A failed TryLock on a held lock only reads the lock word: it neither
// swaps nor CASes, so it does not pull the holder's line away.
TEST(CnaAlgorithm, FailedTryLockDoesNotWriteTheLockWord) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  bool acquired = true;
  sim::CacheStats before;
  sim::CacheStats after;
  m.Spawn([&] {
    SimCna::Handle holder;
    SimCna::Handle probe;
    lock.Lock(holder);
    before = sim::Machine::Active()->TotalStats();
    acquired = lock.TryLock(probe);
    after = sim::Machine::Active()->TotalStats();
    lock.Unlock(holder);
  });
  m.Run();
  EXPECT_FALSE(acquired);
  EXPECT_EQ(after.rmws, before.rmws);
  EXPECT_EQ(after.stores, before.stores);
}

// TryLock must not disturb the queue.
TEST(CnaAlgorithm, TryLockSemantics) {
  locks::CnaLock<RealPlatform> lock;
  locks::CnaLock<RealPlatform>::Handle a;
  locks::CnaLock<RealPlatform>::Handle b;
  ASSERT_TRUE(lock.TryLock(a));
  EXPECT_FALSE(lock.TryLock(b));
  lock.Unlock(a);
  ASSERT_TRUE(lock.TryLock(b));
  lock.Unlock(b);
}

// Long-term fairness factor stays near 0.5 even with the paper's default
// threshold, over a long enough horizon (Section 7.1.1 / Figure 8).
TEST(CnaFairness, AllThreadsFinishWithDefaultThreshold) {
  sim::Machine m(TwoSocketSmall(4));
  SimCna lock;
  constexpr int kThreads = 8;
  constexpr int kIters = 250;
  std::vector<int> done(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&, t] {
      for (int i = 0; i < kIters; ++i) {
        locks::ScopedLock<SimCna> g(lock);
        ++done[static_cast<std::size_t>(t)];
      }
    });
  }
  m.Run();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(done[static_cast<std::size_t>(t)], kIters) << "thread " << t;
  }
}


// ---------- Section 6 socket-in-next-pointer encoding ----------

// Tagging alone, on top of the paper's base policy.
struct TaggedConfig : locks::CnaPaperBaseConfig {
  static constexpr bool kEncodeSocketInNext = true;
};
using TaggedCna = locks::CnaLock<SimPlatform, TaggedConfig>;

TEST(CnaTagged, SameReorderingAsBaseCna) {
  // The tagged variant must make identical policy decisions -- replay the
  // Figure 1 scenario and expect the same order as the base lock.
  sim::Machine m(TwoSocketSmall());
  TaggedCna lock;
  std::vector<int> order;
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 400 + 1);
      TaggedCna::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(200'000);
      }
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3, 5}));
}

TEST(CnaTagged, StillOneWordOfState) {
  EXPECT_EQ(sizeof(TaggedCna), sizeof(void*));
}

TEST(CnaTagged, AvoidsSuccessorNodeTouchOnLocalityCheck) {
  // With tagging, find_successor can classify the immediate successor from
  // the pointer tag alone: fewer loads than the untagged variant on the
  // same deterministic scenario.
  auto run = [](auto lock_tag) {
    using L = decltype(lock_tag);
    sim::Machine m(TwoSocketSmall());
    L lock;
    for (int t = 0; t < 6; ++t) {
      m.Spawn([&, t] {
        sim::Machine::Active()->AdvanceLocalWork(
            static_cast<std::uint64_t>(t) * 400 + 1);
        typename L::Handle h;
        lock.Lock(h);
        if (t == 0) {
          sim::Machine::Active()->AdvanceLocalWork(200'000);
        }
        lock.Unlock(h);
      });
    }
    m.Run();
    return m.TotalStats().loads;
  };
  const auto tagged_loads = run(TaggedCna{});
  const auto plain_loads =
      run(locks::CnaLock<SimPlatform, locks::CnaPaperBaseConfig>{});
  EXPECT_LT(tagged_loads, plain_loads);
}

// ---------- Section 7.1.1 queue-alteration statistics ----------

struct StatsConfig : locks::CnaPaperBaseConfig {
  static constexpr bool kCollectStats = true;
};
struct StatsOptConfig : StatsConfig {
  static constexpr bool kShuffleReduction = true;
  static constexpr std::uint64_t kShuffleMask = 0xff;
};

TEST(CnaStats, CountersAccountForEveryRelease) {
  telemetry::CnaCounters().Reset();
  sim::Machine m(TwoSocketSmall());
  locks::CnaLock<SimPlatform, StatsConfig> lock;
  constexpr int kThreads = 6;
  constexpr int kIters = 200;
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&] {
      for (int i = 0; i < kIters; ++i) {
        locks::ScopedLock<locks::CnaLock<SimPlatform, StatsConfig>> g(lock);
      }
    });
  }
  m.Run();
  const auto& c = telemetry::CnaCounters();
  EXPECT_EQ(c.releases->Value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  // Every handover is classified exactly once (the final release frees the
  // lock and is none of the three).
  EXPECT_LE(c.local_handovers->Value() + c.secondary_flushes->Value() +
                c.fifo_handovers->Value(),
            c.releases->Value());
  EXPECT_GT(c.local_handovers->Value(), 0u);
  telemetry::CnaCounters().Reset();
}

TEST(CnaStats, ShuffleReductionCutsQueueAlterations) {
  // Paper, Section 7.1.1: the shuffle-reduction optimization reduces the
  // number of times the main queue is altered "by almost a factor of ten at
  // 4 threads".  Reproduce the direction of that result deterministically.
  auto run = [](auto lock_tag) {
    using L = decltype(lock_tag);
    telemetry::CnaCounters().Reset();
    sim::Machine m(TwoSocketSmall());
    L lock;
    for (int t = 0; t < 4; ++t) {
      m.Spawn([&] {
        for (int i = 0; i < 400; ++i) {
          {
            locks::ScopedLock<L> g(lock);
            sim::Machine::Active()->AdvanceLocalWork(150);
          }
          // External work long enough that the queue regularly drains and
          // refills mixed -- the light-contention regime of Figure 9's
          // 4-thread point, where the paper measured the 10x reduction.
          sim::Machine::Active()->AdvanceLocalWork(
              1000 + sim::Machine::Active()->Random() % 1000);
        }
      });
    }
    m.Run();
    return telemetry::CnaCounters().queue_alterations->Value();
  };
  const auto base = run(locks::CnaLock<SimPlatform, StatsConfig>{});
  const auto opt = run(locks::CnaLock<SimPlatform, StatsOptConfig>{});
  EXPECT_LT(opt * 2, base) << "base=" << base << " opt=" << opt;
  telemetry::CnaCounters().Reset();
}

// ---------- Handover mode: FIFO while there is nothing to reorder ----------

// The default policy and the same policy with untagged next pointers, whose
// free-word test must not depend on tag stripping.
struct ModeStatsConfig : locks::CnaDefaultConfig {
  static constexpr bool kCollectStats = true;
};
struct UntaggedModeStatsConfig : ModeStatsConfig {
  static constexpr bool kEncodeSocketInNext = false;
};

template <typename Cfg>
class CnaHandoverMode : public ::testing::Test {
 protected:
  using L = locks::CnaLock<SimPlatform, Cfg>;
  void SetUp() override { telemetry::CnaCounters().Reset(); }
  void TearDown() override { telemetry::CnaCounters().Reset(); }
};
using HandoverModeConfigs =
    ::testing::Types<ModeStatsConfig, UntaggedModeStatsConfig>;
TYPED_TEST_SUITE(CnaHandoverMode, HandoverModeConfigs);

// Light contention: two fibers on different sockets alternate on one lock.
// Every queue walk would meet a lone remote waiter, so the lock stays in
// FIFO mode and almost no release walks the queue.
TYPED_TEST(CnaHandoverMode, LoneRemoteWaitersKeepTheLockInFifoMode) {
  using L = typename TestFixture::L;
  sim::Machine m(TwoSocketSmall());
  L lock;
  constexpr int kRounds = 400;
  for (int t = 0; t < 2; ++t) {  // scatter placement: sockets 0 and 1
    m.Spawn([&] {
      for (int i = 0; i < kRounds; ++i) {
        locks::ScopedLock<L> g(lock);
        sim::Machine::Active()->AdvanceLocalWork(200);
      }
    });
  }
  m.Run();
  const auto& c = telemetry::CnaCounters();
  const std::uint64_t handovers = c.local_handovers->Value() +
                                  c.secondary_flushes->Value() +
                                  c.fifo_handovers->Value();
  EXPECT_EQ(c.releases->Value(), 2u * kRounds);
  EXPECT_GT(handovers, static_cast<std::uint64_t>(kRounds));  // alternated
  EXPECT_EQ(c.queue_alterations->Value(), 0u);
  EXPECT_GE(c.shuffle_skips->Value() * 10, handovers * 9)
      << "skips=" << c.shuffle_skips->Value() << " handovers=" << handovers;
}

// The mode survives the lock going free: after a FIFO handover and a
// release with no waiter, an uncontended Lock or TryLock is granted in FIFO
// mode (a fresh lock grants 1: UncontendedSpinFieldHoldsOne).
TYPED_TEST(CnaHandoverMode, FifoModeSurvivesTheLockGoingFree) {
  using L = typename TestFixture::L;
  sim::Machine m(TwoSocketSmall());
  L lock;
  std::uintptr_t contended_grant = 0;
  std::uintptr_t lock_grant = 0;
  std::uintptr_t try_grant = 0;
  bool try_acquired = false;
  m.Spawn([&] {  // socket 0: holds while fiber 1 queues behind it
    typename L::Handle h;
    lock.Lock(h);
    sim::Machine::Active()->AdvanceLocalWork(10'000);
    lock.Unlock(h);  // the walk meets one waiter, on socket 1
  });
  m.Spawn([&] {  // socket 1
    sim::Machine::Active()->AdvanceLocalWork(1'000);
    typename L::Handle h;
    lock.Lock(h);
    contended_grant = h.spin.load();
    lock.Unlock(h);  // no waiter: free in FIFO mode
    sim::Machine::Active()->AdvanceLocalWork(10'000);
    lock.Lock(h);
    lock_grant = h.spin.load();
    lock.Unlock(h);
    try_acquired = lock.TryLock(h);
    try_grant = h.spin.load();
    lock.Unlock(h);
  });
  m.Run();
  EXPECT_EQ(contended_grant, 2u);
  EXPECT_EQ(lock_grant, 2u);
  EXPECT_TRUE(try_acquired);
  EXPECT_EQ(try_grant, 2u);
}

// Mutual exclusion while the lock moves between modes: light phases drop it
// into FIFO mode and leave it free in FIFO mode (acquired through Lock and
// TryLock alike), heavy phases bring NUMA mode and its reordering back.
TYPED_TEST(CnaHandoverMode, MutualExclusionAcrossModeChanges) {
  using L = typename TestFixture::L;
  sim::Machine m(TwoSocketSmall(4));
  L lock;
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::uint64_t counter = 0;
  int in_cs = 0;
  bool violation = false;
  int fifo_lock_grants = 0;
  int fifo_try_grants = 0;
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&] {
      sim::Machine* machine = sim::Machine::Active();
      for (int i = 0; i < kIters; ++i) {
        const bool light = (i / 50) % 2 == 1;
        const bool try_lock = light && i % 2 == 0;
        typename L::Handle h;
        if (try_lock) {
          while (!lock.TryLock(h)) {
            machine->AdvanceLocalWork(100);
          }
        } else {
          lock.Lock(h);
        }
        if (h.spin.load() == 2) {
          ++(try_lock ? fifo_try_grants : fifo_lock_grants);
        }
        if (++in_cs != 1) {
          violation = true;
        }
        ++counter;
        machine->AdvanceLocalWork(100);
        --in_cs;
        lock.Unlock(h);
        if (light) {
          machine->AdvanceLocalWork(4'000 + machine->Random() % 4'000);
        }
      }
    });
  }
  m.Run();
  EXPECT_FALSE(violation);
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GT(fifo_lock_grants, 0);
  EXPECT_GT(fifo_try_grants, 0);
  const auto& c = telemetry::CnaCounters();
  EXPECT_GT(c.shuffle_skips->Value(), 0u);
  EXPECT_GT(c.queue_alterations->Value(), 0u);
}

// ---------- MCSCR (Malthusian MCS) ----------

TEST(Mcscr, CullsIntoPassiveListUnderContention) {
  sim::Machine m(TwoSocketSmall());
  locks::McscrLock<SimPlatform> lock;
  int max_passive = 0;
  for (int t = 0; t < 8; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 300 + 1);
      for (int i = 0; i < 100; ++i) {
        locks::ScopedLock<locks::McscrLock<SimPlatform>> g(lock);
        max_passive = std::max(max_passive, lock.PassiveCountApprox());
      }
    });
  }
  m.Run();
  EXPECT_GT(max_passive, 0);        // culling happened
  EXPECT_EQ(lock.PassiveCountApprox(), 0);  // and fully drained at the end
}

TEST(Mcscr, TwoWordsOfState) {
  EXPECT_EQ(locks::McscrLock<RealPlatform>::kStateBytes, 2 * sizeof(void*));
}

}  // namespace
}  // namespace cna
