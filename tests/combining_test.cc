// Simulator-based schedule exploration of the flat-combining path
// (src/locktable/combining.h).
//
// The combining layer's contract is linearizability of applied closures:
// every submitted operation is applied exactly once, under its stripe's
// lock, and its completion (Apply returning / Future::Wait unblocking) is
// observed only after the application.  The deterministic machine lets us
// check those invariants across explored interleavings -- different seeds
// and arrival jitters produce different combiner/waiter schedules, including
// combiner-release/new-combiner races and budget cutoffs mid-stream.
// Combiner crashes mid-drain are out of scope (closures may not throw
// unhandled, and fibers do not die).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "locks/cna.h"
#include "locktable/combining.h"
#include "platform/real_platform.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

using SimCombining =
    locktable::CombiningTable<SimPlatform, locks::CnaLock<SimPlatform>>;

sim::MachineConfig SmallMachine(std::uint64_t seed) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 8);
  cfg.seed = seed;
  return cfg;
}

// --- Exactly-once + completion-after-application + mutual exclusion ---
//
// Shared plain (non-atomic) bookkeeping mutated inside closures: fibers only
// switch at simulated events, so the bookkeeping itself is race-free while
// AdvanceLocalWork inside the closures forces interleaving at every point
// the combining protocol permits it.

struct CombiningProbe {
  // applications[t][i]: how many times fiber t's i-th operation ran.
  std::vector<std::vector<int>> applications;
  // Ops observed per stripe (incremented inside the closure, i.e. under the
  // stripe lock).
  std::vector<std::uint64_t> ops_per_stripe;
  // Concurrency probe: closures of one stripe must never overlap.
  std::vector<int> in_section;
  bool overlap_seen = false;
  // A closure observed as completed (Apply returned) before it ran.
  bool completion_before_application = false;
  // From the stats summary: ops a combiner ran on another fiber's behalf.
  std::uint64_t combined_ops = 0;
};

CombiningProbe RunExploration(std::uint64_t seed, int fibers, int iters,
                              std::size_t stripes, std::size_t budget,
                              std::uint64_t key_spread) {
  sim::Machine m(SmallMachine(seed));
  SimCombining table({.stripes = stripes,
                      .collect_stats = true,
                      .combining_budget = budget});
  CombiningProbe probe;
  probe.applications.assign(static_cast<std::size_t>(fibers),
                            std::vector<int>(static_cast<std::size_t>(iters), 0));
  probe.ops_per_stripe.assign(table.stripes(), 0);
  probe.in_section.assign(table.stripes(), 0);
  for (int t = 0; t < fibers; ++t) {
    m.Spawn([&, t] {
      // Jittered arrival so schedules differ across fibers and seeds.
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 157 + 1);
      for (int i = 0; i < iters; ++i) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(t) * 31 + static_cast<std::uint64_t>(i)) %
            key_spread;
        const std::size_t s = table.StripeOf(key);
        table.Apply(key, [&probe, t, i, s] {
          probe.in_section[s]++;
          if (probe.in_section[s] > 1) {
            probe.overlap_seen = true;
          }
          sim::Machine::Active()->AdvanceLocalWork(40);
          probe.applications[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(i)]++;
          probe.ops_per_stripe[s]++;
          probe.in_section[s]--;
        });
        // Completion: Apply returned, so the op must have run exactly once
        // by now -- and never again later (checked after Run()).
        if (probe.applications[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(i)] != 1) {
          probe.completion_before_application = true;
        }
        sim::Machine::Active()->AdvanceLocalWork(
            60 + sim::Machine::Active()->Random() % 200);
      }
    });
  }
  m.Run();  // throws on deadlock

  // Cross-check the stats against the ground truth counted in-closure.
  const auto summary = table.CombiningSummary();
  EXPECT_EQ(summary.TotalOps(),
            static_cast<std::uint64_t>(fibers) * static_cast<std::uint64_t>(iters))
      << "seed " << seed;
  std::uint64_t per_stripe_total = 0;
  for (std::size_t s = 0; s < table.stripes(); ++s) {
    const auto* c = table.CombiningStripeStats(s);
    EXPECT_NE(c, nullptr);
    if (c == nullptr) {
      continue;
    }
    EXPECT_EQ(c->pass_through.load() + c->combined.load(),
              probe.ops_per_stripe[s])
        << "seed " << seed << " stripe " << s;
    per_stripe_total += c->pass_through.load() + c->combined.load();
  }
  EXPECT_EQ(per_stripe_total, summary.TotalOps()) << "seed " << seed;
  probe.combined_ops = summary.combined;
  return probe;
}

TEST(CombiningSim, ScheduleExplorationExactlyOnce) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    auto probe = RunExploration(seed, /*fibers=*/8, /*iters=*/40,
                                /*stripes=*/4, /*budget=*/64,
                                /*key_spread=*/8);
    EXPECT_FALSE(probe.overlap_seen) << "seed " << seed;
    EXPECT_FALSE(probe.completion_before_application) << "seed " << seed;
    for (const auto& per_fiber : probe.applications) {
      for (int count : per_fiber) {
        ASSERT_EQ(count, 1) << "seed " << seed;
      }
    }
  }
}

// With everything funneled onto one stripe, combining must actually happen
// on some schedule (otherwise the layer degenerated into a plain lock), and
// the invariants must hold through combiner-release/new-combiner handoffs.
TEST(CombiningSim, HotStripeHandoffRaces) {
  std::uint64_t ops_total = 0;
  std::uint64_t combined_total = 0;
  for (std::uint64_t seed : {3ull, 11ull, 77ull, 2026ull}) {
    auto probe = RunExploration(seed, /*fibers=*/10, /*iters=*/50,
                                /*stripes=*/1, /*budget=*/8,
                                /*key_spread=*/1);
    EXPECT_FALSE(probe.overlap_seen) << "seed " << seed;
    EXPECT_FALSE(probe.completion_before_application) << "seed " << seed;
    for (const auto& per_fiber : probe.applications) {
      for (int count : per_fiber) {
        ASSERT_EQ(count, 1) << "seed " << seed;
      }
    }
    EXPECT_EQ(probe.ops_per_stripe[0], 10u * 50u) << "seed " << seed;
    ops_total += probe.ops_per_stripe[0];
    combined_total += probe.combined_ops;
  }
  EXPECT_EQ(ops_total, 4u * 10u * 50u);
  // Combining must actually happen on some schedule -- otherwise the layer
  // degenerated into a plain lock.
  EXPECT_GT(combined_total, 0u);
}

// The combining budget bounds servitude but may never strand a record: with
// a budget of 1 and a hot stripe, cutoffs must occur and every operation
// must still be applied exactly once (leftover records are re-published and
// either picked up by the next combiner or self-served by their publisher's
// try-lock).
TEST(CombiningSim, BudgetCutoffNeverStrandsRecords) {
  std::uint64_t cutoffs = 0;
  for (std::uint64_t seed : {5ull, 21ull, 99ull}) {
    sim::Machine m(SmallMachine(seed));
    SimCombining table({.stripes = 1,
                        .collect_stats = true,
                        .combining_budget = 1});
    constexpr int kFibers = 8;
    constexpr int kIters = 30;
    std::vector<int> done(kFibers, 0);
    for (int t = 0; t < kFibers; ++t) {
      m.Spawn([&, t] {
        sim::Machine::Active()->AdvanceLocalWork(
            static_cast<std::uint64_t>(t) * 97 + 1);
        for (int i = 0; i < kIters; ++i) {
          table.Apply(0, [&done, t] {
            sim::Machine::Active()->AdvanceLocalWork(80);
            done[static_cast<std::size_t>(t)]++;
          });
        }
      });
    }
    m.Run();
    for (int t = 0; t < kFibers; ++t) {
      EXPECT_EQ(done[static_cast<std::size_t>(t)], kIters)
          << "seed " << seed << " fiber " << t;
    }
    const auto summary = table.CombiningSummary();
    EXPECT_EQ(summary.TotalOps(),
              static_cast<std::uint64_t>(kFibers) * kIters);
    cutoffs += summary.budget_cutoffs;
  }
  EXPECT_GT(cutoffs, 0u);
}

// Acquiring a stripe whose publication list is empty is the do-nothing case:
// the fast path applies the caller's own closure, the drain finds nothing,
// and no record is ever allocated.
TEST(CombiningSim, EmptyPublicationListAcquisition) {
  sim::Machine m(SmallMachine(1));
  SimCombining table({.stripes = 4, .collect_stats = true});
  int runs = 0;
  std::size_t pending_during = 1;
  m.Spawn([&] {
    table.Apply(123, [&] { ++runs; });
    pending_during = table.PendingInThisContext();
    {
      SimCombining::Guard guard(table, 123);  // empty-list drain on release
      sim::Machine::Active()->AdvanceLocalWork(50);
    }
    table.Apply(123, [&] { ++runs; });
  });
  m.Run();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(pending_during, 0u);  // fast path publishes no record
  const auto summary = table.CombiningSummary();
  EXPECT_EQ(summary.pass_through, 2u);
  EXPECT_EQ(summary.combined, 0u);
  EXPECT_EQ(summary.budget_cutoffs, 0u);
}

// NUMA-aware drain order: a socket-0 Guard holder accumulates publications
// from both sockets, and its release-drain must apply the socket-0 records
// first (mirroring CNA's secondary-queue policy), each class in arrival
// order.
TEST(CombiningSim, DrainServesSocketLocalRecordsFirst) {
  sim::Machine m(SmallMachine(1));
  SimCombining table({.stripes = 1});
  std::vector<int> order;
  // Fiber 0 -> socket 0 (scatter placement) holds the stripe while fibers
  // 1..4 (sockets 1, 0, 1, 0) publish in id order.
  m.Spawn([&] {
    SimCombining::Guard guard(table, 0);
    sim::Machine::Active()->AdvanceLocalWork(100'000);
  });
  for (int t = 1; t <= 4; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 500);
      table.Apply(0, [&order, t] { order.push_back(t); });
    });
  }
  m.Run();
  // Socket-0 publishers (fibers 2, 4) before socket-1 publishers (1, 3).
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3}));
}

// Submit/Future: completion is observed only after application, futures may
// be waited in any order (the ledger releases the exact record), and a
// dropped future still waits in its destructor.
TEST(CombiningSim, SubmitFuturesCompleteInAnyOrder) {
  sim::Machine m(SmallMachine(9));
  SimCombining table({.stripes = 2, .collect_stats = true});
  std::vector<int> applied(3, 0);
  bool all_ready_after_wait = false;
  m.Spawn([&] {
    auto f0 = table.Submit(0, [&applied] { applied[0]++; });
    auto f1 = table.Submit(1, [&applied] { applied[1]++; });
    auto f2 = table.Submit(2, [&applied] { applied[2]++; });
    // Wait in reverse submission order.
    f2.Wait();
    EXPECT_EQ(applied[2], 1);
    f0.Wait();
    EXPECT_EQ(applied[0], 1);
    f1.Wait();
    all_ready_after_wait = f0.Ready() && f1.Ready() && f2.Ready();
    {
      auto dropped = table.Submit(3, [&applied] { applied[0] += 10; });
      // ~Future waits.
    }
    EXPECT_EQ(applied[0], 11);
  });
  // A second fiber combines concurrently on the same stripes.
  m.Spawn([&] {
    for (int i = 0; i < 20; ++i) {
      table.Apply(static_cast<std::uint64_t>(i), [] {});
    }
  });
  m.Run();
  EXPECT_TRUE(all_ready_after_wait);
  EXPECT_EQ(applied[0], 11);
  EXPECT_EQ(applied[1], 1);
  EXPECT_EQ(applied[2], 1);
}

// ApplyBatch groups keys by stripe: every key's closure runs exactly once
// per occurrence (duplicates included), one acquisition per distinct stripe.
TEST(CombiningSim, ApplyBatchAppliesEveryKeyOncePerOccurrence) {
  sim::Machine m(SmallMachine(4));
  SimCombining table({.stripes = 4, .collect_stats = true});
  std::vector<int> counts(16, 0);
  m.Spawn([&] {
    const std::uint64_t keys[] = {3, 7, 3, 11, 15, 7, 3};
    table.ApplyBatch(keys, 7, [&counts](std::uint64_t key) {
      counts[static_cast<std::size_t>(key)]++;
    });
  });
  m.Run();
  EXPECT_EQ(counts[3], 3);
  EXPECT_EQ(counts[7], 2);
  EXPECT_EQ(counts[11], 1);
  EXPECT_EQ(counts[15], 1);
}

// Determinism: the same configuration and seed must replay the same
// schedule (the property the exploration suite's reproducibility rests on).
TEST(CombiningSim, DeterministicAcrossRuns) {
  auto run = [] {
    sim::Machine m(SmallMachine(123));
    SimCombining table({.stripes = 2, .collect_stats = true});
    for (int t = 0; t < 6; ++t) {
      m.Spawn([&, t] {
        sim::Machine::Active()->AdvanceLocalWork(
            static_cast<std::uint64_t>(t) * 211 + 1);
        for (int i = 0; i < 40; ++i) {
          table.Apply(static_cast<std::uint64_t>(t % 2), [] {
            sim::Machine::Active()->AdvanceLocalWork(35);
          });
        }
      });
    }
    m.Run();
    const auto s = table.CombiningSummary();
    return std::pair<std::uint64_t, std::uint64_t>(m.FinalTimeNs(),
                                                   s.combined);
  };
  EXPECT_EQ(run(), run());
}

// Real-platform smoke of the same invariants, single-threaded: the template
// compiles and behaves over RealPlatform (the stress test covers real
// concurrency; this keeps the unit suite hermetic).
TEST(CombiningReal, SingleThreadFastPathAndBatch) {
  locktable::CombiningTable<RealPlatform, locks::CnaLock<RealPlatform>> table(
      {.stripes = 8, .collect_stats = true});
  std::uint64_t sum = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    table.Apply(k, [&sum, k] { sum += k; });
  }
  EXPECT_EQ(sum, 99u * 100u / 2);
  const std::uint64_t keys[] = {1, 2, 3, 4, 5};
  table.ApplyBatch(keys, 5, [&sum](std::uint64_t k) { sum += k; });
  EXPECT_EQ(sum, 99u * 100u / 2 + 15u);
  auto f = table.Submit(7, [&sum] { sum += 1000; });
  f.Wait();
  EXPECT_EQ(sum, 99u * 100u / 2 + 15u + 1000u);
  // A batch is one published op per *distinct* stripe of its key set.
  std::set<std::size_t> batch_stripes;
  for (std::uint64_t k : keys) {
    batch_stripes.insert(table.StripeOf(k));
  }
  const auto summary = table.CombiningSummary();
  EXPECT_EQ(summary.TotalOps(), 100u + batch_stripes.size() + 1u);
  EXPECT_EQ(summary.combined, 0u);  // single-threaded: all pass-through
}

// Unlock-without-lock is a checked error and must not touch the publication
// list: an erroneous unlocker may not execute other threads' pending
// closures (that is the stripe holder's exclusive right).
TEST(CombiningReal, UnlockWithoutLockThrowsBeforeDraining) {
  locktable::CombiningTable<RealPlatform, locks::CnaLock<RealPlatform>> table(
      {.stripes = 4});
  int applied = 0;
  auto f = table.Submit(9, [&applied] { ++applied; });
  EXPECT_THROW(table.Unlock(9), std::logic_error);
  EXPECT_EQ(applied, 0);  // the misuse drained nothing
  f.Wait();
  EXPECT_EQ(applied, 1);
  // Balanced lock/unlock still works, and unlocking twice throws again.
  table.Lock(9);
  table.Unlock(9);
  EXPECT_THROW(table.Unlock(9), std::logic_error);
}

}  // namespace
}  // namespace cna
