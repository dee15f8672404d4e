// Lockdep stress with real threads: the TSan leg runs this to prove the
// tracker's side tables (held slots and their folds, interning, the class
// graph, the global fold table) are race-free under concurrent acquisition,
// release, inversion reporting, and report rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "every_stamp_platform.h"
#include "locks/cna.h"
#include "locktable/lock_table.h"
#include "platform/real_platform.h"
#include "telemetry/lockdep.h"

namespace cna {
namespace {

namespace lockdep = telemetry::lockdep;

using RealCna = locks::CnaLock<RealPlatform>;
using RealTable = locktable::LockTable<RealPlatform, RealCna>;
// Stamps every acquisition, for tests that assert one given hold is folded.
using ExactTable = locktable::LockTable<EveryStampPlatform,
                                        locks::CnaLock<EveryStampPlatform>>;

class LockdepStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lockdep::Reset();
    lockdep::SetEnabled(true);
  }
  void TearDown() override {
    lockdep::SetEnabled(false);
    lockdep::Reset();
  }
};

// Every thread takes the two tables in the same A-then-B order; no ordering
// statement ever conflicts, so the graph stays clean no matter how the
// threads interleave.
TEST_F(LockdepStressTest, ConsistentOrderManyThreadsStaysClean) {
  RealTable a({.stripes = 32, .metrics_name = "stressA"});
  RealTable b({.stripes = 32, .metrics_name = "stressB"});
  constexpr int kThreads = 8;
  constexpr int kIters = 400;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&a, &b, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t * 131 + i);
        a.Lock(key);
        b.Lock(key);
        b.Unlock(key);
        a.Unlock(key);
        RealTable::MultiGuard guard(a, {key, key + 3, key + 8});
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(lockdep::InversionCount(), 0u);
}

// Phase 1: half the threads hammer A-then-B.  Phase 2 (after a join
// barrier): the other half hammer B-then-A.  Exactly one inversion must be
// reported -- the (stressB -> stressA) cycle-closing pair, deduped across
// every thread and iteration that retries it.
TEST_F(LockdepStressTest, SeededAbBaAcrossThreadsReportsOnce) {
  RealTable a({.stripes = 32, .metrics_name = "phaseA"});
  RealTable b({.stripes = 32, .metrics_name = "phaseB"});
  constexpr int kThreads = 4;
  constexpr int kIters = 200;

  auto run_phase = [&](bool a_first) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&a, &b, a_first, t] {
        for (int i = 0; i < kIters; ++i) {
          const std::uint64_t key = static_cast<std::uint64_t>(t * 17 + i);
          RealTable& first = a_first ? a : b;
          RealTable& second = a_first ? b : a;
          first.Lock(key);
          second.Lock(key);
          second.Unlock(key);
          first.Unlock(key);
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
  };

  run_phase(/*a_first=*/true);
  EXPECT_EQ(lockdep::InversionCount(), 0u);
  run_phase(/*a_first=*/false);
  EXPECT_EQ(lockdep::InversionCount(), 1u);

  const std::string report = lockdep::ReportText();
  EXPECT_NE(report.find("phaseA/stripe"), std::string::npos) << report;
  EXPECT_NE(report.find("phaseB/stripe"), std::string::npos) << report;
  EXPECT_NE(report.find("chain A"), std::string::npos) << report;
  EXPECT_NE(report.find("chain B"), std::string::npos) << report;
}

// Acquirers and a reporter racing: rendering the text/DOT/folded reports
// while the graph and fold table are being written must be data-race free
// (everything crosses on atomics), which is exactly what TSan checks here.
TEST_F(LockdepStressTest, ReportingRacesAcquisitionsCleanly) {
  RealTable a({.stripes = 32, .metrics_name = "raceA"});
  RealTable b({.stripes = 32, .metrics_name = "raceB"});
  std::atomic<bool> stop{false};

  std::thread reporter([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string text = lockdep::ReportText();
      EXPECT_FALSE(text.empty());
      const std::string dot = lockdep::ReportDot();
      EXPECT_EQ(dot.rfind("digraph lockdep {", 0), 0u);
      (void)lockdep::FoldedStacks();
      (void)lockdep::GetCounts();
    }
  });

  constexpr int kThreads = 6;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&a, &b, t] {
      for (int i = 0; i < 300; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t * 101 + i);
        a.Lock(key);
        b.Lock(key);
        b.Unlock(key);
        a.Unlock(key);
      }
    });
  }
  for (auto& th : workers) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  reporter.join();
  EXPECT_EQ(lockdep::InversionCount(), 0u);
}

// Chain signature -> number of folded lines naming it.
std::map<std::string, int> FoldedLinesBySignature(const std::string& folded) {
  std::map<std::string, int> lines;
  std::istringstream in(folded);
  for (std::string line; std::getline(in, line);) {
    ++lines[line.substr(0, line.rfind(' '))];
  }
  return lines;
}

// Folds accumulate in each releasing context's held slot and spill into the
// global table only when the slot's records are full; FoldedStacks() merges
// both, one line per chain signature, while the workers keep releasing.
// The tables stamp every acquisition, so every chain taken is folded.
TEST_F(LockdepStressTest, PerContextFoldsMergeOneLinePerChain) {
  ExactTable a({.stripes = 32, .metrics_name = "foldA"});
  ExactTable b({.stripes = 32, .metrics_name = "foldB"});
  // More single-stripe chains than one slot holds, all from one thread.
  constexpr int kSpill = lockdep::kSlotFolds + 4;
  std::vector<std::unique_ptr<ExactTable>> spill;
  std::set<std::string> expected = {
      "foldA/stripe@LockTable::LockStripe",
      "foldA/stripe@LockTable::LockStripe;foldB/stripe@LockTable::LockStripe"};
  for (int k = 0; k < kSpill; ++k) {
    const std::string name = "foldSpill" + std::to_string(k);
    spill.push_back(std::make_unique<ExactTable>(locktable::LockTableOptions{
        .stripes = 1, .metrics_name = name.c_str()}));
    expected.insert(name + "/stripe@LockTable::LockStripe");
  }

  std::atomic<bool> stop{false};
  std::atomic<int> duplicated{0};
  std::thread reporter([&stop, &duplicated] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& [chain, n] :
           FoldedLinesBySignature(lockdep::FoldedStacks())) {
        duplicated.fetch_add(n > 1 ? 1 : 0, std::memory_order_relaxed);
      }
    }
  });

  constexpr int kThreads = 6;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&a, &b, &spill, t] {
      for (int i = 0; i < 300; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t * 101 + i);
        a.Lock(key);
        a.Unlock(key);
        a.Lock(key);
        b.Lock(key);
        b.Unlock(key);
        a.Unlock(key);
        if (t == 0) {
          ExactTable& table = *spill[static_cast<std::size_t>(i % kSpill)];
          table.LockStripe(0);
          table.UnlockStripe(0);
        }
      }
    });
  }
  for (auto& th : workers) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  reporter.join();

  EXPECT_EQ(duplicated.load(), 0);
  const std::string folded = lockdep::FoldedStacks();
  std::set<std::string> chains;
  for (const auto& [chain, n] : FoldedLinesBySignature(folded)) {
    EXPECT_EQ(n, 1) << chain;
    chains.insert(chain);
  }
  EXPECT_EQ(chains, expected) << folded;
  EXPECT_EQ(lockdep::GetCounts().fold_drops, 0u);

  lockdep::Reset();
  EXPECT_EQ(lockdep::FoldedStacks(), "");
}

}  // namespace
}  // namespace cna
