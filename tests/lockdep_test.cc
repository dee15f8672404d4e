// Lockdep-lite tests: class interning, the seeded AB/BA inversion with its
// two-chain witness, the MultiGuard ascending-stripe invariant, the
// park-while-holding detector, folded-stack attribution, the sim machine's
// schedule-exploration gate, and the C surface, rwlocks included.
//
// Every scenario that seeds an inversion does so with two DISTINCT classes
// (two tables with different metrics names, or two mutex kinds): same-class
// non-nested pairs deliberately record no edges, because the resizable table
// legitimately nests same-class stripes during migration.
#include <gtest/gtest.h>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pthread_api.h"
#include "core/registry.h"
#include "locks/cna.h"
#include "locktable/lock_table.h"
#include "parking/parking_lot.h"
#include "platform/real_platform.h"
#include "platform/thread_context.h"
#include "qspin/qspinlock.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"

namespace cna {
namespace {

namespace lockdep = telemetry::lockdep;

using RealCna = locks::CnaLock<RealPlatform>;
using SimCna = locks::CnaLock<SimPlatform>;
using RealTable = locktable::LockTable<RealPlatform, RealCna>;
using SimTable = locktable::LockTable<SimPlatform, SimCna>;

// ---------------------------------------------------------------------------
// Zero lock-word growth: lockdep keeps ALL of its state in side tables, so
// every lock's shared-state footprint is identical with the tracker compiled
// in.  These are the seed's published sizes (telemetry_overhead_test.cc);
// if lockdep ever leaked a byte into a lock word, one of these fires at
// compile time.
// ---------------------------------------------------------------------------
static_assert(lockdep::kCompiledIn, "this test binary builds with lockdep");
static_assert(RealCna::kStateBytes == sizeof(void*),
              "CNA lock word grew with lockdep compiled in");
static_assert(qspin::QSpinLock<RealPlatform,
                              qspin::SlowPathKind::kMcs>::kStateBytes ==
                  sizeof(std::uint32_t),
              "qspinlock word grew with lockdep compiled in");
static_assert(RealTable::PerStripeStateBytes() == RealCna::kStateBytes,
              "per-stripe state grew with lockdep compiled in");
static_assert(SimTable::PerStripeStateBytes() == SimCna::kStateBytes,
              "sim per-stripe state grew with lockdep compiled in");

class LockdepTest : public ::testing::Test {
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

TEST_F(LockdepTest, InterningIsIdempotentAndNamed) {
  const int a = lockdep::InternClass("test/intern-a");
  const int b = lockdep::InternClass("test/intern-b");
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(lockdep::InternClass("test/intern-a"), a);
  EXPECT_STREQ(lockdep::ClassName(a), "test/intern-a");
  EXPECT_STREQ(lockdep::ClassName(-1), "?");

  const int s = lockdep::InternSite("TestSite::Here");
  EXPECT_EQ(lockdep::InternSite("TestSite::Here"), s);
  EXPECT_STREQ(lockdep::SiteName(s), "TestSite::Here");
}

TEST_F(LockdepTest, ResetPreservesInternedNames) {
  const int a = lockdep::InternClass("test/survives-reset");
  lockdep::Reset();
  EXPECT_EQ(lockdep::InternClass("test/survives-reset"), a);
  EXPECT_STREQ(lockdep::ClassName(a), "test/survives-reset");
  EXPECT_EQ(lockdep::InversionCount(), 0u);
}

// The tentpole scenario: two tables taken A-then-B once, then B-then-A.
// The second order would close a cycle in the class graph, so lockdep
// reports exactly one inversion, with both acquisition chains.
TEST_F(LockdepTest, SeededAbBaInversion) {
  RealTable a({.stripes = 8, .metrics_name = "tblA"});
  RealTable b({.stripes = 8, .metrics_name = "tblB"});

  // A -> B: records the edge tblA/stripe -> tblB/stripe.
  a.LockStripe(1);
  b.LockStripe(2);
  b.UnlockStripe(2);
  a.UnlockStripe(1);
  EXPECT_EQ(lockdep::InversionCount(), 0u);
  EXPECT_GE(lockdep::GetCounts().edges, 1u);

  // B -> A: the reverse order is the deadlock ingredient, even though this
  // single-threaded run can never actually deadlock.
  b.LockStripe(2);
  a.LockStripe(1);
  a.UnlockStripe(1);
  b.UnlockStripe(2);
  EXPECT_EQ(lockdep::InversionCount(), 1u);

  // Dedup: repeating the bad order must not multiply the report.
  b.LockStripe(3);
  a.LockStripe(4);
  a.UnlockStripe(4);
  b.UnlockStripe(3);
  EXPECT_EQ(lockdep::InversionCount(), 1u);

  const std::string report = lockdep::ReportText();
  EXPECT_NE(report.find("tblA/stripe"), std::string::npos) << report;
  EXPECT_NE(report.find("tblB/stripe"), std::string::npos) << report;
  EXPECT_NE(report.find("chain A"), std::string::npos) << report;
  EXPECT_NE(report.find("chain B"), std::string::npos) << report;
  EXPECT_NE(report.find("would close a cycle"), std::string::npos) << report;

  const std::string dot = lockdep::ReportDot();
  EXPECT_EQ(dot.rfind("digraph lockdep {", 0), 0u) << dot;
  EXPECT_NE(dot.find("label=\"inversion\""), std::string::npos) << dot;

  // CI's lockdep-smoke leg exports the digraph for external validation.
  if (const char* out = std::getenv("CNA_LOCKDEP_DOT_OUT")) {
    std::ofstream f(out);
    f << dot;
  }
}

// Consistent A-then-B ordering from every thread never reports: the edge is
// recorded once and the graph stays acyclic.
TEST_F(LockdepTest, ConsistentOrderStaysClean) {
  RealTable a({.stripes = 8, .metrics_name = "cleanA"});
  RealTable b({.stripes = 8, .metrics_name = "cleanB"});
  for (int i = 0; i < 100; ++i) {
    a.Lock(7);
    b.Lock(9);
    b.Unlock(9);
    a.Unlock(7);
  }
  EXPECT_EQ(lockdep::InversionCount(), 0u);
}

// Trylock acquisitions record no incoming edge (they cannot block) but stay
// on the stack as edge sources.
TEST_F(LockdepTest, TrylockIsEdgeSourceButNotEdgeTarget) {
  RealTable a({.stripes = 8, .metrics_name = "tryA"});
  RealTable b({.stripes = 8, .metrics_name = "tryB"});

  // B blocked-acquired, then A try-acquired: no A-incoming edge, so the
  // later A -> B blocking order is NOT an inversion.
  b.LockStripe(1);
  ASSERT_TRUE(a.TryLockStripe(2));
  a.UnlockStripe(2);
  b.UnlockStripe(1);

  a.LockStripe(2);
  b.LockStripe(1);  // records tryA -> tryB; no reverse edge exists
  b.UnlockStripe(1);
  a.UnlockStripe(2);
  EXPECT_EQ(lockdep::InversionCount(), 0u);

  // But a blocking acquisition made while HOLDING a trylocked stripe still
  // records the held trylock as an edge source: tryB -> tryA now closes the
  // cycle with tryA -> tryB above.
  ASSERT_TRUE(b.TryLockStripe(1));
  a.LockStripe(2);
  a.UnlockStripe(2);
  b.UnlockStripe(1);
  EXPECT_EQ(lockdep::InversionCount(), 1u);
}

// MultiGuard's sorted-ascending stripe order becomes a checked invariant.
TEST_F(LockdepTest, MultiGuardAscendingOrderIsClean) {
  RealTable table({.stripes = 64, .metrics_name = "multi"});
  for (std::uint64_t base : {0ull, 17ull, 101ull}) {
    locktable::LockTable<RealPlatform, RealCna>::MultiGuard guard(
        table, {base, base + 3, base + 11, base + 29});
    EXPECT_GE(guard.size(), 1u);
  }
  EXPECT_EQ(lockdep::InversionCount(), 0u);
  EXPECT_EQ(lockdep::HeldDepth(RealPlatform::CpuId()), 0);
}

TEST_F(LockdepTest, NestedDescendingInstanceTripsSameClassCheck) {
  const int cls = lockdep::InternClass("test/nested-order");
  const int site = lockdep::InternSite("Test::Nested");
  const int ctx = 200;
  // Ascending nested instances: fine.
  lockdep::OnAcquired(ctx, cls, site, 0x1000, false, false, /*nested=*/true,
                      0);
  lockdep::OnAcquired(ctx, cls, site, 0x2000, false, false, /*nested=*/true,
                      0);
  EXPECT_EQ(lockdep::InversionCount(), 0u);
  lockdep::OnReleased(ctx, cls, 0x2000);
  lockdep::OnReleased(ctx, cls, 0x1000);

  // Descending nested instances: the multi-key invariant is violated.
  lockdep::OnAcquired(ctx, cls, site, 0x2000, false, false, /*nested=*/true,
                      0);
  lockdep::OnAcquired(ctx, cls, site, 0x1000, false, false, /*nested=*/true,
                      0);
  EXPECT_EQ(lockdep::InversionCount(), 1u);
  lockdep::OnReleased(ctx, cls, 0x1000);
  lockdep::OnReleased(ctx, cls, 0x2000);

  const std::string report = lockdep::ReportText();
  EXPECT_NE(report.find("same-class order violation"), std::string::npos)
      << report;
}

TEST_F(LockdepTest, NonNestedSameClassNestingIsNotFlagged) {
  // The resizable table's migration path nests two same-class stripes
  // outside any multi-key transaction; that must never report.
  const int cls = lockdep::InternClass("test/migration");
  const int site = lockdep::InternSite("Test::Migrate");
  const int ctx = 201;
  lockdep::OnAcquired(ctx, cls, site, 0x2000, false, false, /*nested=*/false,
                      0);
  lockdep::OnAcquired(ctx, cls, site, 0x1000, false, false, /*nested=*/false,
                      0);
  EXPECT_EQ(lockdep::InversionCount(), 0u);
  lockdep::OnReleased(ctx, cls, 0x1000);
  lockdep::OnReleased(ctx, cls, 0x2000);
}

// Contexts whose ids are congruent modulo kHeldSlots share a held-stack
// slot.  Each entry carries its full context id, so one context never sees
// another's held locks as its own: thread B taking an aliasY stripe while
// thread A holds an aliasX stripe records no aliasX -> aliasY edge.
TEST_F(LockdepTest, AliasedContextsDoNotInheritHeldLocks) {
  RealTable x({.stripes = 8, .metrics_name = "aliasX"});
  RealTable y({.stripes = 8, .metrics_name = "aliasY"});
  std::atomic<int> a_id{-1};
  std::atomic<bool> b_done{false};
  std::thread a([&] {
    x.LockStripe(1);
    a_id.store(platform::ThreadContext::Current().ThreadId());
    while (!b_done.load()) {
      std::this_thread::yield();
    }
    x.UnlockStripe(1);
  });
  while (a_id.load() < 0) {
    std::this_thread::yield();
  }
  // Thread ids are never reused: retire threads until the next id handed
  // out lands in A's slot.
  while (platform::MaxThreadId() % lockdep::kHeldSlots !=
         a_id.load() % lockdep::kHeldSlots) {
    std::thread([] { (void)platform::ThreadContext::Current(); }).join();
  }
  int b_id = -1;
  std::thread b([&] {
    b_id = platform::ThreadContext::Current().ThreadId();
    y.LockStripe(2);
    EXPECT_EQ(lockdep::HeldDepth(b_id), 1);
    y.UnlockStripe(2);
  });
  b.join();
  EXPECT_EQ(lockdep::HeldDepth(a_id.load()), 1);
  b_done.store(true);
  a.join();

  ASSERT_NE(b_id, a_id.load());
  ASSERT_EQ(b_id % lockdep::kHeldSlots, a_id.load() % lockdep::kHeldSlots);
  EXPECT_EQ(lockdep::GetCounts().edges, 0u);
  const std::string dot = lockdep::ReportDot();
  EXPECT_EQ(dot.find("\"aliasX/stripe\" -> \"aliasY/stripe\""),
            std::string::npos)
      << dot;
  EXPECT_EQ(lockdep::HeldDepth(a_id.load()), 0);
}

// Parking with a tracked lock held is flagged; parking with an empty held
// stack is not.
TEST_F(LockdepTest, ParkWhileHoldingIsDetected) {
  parking::ParkingLot<RealPlatform> lot;
  int dummy_key = 0;

  // Empty stack: a park is just a park.
  lot.ParkConditionally(&dummy_key, [] { return true; },
                        /*timeout_ns=*/100'000);
  EXPECT_EQ(lockdep::ParkWhileHeldCount(), 0u);

  RealTable table({.stripes = 8, .metrics_name = "parktbl"});
  table.LockStripe(0);
  lot.ParkConditionally(&dummy_key, [] { return true; },
                        /*timeout_ns=*/100'000);
  table.UnlockStripe(0);
  EXPECT_EQ(lockdep::ParkWhileHeldCount(), 1u);

  const std::string report = lockdep::ReportText();
  EXPECT_NE(report.find("park-while-held"), std::string::npos) << report;
  EXPECT_NE(report.find("parktbl/stripe"), std::string::npos) << report;
}

// Held stacks double as attribution: released holds accumulate into
// flamegraph.pl-compatible folded lines.
TEST_F(LockdepTest, FoldedStacksAccumulateHoldTime) {
  RealTable table({.stripes = 8, .metrics_name = "foldtbl"});
  table.Lock(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  table.Unlock(5);

  const std::string folded = lockdep::FoldedStacks();
  const std::string frame = "foldtbl/stripe@LockTable::LockStripe";
  const std::size_t pos = folded.find(frame);
  ASSERT_NE(pos, std::string::npos) << folded;
  // "frame weight\n": the weight is a positive integer.
  const std::size_t sp = folded.find(' ', pos);
  ASSERT_NE(sp, std::string::npos) << folded;
  EXPECT_GE(std::stoull(folded.substr(sp + 1)), 1'000'000ull) << folded;

  // Nested chains render as semicolon-joined frames.
  RealTable outer({.stripes = 8, .metrics_name = "foldouter"});
  outer.Lock(1);
  table.Lock(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  table.Unlock(5);
  outer.Unlock(1);
  EXPECT_NE(lockdep::FoldedStacks().find(
                "foldouter/stripe@LockTable::LockStripe;" + frame),
            std::string::npos)
      << lockdep::FoldedStacks();
}

// ---------------------------------------------------------------------------
// Simulator integration: the schedule-exploration gate.
// ---------------------------------------------------------------------------

sim::MachineConfig GatedTwoSocket(std::uint64_t seed) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 4);
  cfg.seed = seed;
  cfg.lockdep_check = true;
  return cfg;
}

TEST_F(LockdepTest, SimScheduleExplorationCleanWorkloadAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 99ull}) {
    lockdep::Reset();
    sim::Machine m(GatedTwoSocket(seed));
    SimTable a({.stripes = 16, .metrics_name = "simA"});
    SimTable b({.stripes = 16, .metrics_name = "simB"});
    for (int t = 0; t < 6; ++t) {
      m.Spawn([&a, &b, t] {
        for (int i = 0; i < 20; ++i) {
          const std::uint64_t key = static_cast<std::uint64_t>(t * 31 + i);
          a.Lock(key);
          b.Lock(key);
          b.Unlock(key);
          a.Unlock(key);
          SimTable::MultiGuard guard(a, {key, key + 5, key + 9});
        }
      });
    }
    EXPECT_NO_THROW(m.Run()) << "seed " << seed;
    EXPECT_EQ(lockdep::InversionCount(), 0u) << "seed " << seed;
  }
}

TEST_F(LockdepTest, SimSeededInversionTripsMachineGate) {
  sim::Machine m(GatedTwoSocket(1));
  SimTable a({.stripes = 8, .metrics_name = "simGateA"});
  SimTable b({.stripes = 8, .metrics_name = "simGateB"});
  // One fiber, sequential AB then BA: never deadlocks, but the recorded
  // orders close a cycle, and the gate must surface it at Run() end.
  m.Spawn([&a, &b] {
    a.LockStripe(1);
    b.LockStripe(2);
    b.UnlockStripe(2);
    a.UnlockStripe(1);
    b.LockStripe(2);
    a.LockStripe(1);
    a.UnlockStripe(1);
    b.UnlockStripe(2);
  });
  try {
    m.Run();
    FAIL() << "lockdep_check did not trip on a seeded inversion";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("lockdep"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("simGateB"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(lockdep::InversionCount(), 1u);
}

// Determinism: lockdep state lives entirely in plain std::atomic side
// tables the simulator does not charge, so the simulated clock is identical
// with tracking on or off.
//
// The coherence model keys cache lines by the sim::Atomic's raw address, so
// the simulated clock is only reproducible when the heap layout is -- two
// back-to-back runs in one process see different allocator state and drift
// by a few hundred simulated ns even with lockdep off.  Fork both runs from
// the same parent image instead: identical addresses, identical schedule,
// and the ONLY varying input is the lockdep flag.
std::uint64_t DeterminismWorkload(bool enabled) {
  lockdep::Reset();
  lockdep::SetEnabled(enabled);
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 4);
  cfg.seed = 42;
  sim::Machine m(cfg);
  SimTable a({.stripes = 16, .metrics_name = "detA"});
  SimTable b({.stripes = 16, .metrics_name = "detB"});
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&a, &b, t] {
      for (int i = 0; i < 25; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t + i * 7);
        a.Lock(key);
        b.Lock(key);
        b.Unlock(key);
        a.Unlock(key);
      }
    });
  }
  m.Run();
  return m.FinalTimeNs();
}

TEST_F(LockdepTest, SimulatedClockIdenticalWithLockdepOnAndOff) {
#if !defined(__linux__) && !defined(__APPLE__)
  GTEST_SKIP() << "fork-based determinism check is POSIX-only";
#else
  int off_pipe[2];
  int on_pipe[2];
  ASSERT_EQ(pipe(off_pipe), 0);
  ASSERT_EQ(pipe(on_pipe), 0);

  // Fork the two children back to back, with no allocations in between, so
  // both start from byte-identical heap images.
  const pid_t off_pid = fork();
  ASSERT_GE(off_pid, 0);
  if (off_pid == 0) {
    const std::uint64_t v = DeterminismWorkload(false);
    (void)!write(off_pipe[1], &v, sizeof(v));
    _exit(0);
  }
  const pid_t on_pid = fork();
  ASSERT_GE(on_pid, 0);
  if (on_pid == 0) {
    const std::uint64_t v = DeterminismWorkload(true);
    (void)!write(on_pipe[1], &v, sizeof(v));
    _exit(0);
  }

  std::uint64_t off = 0;
  std::uint64_t on = 0;
  ASSERT_EQ(read(off_pipe[0], &off, sizeof(off)),
            static_cast<ssize_t>(sizeof(off)));
  ASSERT_EQ(read(on_pipe[0], &on, sizeof(on)),
            static_cast<ssize_t>(sizeof(on)));
  int status = 0;
  waitpid(off_pid, &status, 0);
  waitpid(on_pid, &status, 0);
  for (int fd : {off_pipe[0], off_pipe[1], on_pipe[0], on_pipe[1]}) {
    close(fd);
  }

  EXPECT_EQ(off, on);
  EXPECT_GT(on, 0u);
#endif
}

// ---------------------------------------------------------------------------
// C surface.
// ---------------------------------------------------------------------------

TEST_F(LockdepTest, CApiReportsSeededInversion) {
  cna_lockdep_enable(1);
  ASSERT_EQ(cna_lockdep_enabled(), 1);

  cna_mutex_t* cna_mu = cna_mutex_create("cna");
  cna_mutex_t* mcs_mu = cna_mutex_create("mcs");
  ASSERT_NE(cna_mu, nullptr);
  ASSERT_NE(mcs_mu, nullptr);

  cna_mutex_lock(cna_mu);
  cna_mutex_lock(mcs_mu);
  cna_mutex_unlock(mcs_mu);
  cna_mutex_unlock(cna_mu);
  EXPECT_EQ(cna_lockdep_inversions(), 0u);

  cna_mutex_lock(mcs_mu);
  cna_mutex_lock(cna_mu);
  cna_mutex_unlock(cna_mu);
  cna_mutex_unlock(mcs_mu);
  EXPECT_EQ(cna_lockdep_inversions(), 1u);

  char* report = cna_lockdep_report();
  ASSERT_NE(report, nullptr);
  EXPECT_NE(std::string(report).find("mutex/cna"), std::string::npos)
      << report;
  EXPECT_NE(std::string(report).find("mutex/mcs"), std::string::npos)
      << report;
  cna_telemetry_free(report);

  char* dot = cna_lockdep_dot();
  ASSERT_NE(dot, nullptr);
  EXPECT_NE(std::string(dot).find("digraph lockdep"), std::string::npos);
  cna_telemetry_free(dot);

  char* folded = cna_lockdep_folded(0);
  ASSERT_NE(folded, nullptr);
  cna_telemetry_free(folded);

  cna_lockdep_reset();
  EXPECT_EQ(cna_lockdep_inversions(), 0u);
  cna_lockdep_enable(0);
  EXPECT_EQ(cna_lockdep_enabled(), 0);

  cna_mutex_destroy(cna_mu);
  cna_mutex_destroy(mcs_mu);
}

// Reader-writer locks enter the dependency graph through the same adapter
// hooks as mutexes, on both sides: an AB/BA between an rwlock and a mutex is
// one inversion whether the rwlock is write- or read-locked, through the C
// API and through core::SharedMutex/core::Mutex.  The read-side witness
// names the shared acquisition site.
TEST_F(LockdepTest, RwLocksJoinTheGraphOnBothSides) {
  // Takes rw then mu, then mu then rw; returns the inversion report.
  auto ab_ba = [](auto rw_lock, auto rw_unlock, auto mu_lock, auto mu_unlock) {
    lockdep::Reset();
    rw_lock();
    mu_lock();
    mu_unlock();
    rw_unlock();
    EXPECT_EQ(lockdep::InversionCount(), 0u);
    mu_lock();
    rw_lock();
    rw_unlock();
    mu_unlock();
    EXPECT_EQ(lockdep::InversionCount(), 1u);
    return lockdep::ReportText();
  };

  cna_rwlock_t* c_rw = cna_rwlock_create("cna-rw");
  cna_mutex_t* c_mu = cna_mutex_create("cna");
  ASSERT_NE(c_rw, nullptr);
  ASSERT_NE(c_mu, nullptr);
  auto c_mu_lock = [&] { cna_mutex_lock(c_mu); };
  auto c_mu_unlock = [&] { cna_mutex_unlock(c_mu); };
  auto c_rw_unlock = [&] { cna_rwlock_unlock(c_rw); };
  std::string report = ab_ba([&] { cna_rwlock_wrlock(c_rw); }, c_rw_unlock,
                             c_mu_lock, c_mu_unlock);
  EXPECT_NE(report.find("rwlock/cna-rw @ AnyLock::Lock"), std::string::npos)
      << report;
  report = ab_ba([&] { cna_rwlock_rdlock(c_rw); }, c_rw_unlock, c_mu_lock,
                 c_mu_unlock);
  EXPECT_NE(report.find("rwlock/cna-rw @ AnyRwLock::LockShared"),
            std::string::npos)
      << report;
  cna_rwlock_destroy(c_rw);
  cna_mutex_destroy(c_mu);

  core::SharedMutex rw("cna-rw-compact");
  core::Mutex mu("mcs");
  auto mu_lock = [&] { mu.lock(); };
  auto mu_unlock = [&] { mu.unlock(); };
  report = ab_ba([&] { rw.lock(); }, [&] { rw.unlock(); }, mu_lock, mu_unlock);
  EXPECT_NE(report.find("rwlock/cna-rw-compact"), std::string::npos)
      << report;
  report = ab_ba([&] { rw.lock_shared(); }, [&] { rw.unlock_shared(); },
                 mu_lock, mu_unlock);
  EXPECT_NE(report.find("rwlock/cna-rw-compact @ AnyRwLock::LockShared"),
            std::string::npos)
      << report;
}

// With tracking disabled, every hook is one relaxed load and nothing is
// recorded (and with -DCNA_LOCKDEP=0 the stubs return the same nothing).
TEST_F(LockdepTest, DisabledHooksRecordNothing) {
  lockdep::SetEnabled(false);
  RealTable a({.stripes = 8, .metrics_name = "offA"});
  RealTable b({.stripes = 8, .metrics_name = "offB"});
  a.LockStripe(1);
  b.LockStripe(2);
  b.UnlockStripe(2);
  a.UnlockStripe(1);
  b.LockStripe(2);
  a.LockStripe(1);
  a.UnlockStripe(1);
  b.UnlockStripe(2);
  EXPECT_EQ(lockdep::InversionCount(), 0u);
  EXPECT_EQ(lockdep::HeldDepth(RealPlatform::CpuId()), 0);
}

}  // namespace
}  // namespace cna
