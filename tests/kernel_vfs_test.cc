// Tests for the MiniVfs substrate: fd table semantics, POSIX byte-range
// locks, dcache/lockref behaviour, lockstat accounting, and the four
// will-it-scale drivers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pthread_api.h"
#include "kernel/lockstat.h"
#include "kernel/minivfs.h"
#include "kernel/will_it_scale.h"
#include "platform/real_platform.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

using Vfs = kernel::MiniVfs<RealPlatform, qspin::SlowPathKind::kCna>;
using kernel::LockStatRegistry;
using kernel::MiniVfsOptions;

MiniVfsOptions SmallOptions() {
  MiniVfsOptions o;
  o.max_fds = 128;
  return o;
}

TEST(MiniVfsFd, AllocReturnsLowestFreeFd) {
  Vfs vfs(SmallOptions());
  const int ino = vfs.CreateInode();
  EXPECT_EQ(vfs.AllocFd(ino), 0);
  EXPECT_EQ(vfs.AllocFd(ino), 1);
  EXPECT_EQ(vfs.AllocFd(ino), 2);
  vfs.CloseFd(1);
  EXPECT_EQ(vfs.AllocFd(ino), 1);  // lowest free, like __alloc_fd
  EXPECT_EQ(vfs.AllocFd(ino), 3);
}

TEST(MiniVfsFd, ExhaustionReturnsMinusOne) {
  MiniVfsOptions o;
  o.max_fds = 4;
  Vfs vfs(o);
  const int ino = vfs.CreateInode();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(vfs.AllocFd(ino), i);
  }
  EXPECT_EQ(vfs.AllocFd(ino), -1);  // EMFILE
  vfs.CloseFd(2);
  EXPECT_EQ(vfs.AllocFd(ino), 2);
}

TEST(MiniVfsFd, CloseSemantics) {
  Vfs vfs(SmallOptions());
  const int ino = vfs.CreateInode();
  const int fd = vfs.AllocFd(ino);
  EXPECT_EQ(vfs.InodeNumberOfFd(fd), ino);
  EXPECT_TRUE(vfs.CloseFd(fd));
  EXPECT_FALSE(vfs.CloseFd(fd));  // double close
  EXPECT_EQ(vfs.InodeNumberOfFd(fd), -1);
  EXPECT_FALSE(vfs.CloseFd(-1));
  EXPECT_FALSE(vfs.CloseFd(9999));
}

TEST(MiniVfsFd, OpenFdCountTracksBitmap) {
  Vfs vfs(SmallOptions());
  const int ino = vfs.CreateInode();
  EXPECT_EQ(vfs.OpenFdCount(), 0);
  const int a = vfs.AllocFd(ino);
  const int b = vfs.AllocFd(ino);
  EXPECT_EQ(vfs.OpenFdCount(), 2);
  vfs.CloseFd(a);
  vfs.CloseFd(b);
  EXPECT_EQ(vfs.OpenFdCount(), 0);
}

TEST(MiniVfsPosixLocks, ExclusiveConflictsDetected) {
  Vfs vfs(SmallOptions());
  const int ino = vfs.CreateInode();
  const int fd1 = vfs.AllocFd(ino);
  const int fd2 = vfs.AllocFd(ino);
  EXPECT_TRUE(vfs.FcntlSetLk(fd1, 0, 10, /*owner=*/1, /*exclusive=*/true));
  // Overlapping exclusive from another owner: conflict.
  EXPECT_FALSE(vfs.FcntlSetLk(fd2, 5, 10, /*owner=*/2, /*exclusive=*/true));
  // Disjoint range: fine.
  EXPECT_TRUE(vfs.FcntlSetLk(fd2, 10, 5, /*owner=*/2, /*exclusive=*/true));
  // Same owner overlapping: allowed (owner's own locks never conflict).
  EXPECT_TRUE(vfs.FcntlSetLk(fd1, 0, 10, /*owner=*/1, /*exclusive=*/true));
}

TEST(MiniVfsPosixLocks, SharedLocksCoexist) {
  Vfs vfs(SmallOptions());
  const int ino = vfs.CreateInode();
  const int fd = vfs.AllocFd(ino);
  EXPECT_TRUE(vfs.FcntlSetLk(fd, 0, 10, 1, /*exclusive=*/false));
  EXPECT_TRUE(vfs.FcntlSetLk(fd, 0, 10, 2, /*exclusive=*/false));
  // Exclusive over shared: conflict.
  EXPECT_FALSE(vfs.FcntlSetLk(fd, 0, 10, 3, /*exclusive=*/true));
}

TEST(MiniVfsPosixLocks, UnlockRemovesAndUnblocks) {
  Vfs vfs(SmallOptions());
  const int ino = vfs.CreateInode();
  const int fd = vfs.AllocFd(ino);
  EXPECT_TRUE(vfs.FcntlSetLk(fd, 0, 10, 1, true));
  EXPECT_EQ(vfs.FcntlUnlock(fd, 0, 10, 1), 1);
  EXPECT_EQ(vfs.FcntlUnlock(fd, 0, 10, 1), 0);  // nothing left
  EXPECT_TRUE(vfs.FcntlSetLk(fd, 0, 10, 2, true));
}

TEST(MiniVfsPosixLocks, BadFdFails) {
  Vfs vfs(SmallOptions());
  EXPECT_FALSE(vfs.FcntlSetLk(0, 0, 1, 1, true));   // nothing open
  EXPECT_FALSE(vfs.FcntlSetLk(-1, 0, 1, 1, true));
  EXPECT_EQ(vfs.FcntlUnlock(7, 0, 1, 1), 0);
}

TEST(MiniVfsDcache, OpenCloseRoundTrip) {
  Vfs vfs(SmallOptions());
  const int dir = vfs.CreateDirectory();
  const int fd = vfs.Open(dir, /*name=*/42);
  ASSERT_GE(fd, 0);
  EXPECT_GE(vfs.InodeNumberOfFd(fd), 0);
  vfs.Close(fd);
  EXPECT_EQ(vfs.OpenFdCount(), 0);
}

TEST(MiniVfsDcache, ReopenFindsOrRecreatesDentry) {
  Vfs vfs(SmallOptions());
  const int dir = vfs.CreateDirectory();
  std::set<int> inodes;
  for (int i = 0; i < 32; ++i) {
    const int fd = vfs.Open(dir, 7);
    ASSERT_GE(fd, 0);
    inodes.insert(vfs.InodeNumberOfFd(fd));
    vfs.Close(fd);
  }
  // Reclaim is probabilistic (p=1/2 per final dput): across 32 rounds we must
  // see both reuse (same inode) and recreation (multiple inodes).
  EXPECT_GE(inodes.size(), 2u);
  EXPECT_LT(inodes.size(), 32u);
}

TEST(MiniVfsDcache, DistinctNamesGetDistinctDentries) {
  Vfs vfs(SmallOptions());
  const int dir = vfs.CreateDirectory();
  const int fd1 = vfs.Open(dir, 1);
  const int fd2 = vfs.Open(dir, 2);
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  EXPECT_NE(vfs.InodeNumberOfFd(fd1), vfs.InodeNumberOfFd(fd2));
  vfs.Close(fd1);
  vfs.Close(fd2);
}

TEST(MiniVfsDcache, OpenFailsCleanlyWhenFdTableFull) {
  MiniVfsOptions o;
  o.max_fds = 2;
  Vfs vfs(o);
  const int dir = vfs.CreateDirectory();
  const int a = vfs.Open(dir, 1);
  const int b = vfs.Open(dir, 2);
  EXPECT_GE(a, 0);
  EXPECT_GE(b, 0);
  EXPECT_EQ(vfs.Open(dir, 3), -1);
  vfs.Close(a);
  EXPECT_GE(vfs.Open(dir, 3), 0);
}

TEST(LockStat, RecordsAndFilters) {
  auto& reg = kernel::LockStatRegistry::Global();
  reg.Reset();
  for (int i = 0; i < 100; ++i) {
    reg.Record("lockA", "siteX", i % 2 == 0);  // 50% contended
    reg.Record("lockB", "siteY", false);       // never contended
  }
  reg.Record("lockC", "siteZ", true);  // contended but only 1 sample
  const auto contended = reg.ContendedLocks(/*min_contention_rate=*/0.1,
                                            /*min_acquisitions=*/10);
  ASSERT_EQ(contended.size(), 1u);
  EXPECT_EQ(contended[0].lock_name, "lockA");
  EXPECT_EQ(contended[0].call_sites, std::vector<std::string>{"siteX"});
  const auto snapshot = reg.Snapshot();
  EXPECT_EQ(snapshot.size(), 3u);
  reg.Reset();
  EXPECT_TRUE(reg.Snapshot().empty());
}

TEST(LockStat, VfsAccountingHitsExpectedCallSites) {
  auto& reg = kernel::LockStatRegistry::Global();
  reg.Reset();
  MiniVfsOptions o = SmallOptions();
  o.lockstat_accounting = true;
  Vfs vfs(o);
  const int ino = vfs.CreateInode();
  const int fd = vfs.AllocFd(ino);
  vfs.FcntlSetLk(fd, 0, 1, 1, true);
  vfs.FcntlUnlock(fd, 0, 1, 1);
  vfs.CloseFd(fd);
  const int dir = vfs.CreateDirectory();
  const int fd2 = vfs.Open(dir, 5);
  vfs.Close(fd2);

  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& [key, st] : reg.Snapshot()) {
    seen.insert({key.lock_name, key.call_site});
  }
  EXPECT_TRUE(seen.count({"files_struct.file_lock", "__alloc_fd"}));
  EXPECT_TRUE(seen.count({"files_struct.file_lock", "__close_fd"}));
  EXPECT_TRUE(seen.count({"files_struct.file_lock", "fcntl_setlk"}));
  EXPECT_TRUE(seen.count({"file_lock_context.flc_lock", "posix_lock_inode"}));
  EXPECT_TRUE(seen.count({"lockref.lock", "lockref_get_not_zero"}) ||
              seen.count({"lockref.lock", "d_alloc"}) ||
              seen.count({"lockref.lock", "dput"}));
  reg.Reset();
}

// Table 1's counts are registry counters: the C export carries a site's
// lockstat row, and LockStatRegistry::Reset() zeroes both views.  Real
// threads, so the sanitizer builds see MiniVfs's interned-site recording.
TEST(LockStat, SiteCountsReachTheTelemetryExport) {
  auto& reg = kernel::LockStatRegistry::Global();
  reg.Reset();
  MiniVfsOptions o = SmallOptions();
  o.lockstat_accounting = true;
  Vfs vfs(o);
  const int ino = vfs.CreateInode();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&vfs, ino] {
      for (int i = 0; i < 500; ++i) {
        const int fd = vfs.AllocFd(ino);
        ASSERT_GE(fd, 0);
        vfs.CloseFd(fd);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  const std::string prefix = "lockstat.files_struct.file_lock@__alloc_fd";
  // A counter's value in the JSON export; -1 when the export lacks it.
  const auto exported = [](const std::string& name) -> long long {
    char* json = cna_telemetry_export(CNA_TELEMETRY_FORMAT_JSON);
    const std::string doc = json != nullptr ? json : "";
    std::free(json);
    const std::string key = "\"" + name + "\":";
    const auto pos = doc.find(key);
    return pos == std::string::npos ? -1
                                    : std::stoll(doc.substr(pos + key.size()));
  };
  LockStatRegistry::SiteStats row;
  for (const auto& [key, st] : reg.Snapshot()) {
    if (key.lock_name == "files_struct.file_lock" &&
        key.call_site == "__alloc_fd") {
      row = st;
    }
  }
  EXPECT_EQ(row.acquisitions, 4u * 500u);
  EXPECT_EQ(exported(prefix + ".acquisitions"),
            static_cast<long long>(row.acquisitions));
  EXPECT_EQ(exported(prefix + ".contended"),
            static_cast<long long>(row.contended));

  reg.Reset();
  EXPECT_TRUE(reg.Snapshot().empty());
  EXPECT_EQ(exported(prefix + ".acquisitions"), 0);
  EXPECT_EQ(exported(prefix + ".contended"), 0);
}

// A pair's counters are named "lockstat.<lock>@<site>", so two pairs split
// at different '@'s would share them; the second pair is refused.
TEST(LockStat, InternRefusesPairsThatShareCounterNames) {
  auto& reg = kernel::LockStatRegistry::Global();
  reg.Intern("collide@lock", "site");
  EXPECT_THROW(reg.Intern("collide", "lock@site"), std::invalid_argument);
}

// ---------- will-it-scale drivers ----------

template <kernel::WisBenchmark B>
void SingleThreadDriverWorks() {
  kernel::WillItScale<RealPlatform, qspin::SlowPathKind::kCna> bench(
      B, /*num_threads=*/2, SmallOptions());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(bench.Op(0)) << "iteration " << i;
    EXPECT_TRUE(bench.Op(1)) << "iteration " << i;
  }
}

TEST(WillItScale, Lock1SingleThread) {
  SingleThreadDriverWorks<kernel::WisBenchmark::kLock1>();
}
TEST(WillItScale, Lock2SingleThread) {
  SingleThreadDriverWorks<kernel::WisBenchmark::kLock2>();
}
TEST(WillItScale, Open1SingleThread) {
  SingleThreadDriverWorks<kernel::WisBenchmark::kOpen1>();
}
TEST(WillItScale, Open2SingleThread) {
  SingleThreadDriverWorks<kernel::WisBenchmark::kOpen2>();
}

TEST(WillItScale, NamesAreStable) {
  EXPECT_STREQ(kernel::WisBenchmarkName(kernel::WisBenchmark::kLock1),
               "lock1_threads");
  EXPECT_STREQ(kernel::WisBenchmarkName(kernel::WisBenchmark::kOpen2),
               "open2_threads");
  EXPECT_EQ(kernel::AllWisBenchmarks().size(), 4u);
}

TEST(WillItScale, ConcurrentFibersOnSim) {
  for (auto b : kernel::AllWisBenchmarks()) {
    sim::MachineConfig cfg;
    cfg.topology = numa::Topology::Uniform(2, 4);
    sim::Machine m(cfg);
    kernel::WillItScale<SimPlatform, qspin::SlowPathKind::kCna> bench(
        b, /*num_threads=*/8, SmallOptions());
    int failures = 0;
    for (int t = 0; t < 8; ++t) {
      m.Spawn([&, t] {
        for (int i = 0; i < 60; ++i) {
          failures += bench.Op(t) ? 0 : 1;
        }
      });
    }
    m.Run();
    EXPECT_EQ(failures, 0) << kernel::WisBenchmarkName(b);
  }
}

TEST(WillItScale, FdsDoNotLeakAcrossOps) {
  kernel::WillItScale<RealPlatform, qspin::SlowPathKind::kMcs> bench(
      kernel::WisBenchmark::kOpen1, 1, SmallOptions());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(bench.Op(0));
  }
  EXPECT_EQ(bench.vfs().OpenFdCount(), 0);
}

}  // namespace
}  // namespace cna
