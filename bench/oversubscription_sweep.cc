// Oversubscription sweep: what blocking buys when threads far outnumber
// CPUs.
//
// The paper's spin locks (and the kernel qspinlock they target) assume a
// thread that waits burns a CPU nobody else needs.  At 1-64x
// oversubscription that assumption inverts: every spinning waiter steals
// cycles from the lock holder itself, and the scheduler has no idea the
// spinner is useless.  This bench measures the three ways out, all over the
// same 1-stripe lock namespace and the same critical-section/think mix:
//
//   * CNA-spin    -- LockTable over CNA, pure spinning (the baseline).
//   * CNA-parked  -- the same table with .blocking = true: waiters spin a
//     short budget, then park in the process-global parking lot
//     (src/parking/parking_lot.h) on a real futex until a releasing thread
//     wakes them.
//   * GCR-sleep   -- GcrLockTable, restriction engaged, passive waiters in
//     timed PassiveWait sleeps (PR 8's shape: wakes on a timer, not on an
//     event).
//   * GCR-parked  -- the same GCR table with .blocking = true: passive
//     waiters park on their admission word and the unlocker that promotes
//     them issues a directed unpark -- event-driven wakeup, no timer churn.
//
// Three series tables share the thread ladder: throughput (ops/us), lock
// wait p99 (us, from the shared "osub.wait_ns" histogram, reset per point),
// and process CPU burn (CPUs kept busy: getrusage user+system time per
// wall-second -- the number oversubscribed deployments actually pay for).
// Each point also lands in the bench JSON "phases" array via RecordPhaseCpu,
// so CI trajectories can track the user/system split per configuration.
//
// Environment: CNA_BENCH_WINDOW_MS, CNA_BENCH_MAX_THREADS as elsewhere.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "locks/cna.h"
#include "locks/gcr.h"
#include "locktable/gcr_table.h"
#include "locktable/lock_table.h"
#include "parking/parking_lot.h"
#include "platform/real_platform.h"
#include "telemetry/metrics.h"

namespace {

using namespace cna;

constexpr std::uint64_t kCsWorkNs = 200;
constexpr std::uint64_t kThinkNs = 400;

using RealCna = locks::CnaLock<RealPlatform>;
using PlainTable = locktable::LockTable<RealPlatform, RealCna>;
using GcrTable = locktable::GcrLockTable<RealPlatform, RealCna>;

std::uint32_t RealActiveLimit() {
  return std::min<std::uint32_t>(
      8u, std::max(1u, std::thread::hardware_concurrency()));
}

void CriticalSection() {
  for (std::uint64_t line = 0; line < 4; ++line) {
    RealPlatform::OnDataAccess(/*object_id=*/line, /*write=*/true);
  }
  RealPlatform::ExternalWork(kCsWorkNs);
}

// Merge the shared wait histogram across sockets.  Points reset the registry
// first, so this is the distribution of exactly one (config, threads) run.
telemetry::HistogramSnapshot WaitSnapshot() {
  auto& h = telemetry::Registry::Global().GetHistogram("osub.wait_ns");
  telemetry::HistogramSnapshot total;
  for (int s = 0; s < telemetry::kMaxSockets; ++s) {
    total.Merge(h.SocketSnapshot(s));
  }
  return total;
}

struct Point {
  double mops = 0.0;
  double wait_p99_us = 0.0;
  double cpus_busy = 0.0;  // CPU-time per wall-second over the whole run
};

// One sweep point: build a fresh table via make_table(), run the ladder
// rung, and charge the whole run's process CPU (worker spin/park/wake plus
// any run-off) to this configuration's phase.  The run lasts longer than the
// window -- thread start, and the run-off until every thread joins -- so CPU
// time is divided by the wall time around the same interval.
template <typename MakeTable>
Point RunPoint(const std::string& label, int threads,
               std::chrono::nanoseconds window, MakeTable&& make_table) {
  telemetry::Registry::Global().ResetAll();
  auto table = make_table();
  const auto wall0 = std::chrono::steady_clock::now();
  const harness::ProcessCpu cpu0 = harness::ProcessCpuNow();
  const auto r = harness::RunOnThreads(
      threads, window, /*virtual_sockets=*/2, [&table](int t) {
        XorShift64 rng =
            XorShift64::FromSeed(0x05b5 + static_cast<std::uint64_t>(t));
        return [&table, rng]() mutable {
          table->Lock(0);
          CriticalSection();
          table->Unlock(0);
          RealPlatform::ExternalWork(kThinkNs + rng.NextBelow(kThinkNs));
        };
      });
  const harness::ProcessCpu cpu1 = harness::ProcessCpuNow();
  const auto wall1 = std::chrono::steady_clock::now();
  harness::RecordPhaseCpu(label + "@" + std::to_string(threads), cpu0, cpu1);

  Point p;
  p.mops = r.throughput_mops;
  p.wait_p99_us = static_cast<double>(WaitSnapshot().P99()) / 1000.0;
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0)
          .count());
  p.cpus_busy = wall_ns > 0 ? static_cast<double>(cpu1.total_ns() -
                                                  cpu0.total_ns()) /
                                  wall_ns
                            : 0.0;
  return p;
}

std::unique_ptr<PlainTable> MakePlain(bool blocking) {
  return std::make_unique<PlainTable>(locktable::LockTableOptions{
      .stripes = 1,
      .collect_latency = true,
      .metrics_name = "osub",
      .blocking = blocking});
}

std::unique_ptr<GcrTable> MakeGcr(bool blocking) {
  auto table = std::make_unique<GcrTable>(locktable::LockTableOptions{
      .stripes = 1,
      .collect_latency = true,
      .metrics_name = "osub",
      .blocking = blocking});
  auto& lock = table->StripeLock(0);
  lock.SetActiveBounds(1, RealActiveLimit());
  lock.SetActiveLimit(RealActiveLimit());
  lock.Engage();
  return table;
}

}  // namespace

int main() {
  const auto window =
      std::chrono::nanoseconds(harness::BenchWindowNs(50'000'000));
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  // 1x to 64x hardware concurrency, small absolute rungs first so a clipped
  // smoke run still has points; capped at 1024 threads.
  std::vector<int> threads = {1, 2, 4};
  for (int mult = 1; mult <= 64; mult *= 2) {
    const int t = std::min(hw * mult, 1024);
    if (t > threads.back()) {
      threads.push_back(t);
    }
  }
  threads = harness::ClipThreads(threads);

  harness::SetBenchInfo(
      "oversubscription_sweep",
      "hw_threads=" + std::to_string(hw) +
          " max_threads=" + std::to_string(threads.back()) +
          " active_limit=" + std::to_string(RealActiveLimit()) +
          " window_ns=" + std::to_string(window.count()));

  telemetry::SetEnabled(true);

  const std::vector<std::string> configs = {"CNA-spin", "CNA-parked",
                                            "GCR-sleep", "GCR-parked"};
  harness::SeriesTable tput(
      "Oversubscription sweep: throughput (ops/us) vs threads, hw=" +
          std::to_string(hw),
      "threads", configs);
  harness::SeriesTable waitp99(
      "Oversubscription sweep: lock wait p99 (us) vs threads", "threads",
      configs);
  harness::SeriesTable cpu(
      "Oversubscription sweep: process CPU burn (CPUs busy) vs threads",
      "threads", configs);

  std::vector<std::vector<Point>> curves(configs.size());
  for (int t : threads) {
    const Point spin =
        RunPoint("CNA-spin", t, window, [] { return MakePlain(false); });
    const Point parked =
        RunPoint("CNA-parked", t, window, [] { return MakePlain(true); });
    const Point gcr_sleep =
        RunPoint("GCR-sleep", t, window, [] { return MakeGcr(false); });
    const Point gcr_parked =
        RunPoint("GCR-parked", t, window, [] { return MakeGcr(true); });
    const Point points[] = {spin, parked, gcr_sleep, gcr_parked};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      curves[c].push_back(points[c]);
    }
    tput.AddRow(t, {spin.mops, parked.mops, gcr_sleep.mops, gcr_parked.mops});
    waitp99.AddRow(t, {spin.wait_p99_us, parked.wait_p99_us,
                       gcr_sleep.wait_p99_us, gcr_parked.wait_p99_us});
    cpu.AddRow(t, {spin.cpus_busy, parked.cpus_busy, gcr_sleep.cpus_busy,
                   gcr_parked.cpus_busy});
  }
  tput.Emit();
  waitp99.Emit();
  cpu.Emit();

  telemetry::SetEnabled(false);

  // Parking-lot accounting over the whole sweep: every registration must
  // have left the lot exactly one way, and nobody may still be parked.
  const auto lot_stats = parking::ParkingLot<RealPlatform>::Global().Stats();
  std::printf(
      "\nParking lot over the sweep: %llu enqueues = %llu unparks + %llu "
      "timeouts + %llu cancels (still parked: %zu)\n",
      static_cast<unsigned long long>(lot_stats.enqueues),
      static_cast<unsigned long long>(lot_stats.unparks),
      static_cast<unsigned long long>(lot_stats.timeouts),
      static_cast<unsigned long long>(lot_stats.cancels),
      parking::ParkingLot<RealPlatform>::Global().TotalWaitersApprox());

  // Deepest-point comparison: the acceptance story is "parked burns less CPU
  // than both spinning and timer-driven sleeping without giving up the
  // timer-driven throughput".
  const int deepest = threads.back();
  std::printf(
      "\nAt %d threads (%dx hardware concurrency):\n", deepest,
      deepest / hw);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const Point& p = curves[c].back();
    std::printf("  %-12s %8.3f ops/us   wait p99 %10.1f us   %6.2f CPUs\n",
                configs[c].c_str(), p.mops, p.wait_p99_us, p.cpus_busy);
  }
  const Point& spin_tail = curves[0].back();
  const Point& parked_tail = curves[1].back();
  const Point& sleep_tail = curves[2].back();
  std::printf(
      "  CNA-parked vs CNA-spin: %.0f%% of the CPU burn; vs GCR-sleep: "
      "%.0f%% of the CPU at %.0f%% of the throughput\n",
      spin_tail.cpus_busy > 0
          ? 100.0 * parked_tail.cpus_busy / spin_tail.cpus_busy
          : 0.0,
      sleep_tail.cpus_busy > 0
          ? 100.0 * parked_tail.cpus_busy / sleep_tail.cpus_busy
          : 0.0,
      sleep_tail.mops > 0 ? 100.0 * parked_tail.mops / sleep_tail.mops : 0.0);
  return 0;
}
