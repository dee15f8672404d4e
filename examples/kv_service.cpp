// A concurrent key-value service built on the sharded lock-table subsystem
// (src/locktable/): every key is served through a LockTable stripe instead of
// one global lock -- the paper's compactness argument in action, since a
// one-word CNA lock per stripe keeps even huge namespaces cheap.
//
// The example runs the same workload (point reads/writes plus two-key
// transfers through MultiGuard) with MCS and CNA stripes at several stripe
// counts, prints throughput and the total lock-state footprint, and finishes
// with a round-trip through the C surface (cna_locktable_*).
//
// Build & run:  ./build/example_kv_service [scale=1]
//               ./build/example_kv_service --duration <ms> [--serve <port>]
// (each lock x stripe configuration runs for scale * 100 ms, or exactly
// --duration ms; --serve starts the telemetry HTTP endpoint + background
// sampler for the run -- curl http://127.0.0.1:<port>/metrics while it goes)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/sharded_kv.h"
#include "core/pthread_api.h"
#include "harness/runner.h"
#include "locks/cna.h"
#include "locks/lock_api.h"
#include "locks/mcs.h"
#include "platform/real_platform.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

using namespace cna;

// Each demo phase reports from a clean slate: without this, the stripe-sweep
// phase's counters would bleed into the telemetry demo's exports (and into
// anything scraping --serve).  The sampler re-baselines so its next delta is
// relative to the reset state instead of wrapping.
void ResetPhaseTelemetry() {
  telemetry::Registry::Global().ResetAll();
  cna_sampler_rebaseline();
}

template <typename L>
void RunService(int threads, std::size_t stripes,
                std::chrono::milliseconds window, bool live_telemetry) {
  apps::ShardedKvOptions o;
  o.key_range = 1 << 16;
  o.lock_stripes = stripes;
  o.get_pct = 70;
  o.put_pct = 20;  // remaining 10%: two-key transfers via MultiGuard
  o.cs_compute_ns = 0;
  // Under --serve the whole run is observable: per-stripe wait/hold latency
  // feeds the sampler so /series and cna_top show live rates per phase.
  o.collect_latency = live_telemetry;
  apps::ShardedKv<RealPlatform, L> kv(o);
  for (std::uint64_t k = 0; k < o.key_range; k += 2) {
    kv.Put(k, k + 1);
  }
  auto result = harness::RunOnThreads(
      threads, window, /*virtual_sockets=*/2, [&](int t) {
        XorShift64 rng =
            XorShift64::FromSeed(77 + static_cast<std::uint64_t>(t));
        return [&, rng]() mutable { kv.MixedOp(rng); };
      });
  std::printf("  %7zu stripes: %8.3f ops/us   (lock state: %zu bytes)\n",
              stripes, result.throughput_mops, kv.table().LockStateBytes());
}

void CApiRoundTrip() {
  std::printf("C surface round-trip (cna_locktable_*):\n");
  cna_locktable_t* table = cna_locktable_create("cna", 1024);
  if (table == nullptr) {
    std::printf("  create failed\n");
    return;
  }
  cna_locktable_lock(table, 42);
  cna_locktable_unlock(table, 42);
  const uint64_t txn[2] = {7, 1ull << 40};
  cna_locktable_lock_many(table, txn, 2);
  cna_locktable_unlock_many(table, txn, 2);
  std::printf("  %zu stripes of \"cna\", %zu bytes of lock state total\n",
              cna_locktable_stripes(table), cna_locktable_state_bytes(table));
  cna_locktable_destroy(table);
}

// One more service run with the full telemetry stack on -- telemetry-config
// CNA stripes (slow-path wait timing + handoff tracing), table-level
// wait/hold latency -- followed by a stats dump in every export format and a
// Chrome trace file openable in Perfetto / chrome://tracing.
void TelemetryDemo(int threads, std::chrono::milliseconds window) {
  telemetry::SetEnabled(true);
  telemetry::SetTraceEnabled(true);

  using TelemetryCna = locks::CnaLock<RealPlatform, locks::CnaTelemetryConfig>;
  apps::ShardedKvOptions o;
  o.key_range = 1 << 16;
  o.lock_stripes = 64;
  o.get_pct = 70;
  o.put_pct = 20;
  o.cs_compute_ns = 0;
  o.collect_latency = true;
  apps::ShardedKv<RealPlatform, TelemetryCna> kv(o);
  (void)harness::RunOnThreads(
      threads, window, /*virtual_sockets=*/2, [&](int t) {
        XorShift64 rng =
            XorShift64::FromSeed(99 + static_cast<std::uint64_t>(t));
        return [&, rng]() mutable { kv.MixedOp(rng); };
      });

  telemetry::SetTraceEnabled(false);
  const auto snap = telemetry::Registry::Global().Snapshot();
  std::printf("\n--- telemetry: lock_stat text ---\n%s",
              telemetry::ToLockStatText(snap).c_str());
  std::printf("\n--- telemetry: JSON ---\n%s\n",
              telemetry::ToJson(snap).c_str());
  std::printf("\n--- telemetry: Prometheus exposition ---\n%s",
              telemetry::ToPrometheus(snap).c_str());

  const auto events = telemetry::CollectTrace();
  const char* trace_path = std::getenv("CNA_TRACE_OUT");
  const std::string path =
      trace_path != nullptr ? trace_path : "kv_service_trace.json";
  std::ofstream out(path);
  out << telemetry::ToChromeTraceJson(events);
  out.close();
  std::printf(
      "\nwrote %zu trace events to %s (load in Perfetto or "
      "chrome://tracing)\n",
      events.size(), path.c_str());
  telemetry::SetEnabled(false);
}

}  // namespace

int main(int argc, char** argv) {
  long duration_ms = 0;  // 0: derive from the legacy positional scale
  int serve_port = -1;   // -1: no endpoint
  int scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
    } else {
      scale = std::atoi(argv[i]);
    }
  }
  const auto window = std::chrono::milliseconds(
      duration_ms > 0 ? duration_ms : 100 * std::max(1, scale));
  const int threads = 4;

  if (serve_port >= 0) {
    // Live monitoring for the whole run: background sampler (100 ms ticks)
    // feeding /series, plus the scrape endpoint.  Port 0 binds an ephemeral
    // port; the bound port is printed either way so scripts can scrape it.
    cna_sampler_start(100);
    const int bound = cna_telemetry_serve_start(
        static_cast<unsigned short>(serve_port));
    if (bound < 0) {
      std::fprintf(stderr, "failed to bind telemetry endpoint on port %d\n",
                   serve_port);
      return 1;
    }
    std::printf("telemetry: serving on http://127.0.0.1:%d "
                "(/metrics /json /lockstat /series)\n", bound);
    std::fflush(stdout);
    telemetry::SetEnabled(true);
  }

  std::printf(
      "sharded kv service, %d threads, %lld ms per configuration "
      "(real threads)\n",
      threads, static_cast<long long>(window.count()));
  for (std::size_t stripes : {std::size_t{1}, std::size_t{64},
                              std::size_t{4096}}) {
    std::printf("mcs:\n");
    RunService<locks::McsLock<RealPlatform>>(threads, stripes, window,
                                             serve_port >= 0);
    std::printf("cna:\n");
    RunService<locks::CnaLock<RealPlatform>>(threads, stripes, window,
                                             serve_port >= 0);
  }
  ResetPhaseTelemetry();
  CApiRoundTrip();
  ResetPhaseTelemetry();
  TelemetryDemo(threads, window);
  if (serve_port >= 0) {
    cna_telemetry_serve_stop();
    cna_sampler_stop();
  }
  std::printf(
      "note: on a single-socket host MCS and CNA stripes perform alike; the "
      "NUMA effect appears on multi-socket machines (bench/locktable_sweep "
      "reproduces it on the simulator).\n");
  return 0;
}
