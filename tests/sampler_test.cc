// Tests for the continuous-telemetry tier: sampler delta algebra, ring
// wraparound, saturation detection, the HTTP scrape endpoint, the C surface,
// and -- the load-bearing invariant -- that sampling cannot perturb a
// simulated schedule (the same gate telemetry_overhead_test.cc applies to the
// registry).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/sharded_kv.h"
#include "base/rng.h"
#include "core/pthread_api.h"
#include "harness/runner.h"
#include "locks/cna.h"
#include "parking/parking_lot.h"
#include "platform/real_platform.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/saturation.h"
#include "telemetry/serve.h"

namespace cna {
namespace {

using telemetry::Condition;
using telemetry::HistogramSnapshot;
using telemetry::Registry;
using telemetry::RegistrySnapshot;
using telemetry::Sampler;
using telemetry::SamplerOptions;
using telemetry::SaturationDetector;
using telemetry::SaturationOptions;

// ---------------------------------------------------------------------------
// Delta algebra: the un-evicted ring deltas sum exactly to cumulative-state
// minus baseline, per counter and per histogram bucket.
// ---------------------------------------------------------------------------

TEST(Sampler, DeltasSumToCumulative) {
  Registry registry;
  auto& ops = registry.GetCounter("test.ops");
  auto& wait = registry.GetHistogram("test.wait_ns");
  ops.Add(7);  // pre-sampler traffic lands in the baseline, not in any delta
  wait.Record(0, 100);

  Sampler sampler(&registry, SamplerOptions{.capacity = 64});
  XorShift64 rng = XorShift64::FromSeed(42);
  for (int tick = 1; tick <= 10; ++tick) {
    const std::uint64_t n = 1 + rng.NextBelow(50);
    ops.Add(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      wait.Record(static_cast<int>(i % 2), 1 + rng.NextBelow(1u << 20));
    }
    sampler.Tick(static_cast<std::uint64_t>(tick) * 1'000'000);
  }
  ASSERT_EQ(sampler.ticks(), 10u);

  // Sum every retained delta...
  std::uint64_t ops_sum = 0;
  HistogramSnapshot wait_sum;
  std::array<HistogramSnapshot, telemetry::kMaxSockets> socket_sum;
  for (const telemetry::Sample& s : sampler.Window()) {
    for (const telemetry::CounterSample& c : s.delta.counters) {
      if (c.name == "test.ops") {
        ops_sum += c.value;
      }
    }
    for (const telemetry::HistogramSample& h : s.delta.histograms) {
      if (h.name == "test.wait_ns") {
        wait_sum.Merge(h.total);
        for (int sock = 0; sock < telemetry::kMaxSockets; ++sock) {
          socket_sum[static_cast<std::size_t>(sock)].Merge(
              h.by_socket[static_cast<std::size_t>(sock)]);
        }
      }
    }
  }

  // ...and compare against cumulative - baseline, exactly.
  EXPECT_EQ(ops_sum, ops.Value() - 7);
  const HistogramSnapshot cumulative = wait.Snapshot();
  const HistogramSnapshot baseline_h = [&] {
    for (const auto& h : sampler.BaselineSnapshot().histograms) {
      if (h.name == "test.wait_ns") {
        return h.total;
      }
    }
    return HistogramSnapshot{};
  }();
  const HistogramSnapshot expect = cumulative - baseline_h;
  EXPECT_EQ(wait_sum.count, expect.count);
  EXPECT_EQ(wait_sum.sum, expect.sum);
  for (int i = 0; i < telemetry::kHistBuckets; ++i) {
    EXPECT_EQ(wait_sum.buckets[static_cast<std::size_t>(i)],
              expect.buckets[static_cast<std::size_t>(i)])
        << "bucket " << i;
  }
  // Per-socket slices obey the same algebra (sockets 0 and 1 recorded).
  for (int sock = 0; sock < 2; ++sock) {
    EXPECT_GT(socket_sum[static_cast<std::size_t>(sock)].count, 0u);
  }
  EXPECT_EQ(socket_sum[0].count + socket_sum[1].count, wait_sum.count);
}

// ---------------------------------------------------------------------------
// Ring wraparound: rates stay correct once old samples are evicted.
// ---------------------------------------------------------------------------

TEST(Sampler, WraparoundKeepsWindowRatesCorrect) {
  Registry registry;
  auto& ops = registry.GetCounter("test.ops");
  Sampler sampler(&registry, SamplerOptions{.capacity = 4});

  // 10 ticks, 1 ms apart, tick i adds 100 * i events.  After wraparound only
  // ticks 7..10 are retained.
  for (int i = 1; i <= 10; ++i) {
    ops.Add(static_cast<std::uint64_t>(100 * i));
    sampler.Tick(static_cast<std::uint64_t>(i) * 1'000'000);
  }
  const auto window = sampler.Window();
  ASSERT_EQ(window.size(), 4u);
  EXPECT_EQ(window.front().ts_ns, 7'000'000u);  // oldest retained, in order
  EXPECT_EQ(window.back().ts_ns, 10'000'000u);

  // Full retained window: (700+800+900+1000) events over 4 ms.
  EXPECT_DOUBLE_EQ(sampler.CounterRate("test.ops"),
                   3400.0 * 1e9 / 4'000'000.0);
  // Sub-window of the newest 2: (900+1000) over 2 ms.
  EXPECT_DOUBLE_EQ(sampler.CounterRate("test.ops", 2),
                   1900.0 * 1e9 / 2'000'000.0);
  // The rate curve reflects per-tick rates, oldest first.
  const auto curve = sampler.RateCurve("test.ops");
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0].per_sec, 700.0 * 1e9 / 1'000'000.0);
  EXPECT_DOUBLE_EQ(curve[3].per_sec, 1000.0 * 1e9 / 1'000'000.0);
}

TEST(Sampler, RebaselineAfterRegistryReset) {
  Registry registry;
  auto& ops = registry.GetCounter("test.ops");
  auto& wait = registry.GetHistogram("test.wait_ns");
  Sampler sampler(&registry);
  ops.Add(10);
  wait.Record(0, 100);
  sampler.Tick(1'000'000);
  registry.ResetAll();
  sampler.Rebaseline();  // without this the next delta would wrap
  ops.Add(3);
  wait.Record(0, 50);
  sampler.Tick(2'000'000);
  sampler.Tick(3'000'000);
  std::uint64_t total = 0;
  for (const auto& s : sampler.Window()) {
    for (const auto& c : s.delta.counters) {
      if (c.name == "test.ops") {
        total += c.value;
      }
    }
  }
  EXPECT_EQ(total, 3u);
}

// ---------------------------------------------------------------------------
// Saturation: an oversubscribed collapse trips the detector; a steady
// low-contention workload does not.
// ---------------------------------------------------------------------------

// Synthetic collapse: each tick completes fewer operations than the last
// while the wait p99 climbs orders of magnitude -- the "more waiters, less
// work" signature.  dt = 1 ms per tick keeps the mean rate far above the
// idle floor.
void DriveSyntheticCollapse(telemetry::Histogram& wait, Sampler& sampler,
                            SaturationDetector& detector) {
  const std::uint64_t counts[] = {4000, 3400, 2800, 2200, 1600, 1100, 700,
                                  400};
  const std::uint64_t waits[] = {1u << 10, 1u << 10, 1u << 11, 1u << 12,
                                 1u << 14, 1u << 16, 1u << 19, 1u << 22};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::uint64_t n = 0; n < counts[i]; ++n) {
      wait.Record(0, waits[i]);
    }
    sampler.Tick((static_cast<std::uint64_t>(i) + 1) * 1'000'000);
    detector.Evaluate();
  }
}

TEST(Saturation, OversubscribedCollapseTrips) {
  Registry registry;
  auto& wait = registry.GetHistogram("locktable.wait_ns");
  Sampler sampler(&registry, SamplerOptions{.capacity = 32});
  SaturationOptions opts;
  opts.window = 8;
  SaturationDetector detector(sampler, opts);
  auto& global_trips = Registry::Global().GetCounter(
      "saturation.saturated.trips");
  const std::uint64_t trips_before = global_trips.Value();

  int events = 0;
  detector.Subscribe([&](const telemetry::ConditionEvent&) { ++events; });

  DriveSyntheticCollapse(wait, sampler, detector);

  EXPECT_TRUE(detector.Active(Condition::kThroughputCollapse));
  EXPECT_TRUE(detector.Active(Condition::kWaitSpike));
  EXPECT_TRUE(detector.Active(Condition::kSaturated));
  EXPECT_GE(detector.Trips(Condition::kSaturated), 1u);
  EXPECT_GE(global_trips.Value(), trips_before + 1);  // exporter-visible
  EXPECT_GE(events, 1);                               // subscriber fired
}

// A subscriber may ask the detector about the edge it is being told of:
// Evaluate() announces rising edges after releasing its lock.  The collapse
// is driven on a helper thread, so a detector that calls subscribers under
// its lock fails this test by timeout instead of hanging the suite.  On
// timeout the helper stays blocked, and it keeps `rig` alive.
TEST(Saturation, SubscriberMayQueryTheDetector) {
  struct Rig {
    Registry registry;
    telemetry::Histogram& wait = registry.GetHistogram("locktable.wait_ns");
    Sampler sampler{&registry, SamplerOptions{.capacity = 32}};
    SaturationDetector detector{sampler, SaturationOptions{.window = 8}};
    bool active_seen = false;
    std::uint64_t trips_seen = 0;
  };
  auto rig = std::make_shared<Rig>();
  rig->detector.Subscribe([r = rig.get()](const telemetry::ConditionEvent& ev) {
    if (ev.condition == Condition::kSaturated) {
      r->active_seen = r->detector.Active(Condition::kSaturated);
      r->trips_seen = r->detector.Trips(Condition::kSaturated);
    }
  });

  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread helper([rig, finished = std::move(finished)]() mutable {
    DriveSyntheticCollapse(rig->wait, rig->sampler, rig->detector);
    finished.set_value();
  });
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    helper.detach();
    FAIL() << "Evaluate() did not return: the subscriber's query blocked on "
              "the detector's lock";
  }
  helper.join();
  EXPECT_TRUE(rig->active_seen);
  EXPECT_GE(rig->trips_seen, 1u);
  EXPECT_EQ(rig->trips_seen, rig->detector.Trips(Condition::kSaturated));
}

TEST(Saturation, UniformLowContentionDoesNotTrip) {
  Registry registry;
  auto& wait = registry.GetHistogram("locktable.wait_ns");
  Sampler sampler(&registry, SamplerOptions{.capacity = 32});
  SaturationDetector detector(sampler, SaturationOptions{.window = 8});

  XorShift64 rng = XorShift64::FromSeed(7);
  for (std::uint64_t i = 1; i <= 16; ++i) {
    // Steady throughput (+-5%) and a flat wait distribution.
    const std::uint64_t n = 3800 + rng.NextBelow(400);
    for (std::uint64_t k = 0; k < n; ++k) {
      wait.Record(0, 500 + rng.NextBelow(1500));
    }
    sampler.Tick(i * 1'000'000);
    detector.Evaluate();
    EXPECT_FALSE(detector.Active(Condition::kThroughputCollapse));
    EXPECT_FALSE(detector.Active(Condition::kWaitSpike));
  }
  EXPECT_EQ(detector.Trips(Condition::kThroughputCollapse), 0u);
  EXPECT_EQ(detector.Trips(Condition::kWaitSpike), 0u);
  EXPECT_EQ(detector.Trips(Condition::kSaturated), 0u);
}

// The window median must be the true median.  On even windows the old
// upper-middle pick (sorted[n/2]) sat on the spiking half of the window, so
// the spike baseline inflated with the spike itself and the detector went
// blind exactly when the wait distribution was taking off.
TEST(Saturation, WindowMedianIsTrueMedian) {
  EXPECT_EQ(SaturationDetector::WindowMedian({}), 0u);
  EXPECT_EQ(SaturationDetector::WindowMedian({7}), 7u);
  EXPECT_EQ(SaturationDetector::WindowMedian({5, 1, 3}), 3u);  // odd: middle
  // Even: mean of the two middles, not the upper one.
  EXPECT_EQ(SaturationDetector::WindowMedian({1, 2, 3, 4}), 2u);
  EXPECT_EQ(SaturationDetector::WindowMedian({10, 10, 1000, 3990}), 505u);
}

TEST(Saturation, EvenWindowSpikeNotMaskedByUpperMiddleBias) {
  Registry registry;
  auto& wait = registry.GetHistogram("locktable.wait_ns");
  Sampler sampler(&registry, SamplerOptions{.capacity = 16});
  SaturationOptions opts;
  opts.window = 4;
  opts.wait_spike_factor = 3.0;
  SaturationDetector detector(sampler, opts);

  // Steady throughput, but the wait p99 takes off over the last two ticks.
  // Per-tick p99s (bucket upper bounds): {31, 31, 8191, 16383}.  True median
  // of the even window is (31 + 8191) / 2 = 4111, so the newest tick is a
  // ~4x spike and must trip at factor 3.  The old upper-middle pick used
  // 8191 as the baseline -- dragged up by the spike itself -- and stayed
  // silent (16383 < 3 * 8191).
  const std::uint64_t waits[] = {16, 16, 8191, 16383};
  for (std::size_t i = 0; i < 4; ++i) {
    for (int n = 0; n < 2000; ++n) {
      wait.Record(0, waits[i]);
    }
    sampler.Tick((static_cast<std::uint64_t>(i) + 1) * 1'000'000);
    detector.Evaluate();
  }
  EXPECT_TRUE(detector.Active(Condition::kWaitSpike));
  EXPECT_GE(detector.Trips(Condition::kWaitSpike), 1u);
}

// ---------------------------------------------------------------------------
// Determinism gate: a manually-ticked sampler driven on simulated time
// cannot shift the explored schedule.  Same structure as
// telemetry_overhead_test.cc: identical instrumented workloads, the only
// difference being the sampler ticking, must agree on the simulated clock
// and land within the simulator's address-layout noise floor on ops.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSimWindowNs = 2'000'000;
constexpr std::uint64_t kSimTickEveryNs = kSimWindowNs / 10;

harness::RunResult RunSimWorkload(Sampler* sampler) {
  apps::ShardedKvOptions o;
  o.key_range = 1 << 12;
  o.lock_stripes = 16;
  o.get_pct = 60;
  o.put_pct = 30;
  o.cs_compute_ns = 50;
  o.collect_latency = true;
  auto kv = std::make_shared<
      apps::ShardedKv<SimPlatform, locks::CnaLock<SimPlatform>>>(o);
  return harness::RunOnSim(
      sim::MachineConfig::TwoSocket(), /*threads=*/8, kSimWindowNs,
      [kv, sampler](int t) {
        XorShift64 rng =
            XorShift64::FromSeed(0x0f0f + static_cast<std::uint64_t>(t));
        if (t != 0 || sampler == nullptr) {
          return std::function<void()>(
              [kv, rng]() mutable { kv->MixedOp(rng); });
        }
        auto next = std::make_shared<std::uint64_t>(kSimTickEveryNs);
        return std::function<void()>([kv, rng, sampler, next]() mutable {
          kv->MixedOp(rng);
          const std::uint64_t now = sim::Machine::Active()->NowNs();
          if (now >= *next) {
            sampler->Tick(now);
            *next = now + kSimTickEveryNs;
          }
        });
      });
}

TEST(Sampler, SimScheduleUnperturbedBySampling) {
  telemetry::SetEnabled(true);
  const auto off = RunSimWorkload(nullptr);
  Sampler sampler(&Registry::Global(), SamplerOptions{.capacity = 64});
  const auto on = RunSimWorkload(&sampler);
  telemetry::SetEnabled(false);

  ASSERT_GT(off.total_ops, 0u);
  ASSERT_GT(on.total_ops, 0u);
  EXPECT_GT(sampler.ticks(), 0u);  // the sampled run really sampled
  EXPECT_GT(sampler.CounterRate("locktable.wait_ns"), 0.0);

  EXPECT_EQ(on.duration_ns, off.duration_ns)
      << "sampling must not change the simulated clock";
  const double ratio = static_cast<double>(on.total_ops) /
                       static_cast<double>(off.total_ops);
  EXPECT_GE(ratio, 0.95) << "sampler-on ops " << on.total_ops
                         << " vs sampler-off ops " << off.total_ops;
  EXPECT_LE(ratio, 1.05);
}

// ---------------------------------------------------------------------------
// HTTP endpoint round trip.
// ---------------------------------------------------------------------------

std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(Serve, ScrapeRoundTrip) {
  telemetry::SetEnabled(true);
  Registry::Global().GetCounter("serve_test.ops").Add(5);
  Sampler sampler(&Registry::Global(), SamplerOptions{.capacity = 8});
  sampler.Tick(1);
  sampler.Tick(2);

  telemetry::TelemetryServer server;
  ASSERT_TRUE(server.Start({.port = 0, .sampler = &sampler}));
  ASSERT_GT(server.port(), 0);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.find("cna_serve_test_ops"), std::string::npos);

  const std::string series = HttpGet(server.port(), "/series");
  EXPECT_NE(series.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(series.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(series.find("\"ticks\":2"), std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "/healthz").find("ok"), std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/nonesuch").find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_GE(server.requests_served(), 4u);

  server.Stop();
  EXPECT_FALSE(server.running());
  telemetry::SetEnabled(false);
}

// A client that connects and sends nothing must not wedge the endpoint: the
// accept loop is a single thread, so before the receive timeout existed this
// test hung forever -- the silent connection parked HandleConnection in
// recv() and the /healthz probe never got accepted.
TEST(Serve, SilentClientCannotStarveHealthz) {
  telemetry::TelemetryServer server;
  ASSERT_TRUE(server.Start({.port = 0, .recv_timeout_ms = 100}));
  ASSERT_GT(server.port(), 0);

  // Connect and go silent.  The server's accept loop picks this connection
  // up first and must abandon it after the timeout.
  const int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(silent, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // A well-formed request issued while the silent connection is pending must
  // still be served (after at most the receive timeout).
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("ok"), std::string::npos);

  ::close(silent);
  server.Stop();
}

TEST(Serve, SeriesWithoutSamplerIs404) {
  telemetry::TelemetryServer server;
  ASSERT_TRUE(server.Start({.port = 0}));
  EXPECT_NE(HttpGet(server.port(), "/series").find("HTTP/1.0 404"),
            std::string::npos);
  server.Stop();
}

// Parking activity must be scrapeable: a timed park records the parks
// counter and the parked_ns histogram, and both surface in /metrics under
// Prometheus naming.
TEST(Serve, ParkingCountersAppearInMetrics) {
  telemetry::SetEnabled(true);
  parking::ParkingLot<RealPlatform> lot;
  int key = 0;
  // Validate passes, nobody unparks: the wait ends by timeout, which still
  // counts as a completed park with a measured parked_ns.
  lot.ParkConditionally(&key, [] { return true; },
                        /*timeout_ns=*/1'000'000);

  telemetry::TelemetryServer server;
  ASSERT_TRUE(server.Start({.port = 0}));
  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("cna_parking_parks"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("cna_parking_parked_ns"), std::string::npos)
      << metrics;
  server.Stop();
  telemetry::SetEnabled(false);
}

// Every route -- including 404s -- must send Content-Type and
// Content-Length, so curl/Prometheus/browsers never block on a missing
// framing header.  Content-Length is also checked against the actual body.
TEST(Serve, AllRoutesSendContentHeaders) {
  telemetry::SetEnabled(true);
  Sampler sampler(&Registry::Global(), SamplerOptions{.capacity = 8});
  sampler.Tick(1);
  telemetry::TelemetryServer server;
  ASSERT_TRUE(server.Start({.port = 0, .sampler = &sampler}));

  const char* routes[] = {"/",        "/healthz",      "/metrics",
                          "/json",    "/lockstat",     "/series",
                          "/lockdep", "/lockdep.dot",  "/lockdep.folded",
                          "/nonesuch"};
  for (const char* route : routes) {
    const std::string resp = HttpGet(server.port(), route);
    ASSERT_EQ(resp.rfind("HTTP/1.0 ", 0), 0u) << route;
    const std::size_t header_end = resp.find("\r\n\r\n");
    ASSERT_NE(header_end, std::string::npos) << route;
    const std::string head = resp.substr(0, header_end);
    EXPECT_NE(head.find("\r\nContent-Type: "), std::string::npos) << route;
    const std::size_t cl = head.find("\r\nContent-Length: ");
    ASSERT_NE(cl, std::string::npos) << route;
    const std::size_t body_size = resp.size() - (header_end + 4);
    EXPECT_EQ(std::stoull(head.substr(cl + 18)), body_size) << route;
  }
  // Spot-check content types: Prometheus text for /metrics, Graphviz for
  // the lock-order digraph.
  EXPECT_NE(HttpGet(server.port(), "/metrics")
                .find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/lockdep.dot")
                .find("Content-Type: text/vnd.graphviz"),
            std::string::npos);
  server.Stop();
  telemetry::SetEnabled(false);
}

// ---------------------------------------------------------------------------
// C surface round trip.
// ---------------------------------------------------------------------------

TEST(CApi, SamplerAndServeRoundTrip) {
  telemetry::SetEnabled(true);
  cna_sampler_rebaseline();
  Registry::Global().GetCounter("capi_test.ops").Add(100);
  cna_sampler_tick(1'000'000);
  Registry::Global().GetCounter("capi_test.ops").Add(100);
  cna_sampler_tick(2'000'000);
  EXPECT_GE(cna_sampler_ticks(), 2u);
  EXPECT_GT(cna_sampler_rate("capi_test.ops", 0), 0.0);

  char* series = cna_sampler_series_json(0);
  ASSERT_NE(series, nullptr);
  EXPECT_NE(std::string(series).find("\"schema_version\":1"),
            std::string::npos);
  std::free(series);

  const int port = cna_telemetry_serve_start(0);
  ASSERT_GT(port, 0);
  EXPECT_EQ(cna_telemetry_serve_start(0), port);  // idempotent while running
  const std::string metrics =
      HttpGet(static_cast<std::uint16_t>(port), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("cna_capi_test_ops"), std::string::npos);
  EXPECT_GE(cna_telemetry_serve_requests(), 1u);
  cna_telemetry_serve_stop();
  cna_sampler_stop();
  telemetry::SetEnabled(false);
}

// CNA's Section 7.1.1 counters are registry counters: the global sampler
// sees them with no export in between, and cna_telemetry_reset zeroes them.
TEST(CApi, CnaEventCountersReachTheSamplerAndReset) {
  using L = locks::CnaLock<RealPlatform, locks::CnaTelemetryConfig>;
  L lock;
  cna_sampler_rebaseline();
  cna_sampler_tick(1'000'000);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&lock] {
      for (int i = 0; i < 2'000; ++i) {
        locks::ScopedLock<L> g(lock);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  cna_sampler_tick(2'000'000);
  EXPECT_GT(cna_sampler_rate("cna.releases", 0), 0.0);

  cna_telemetry_reset();
  cna_sampler_rebaseline();
  char* json = cna_telemetry_export(CNA_TELEMETRY_FORMAT_JSON);
  ASSERT_NE(json, nullptr);
  const std::string doc(json);
  std::free(json);
  const std::string key = "\"cna.releases\":";
  const auto pos = doc.find(key);
  ASSERT_NE(pos, std::string::npos) << doc.substr(0, 400);
  EXPECT_EQ(std::stoull(doc.substr(pos + key.size())), 0u);
}

}  // namespace
}  // namespace cna
