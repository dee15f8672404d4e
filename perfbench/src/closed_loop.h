// Closed-loop load generator for the real-thread workloads.
//
// Each worker thread issues its next op as soon as the previous one returns.
// The calling thread only keeps time: after a warm-up it advances a shared
// window index at fixed wall-clock intervals, and workers account each op to
// the window current when the op starts.  Short windows let the end-to-end
// metrics come from the quiet part of a run (see AddLoopMetrics).
//
// Untraced runs time one op in 2^kSampleShift (two clock reads per sampled
// op would otherwise add a third to a ~55 ns C-API op).  Traced runs stamp
// every op's span boundaries instead.
#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "platform/thread_context.h"

namespace perfbench {

struct LoopOptions {
  int virtual_sockets = 2;
  double warmup_s = 0.2;
  double measure_s = 1.0;
  int windows = 1;
};

struct LoopRun {
  std::vector<double> window_ops_per_s;
  std::vector<Histogram> window_latency;  // sampled op latency, all threads
  std::vector<SpanSet> spans;             // per thread; traced runs only
  std::uint64_t ops = 0;                  // all ops, warm-up included
  std::uint64_t failed = 0;
  std::uint64_t latency_samples = 0;
  double measured_ops_per_s = 0.0;  // whole measured interval
};

inline constexpr int kSampleShift = 5;

// Worker must provide `bool Op()` and `bool TracedOp(SpanSet&)`, returning
// false when the op failed.  An exception out of an op counts as a failure.
template <bool kTraced, typename Worker>
LoopRun RunClosedLoop(std::vector<Worker>& workers, const LoopOptions& opt) {
  const int threads = static_cast<int>(workers.size());
  const int windows = opt.windows;
  // -2: not started, -1: warm-up, 0..windows-1: measuring, windows: stop.
  alignas(64) std::atomic<int> window{-2};
  std::atomic<int> ready{0};

  LoopRun run;
  std::vector<std::vector<std::uint64_t>> ops(
      threads, std::vector<std::uint64_t>(windows + 1, 0));
  std::vector<std::vector<Histogram>> lat(threads);
  if constexpr (!kTraced) {
    for (auto& v : lat) {
      v.resize(windows);
    }
  }
  run.spans.resize(kTraced ? threads : 0);
  std::vector<std::uint64_t> failed(threads, 0);

  std::vector<std::thread> pool;
  // Stops and joins the workers; the destructor covers early exits such as
  // a failed thread start.
  struct StopAndJoin {
    std::atomic<int>& window;
    int stop;
    std::vector<std::thread>& pool;
    void Finish() {
      window.store(stop, std::memory_order_release);
      for (std::thread& th : pool) {
        if (th.joinable()) {
          th.join();
        }
      }
    }
    ~StopAndJoin() { Finish(); }
  } joiner{window, windows, pool};
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      cna::platform::ThreadContext::Current().SetVirtualSocket(
          t % opt.virtual_sockets);
      Worker& w = workers[t];
      // Counts stay in registers and are flushed per window, so workers
      // never write a line another worker reads.
      std::uint64_t count = 0, fails = 0;
      int cur = -1;
      std::uint32_t n = 0;
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (window.load(std::memory_order_acquire) < -1) {
        std::this_thread::yield();
      }
      for (;;) {
        const int win = window.load(std::memory_order_relaxed);
        if (win != cur) {
          ops[t][cur + 1] += count;
          count = 0;
          cur = win;
          if (win >= windows) {
            break;
          }
        }
        bool ok = false;
        try {
          if constexpr (kTraced) {
            ok = w.TracedOp(run.spans[t]);
          } else if (win >= 0 && (++n & ((1u << kSampleShift) - 1)) == 0) {
            const std::uint64_t t0 = NowNs();
            ok = w.Op();
            lat[t][win].Add(NowNs() - t0);
          } else {
            ok = w.Op();
          }
        } catch (const std::exception&) {
          ok = false;
        }
        ++count;
        if (!ok) {
          ++fails;
        }
      }
      failed[t] = fails;
    });
  }

  using Clock = std::chrono::steady_clock;
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  window.store(-1, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.warmup_s));
  const auto w_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.measure_s / windows));
  std::vector<Clock::time_point> edge{Clock::now()};
  window.store(0, std::memory_order_release);
  for (int i = 0; i < windows; ++i) {
    std::this_thread::sleep_until(edge.front() + w_len * (i + 1));
    edge.push_back(Clock::now());
    window.store(i + 1, std::memory_order_release);
  }
  joiner.Finish();

  std::uint64_t measured_ops = 0;
  for (int i = 0; i < windows; ++i) {
    std::uint64_t win_ops = 0;
    Histogram merged;
    for (int t = 0; t < threads; ++t) {
      win_ops += ops[t][i + 1];
      if constexpr (!kTraced) {
        merged.Merge(lat[t][i]);
      }
    }
    measured_ops += win_ops;
    const double secs =
        std::chrono::duration<double>(edge[i + 1] - edge[i]).count();
    run.window_ops_per_s.push_back(static_cast<double>(win_ops) / secs);
    run.latency_samples += merged.count();
    if constexpr (!kTraced) {
      run.window_latency.push_back(std::move(merged));
    }
  }
  run.measured_ops_per_s =
      static_cast<double>(measured_ops) /
      std::chrono::duration<double>(edge.back() - edge.front()).count();
  for (int t = 0; t < threads; ++t) {
    for (std::uint64_t c : ops[t]) {
      run.ops += c;
    }
    run.failed += failed[t];
  }
  return run;
}

// End-to-end metrics come from the quiet windows of an untraced run: the
// 95th percentile of window throughput and the 5th percentile of the
// per-window latency percentiles.  On a small shared host, other tenants'
// load slows a one-thread loop by up to a third for seconds at a time; a
// median would report which phase they were in, while the quiet windows
// estimate the program's own speed.
inline constexpr double kQuietQuantile = 0.95;
inline constexpr int kWindows = 300;

// Untraced run of `seconds`: fills every end-to-end metric.
template <typename Worker>
void MeasureEndToEnd(std::vector<Worker>& workers, int virtual_sockets,
                     double seconds, double setup_s,
                     std::size_t lock_state_bytes, Result& r) {
  const LoopRun run = RunClosedLoop<false>(
      workers, {.virtual_sockets = virtual_sockets,
                .warmup_s = std::min(0.5, 0.05 * seconds),
                .measure_s = seconds,
                .windows = kWindows});
  r.attempted = run.ops;
  r.failed = run.failed;
  std::vector<double> p50, p99;
  for (const Histogram& h : run.window_latency) {
    p50.push_back(h.Percentile(0.50));
    p99.push_back(h.Percentile(0.99));
  }
  r.Add("setup_s", setup_s, "s");
  r.Add("ops_per_s", Quantile(run.window_ops_per_s, kQuietQuantile), "1/s");
  r.Add("op_p50_ns", Quantile(p50, 1.0 - kQuietQuantile), "ns");
  r.Add("op_p99_ns", Quantile(p99, 1.0 - kQuietQuantile), "ns");
  r.Add("ok_op_share",
        static_cast<double>(run.ops - run.failed) /
            static_cast<double>(run.ops),
        "share");
  r.Add("peak_rss_mib", PeakRssMib(), "MiB");
  r.Add("lock_state_bytes", static_cast<double>(lock_state_bytes), "B");
  r.Note("latency samples: " + std::to_string(run.latency_samples) +
         " (one op in " + std::to_string(1u << kSampleShift) + " timed, " +
         std::to_string(kWindows) + " windows)");
  const std::vector<double>& w = run.window_ops_per_s;
  r.Note("window ops/s: min " +
         std::to_string(static_cast<long long>(Quantile(w, 0.0))) +
         ", median " + std::to_string(static_cast<long long>(Median(w))) +
         ", max " + std::to_string(static_cast<long long>(Quantile(w, 1.0))));
}

// Traced run of `seconds`: the workload untraced, then with every op's span
// boundaries stamped, for half the time each.  Fills the span metrics and
// trace.overhead_share.
template <typename Worker>
void MeasureTraced(std::vector<Worker>& workers, int virtual_sockets,
                   double seconds, Result& r) {
  const LoopOptions phase{.virtual_sockets = virtual_sockets,
                          .warmup_s = std::min(0.2, 0.05 * seconds),
                          .measure_s = 0.45 * seconds,
                          .windows = 1};
  const LoopRun plain = RunClosedLoop<false>(workers, phase);
  const LoopRun traced = RunClosedLoop<true>(workers, phase);
  r.attempted = plain.ops + traced.ops;
  r.failed = plain.failed + traced.failed;
  SpanSet spans;
  for (const SpanSet& s : traced.spans) {
    MergeSpans(s, spans);
  }
  AddSpanMetrics(spans, r);
  r.Add("trace.overhead_share",
        1.0 - traced.measured_ops_per_s / plain.measured_ops_per_s, "share");
}

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
