// Saturation detection over the sampler's windows: is this lock collapsing?
//
// Avoiding Scalability Collapse by Restricting Concurrency (PAPERS.md, same
// authors as CNA) keys its admission decisions off observed throughput
// degradation as waiters pile up; the CNA paper itself argues from
// throughput-vs-threads trajectories.  This module computes that signal
// online: over the sampler's last W ticks it fits a slope to the throughput
// rate curve and compares the wait-time p99 of the window's late half
// against its early half, then raises named conditions:
//
//  * kThroughputCollapse -- throughput declining across the window (fitted
//    slope below the threshold) while wait p99 is not improving: the GCR
//    paper's "more waiters, less work" signature.  Requires a minimum rate
//    so an idle lock (rate decaying to zero because traffic left) does not
//    read as collapse.
//  * kWaitSpike          -- the newest tick's p99 wait jumped a configured
//    factor above the window median: the leading edge of a convoy.
//  * kSaturated          -- both at once: the subscribe signal a concurrency
//    -restriction policy acts on (ROADMAP: passivate surplus waiters).
//
// Surfaced three ways: Active()/Trips() accessors, registry counters
// ("saturation.<condition>.trips" -- visible in every exporter and in
// cna_top), and an optional subscriber callback / stderr log line.  The
// detector only reads sampler state and plain std::atomic cells, so -- like
// everything in src/telemetry/ -- it is invisible to the simulator's cost
// model and cannot shift an explored schedule.
#ifndef CNA_TELEMETRY_SATURATION_H_
#define CNA_TELEMETRY_SATURATION_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/sampler.h"

namespace cna::telemetry {

enum class Condition : int {
  kThroughputCollapse = 0,
  kWaitSpike = 1,
  kSaturated = 2,
};
inline constexpr int kConditionCount = 3;

inline const char* ConditionName(Condition c) {
  switch (c) {
    case Condition::kThroughputCollapse:
      return "throughput_collapse";
    case Condition::kWaitSpike:
      return "wait_spike";
    case Condition::kSaturated:
      return "saturated";
  }
  return "unknown";
}

struct SaturationOptions {
  // Throughput signal: a counter name, or a histogram name whose observation
  // count ticks once per operation (any ".wait_ns" family metric).
  std::string throughput_metric = "locktable.wait_ns";
  // Wait-distribution signal for the p99 heuristics.
  std::string wait_histogram = "locktable.wait_ns";
  // Ticks per evaluation window.  Needs >= 4 so the two half-window p99
  // comparisons see two ticks each.
  std::size_t window = 8;
  // Collapse when the window-normalized slope (rate change per tick, as a
  // fraction of the window's mean rate) falls below this.  -0.05 means
  // "losing >= 5% of mean throughput per tick, monotonically-ish".
  double collapse_slope = -0.05;
  // Ignore windows whose mean rate is below this (ops/s): an idle or
  // draining lock is not a collapsing one.
  double min_rate_per_sec = 1000.0;
  // Spike when the newest tick's p99 exceeds window-median p99 by this
  // factor (and the median is nonzero).
  double wait_spike_factor = 4.0;
  // Emit one stderr line per trip (off in tests and benches by default).
  bool log = false;
};

// One raised condition, as delivered to subscribers.
struct ConditionEvent {
  Condition condition = Condition::kThroughputCollapse;
  std::uint64_t ts_ns = 0;       // newest sample's timestamp
  double rate_per_sec = 0.0;     // window mean throughput
  double slope = 0.0;            // normalized per-tick slope
  std::uint64_t wait_p99_ns = 0; // newest tick's p99
};

class SaturationDetector {
 public:
  explicit SaturationDetector(Sampler& sampler, SaturationOptions options = {})
      : sampler_(sampler), options_(std::move(options)) {
    if (options_.window < 4) {
      options_.window = 4;
    }
    for (int i = 0; i < kConditionCount; ++i) {
      trip_counters_[static_cast<std::size_t>(i)] =
          &Registry::Global().GetCounter(
              std::string("saturation.") +
              ConditionName(static_cast<Condition>(i)) + ".trips");
    }
  }

  // Evaluates the sampler's current window; call once per tick (cna_top and
  // the serve loop do; a manual-tick driver calls it right after Tick()).
  // Returns the set of conditions active after this evaluation.
  std::vector<Condition> Evaluate() {
    const std::vector<Sample> window = sampler_.Window(options_.window);
    std::vector<RatePoint> rates =
        sampler_.RateCurve(options_.throughput_metric, options_.window);

    bool collapse = false;
    bool spike = false;
    ConditionEvent ev;
    if (!window.empty()) {
      ev.ts_ns = window.back().ts_ns;
    }

    if (rates.size() >= 4) {
      double mean = 0.0;
      for (const RatePoint& p : rates) {
        mean += p.per_sec;
      }
      mean /= static_cast<double>(rates.size());
      ev.rate_per_sec = mean;

      // Least-squares slope of rate vs tick index, normalized by the mean
      // rate: units are "fraction of mean throughput lost per tick".
      const double n = static_cast<double>(rates.size());
      double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
      for (std::size_t i = 0; i < rates.size(); ++i) {
        const double x = static_cast<double>(i);
        sx += x;
        sy += rates[i].per_sec;
        sxx += x * x;
        sxy += x * rates[i].per_sec;
      }
      const double denom = n * sxx - sx * sx;
      const double slope = denom == 0.0 ? 0.0 : (n * sxy - sx * sy) / denom;
      ev.slope = mean > 0.0 ? slope / mean : 0.0;

      // Wait trend: p99 of the window's late half vs its early half.
      const std::size_t half = window.size() / 2;
      HistogramSnapshot early, late;
      for (std::size_t i = 0; i < window.size(); ++i) {
        for (const HistogramSample& h : window[i].delta.histograms) {
          if (h.name == options_.wait_histogram) {
            (i < half ? early : late).Merge(h.total);
          }
        }
      }
      const bool wait_not_improving =
          late.count == 0 || early.count == 0 || late.P99() >= early.P99();
      collapse = mean >= options_.min_rate_per_sec &&
                 ev.slope <= options_.collapse_slope && wait_not_improving;
    }

    // Spike: newest tick's p99 against the window median of per-tick p99s.
    {
      std::vector<std::uint64_t> p99s;
      for (const Sample& s : window) {
        for (const HistogramSample& h : s.delta.histograms) {
          if (h.name == options_.wait_histogram && h.total.count > 0) {
            p99s.push_back(h.total.P99());
          }
        }
      }
      if (p99s.size() >= 4) {
        ev.wait_p99_ns = p99s.back();
        const std::uint64_t median = WindowMedian(p99s);
        spike = median > 0 &&
                static_cast<double>(p99s.back()) >=
                    options_.wait_spike_factor * static_cast<double>(median);
      }
    }

    // Rising edges are recorded under mu_ and announced after releasing it,
    // so a subscriber may query the detector.  Indexed by Condition.
    const bool now_active[kConditionCount] = {collapse, spike,
                                              collapse && spike};
    std::vector<ConditionEvent> raised;
    std::vector<std::function<void(const ConditionEvent&)>> subscribers;
    std::vector<Condition> active;
    {
      std::lock_guard<std::mutex> g(mu_);
      for (int i = 0; i < kConditionCount; ++i) {
        const auto c = static_cast<std::size_t>(i);
        if (now_active[c] && !active_[c]) {
          ++trips_[c];
          trip_counters_[c]->Add(1);
          ev.condition = static_cast<Condition>(i);
          raised.push_back(ev);
        }
        active_[c] = now_active[c];
        if (active_[c]) {
          active.push_back(static_cast<Condition>(i));
        }
      }
      if (!raised.empty()) {
        subscribers = subscribers_;
      }
    }
    for (const ConditionEvent& e : raised) {
      for (const auto& cb : subscribers) {
        cb(e);
      }
      if (options_.log) {
        std::fprintf(stderr,
                     "[cna-saturation] %s: rate %.0f/s slope %+.3f/tick "
                     "p99 %llu ns\n",
                     ConditionName(e.condition), e.rate_per_sec, e.slope,
                     static_cast<unsigned long long>(e.wait_p99_ns));
      }
    }
    return active;
  }

  bool Active(Condition c) const {
    std::lock_guard<std::mutex> g(mu_);
    return active_[static_cast<std::size_t>(static_cast<int>(c))];
  }

  // Rising edges seen (also mirrored into "saturation.<name>.trips").
  std::uint64_t Trips(Condition c) const {
    std::lock_guard<std::mutex> g(mu_);
    return trips_[static_cast<std::size_t>(static_cast<int>(c))];
  }

  // Called on every rising edge, on the thread running Evaluate() and with
  // no detector lock held.  This is the hook the ROADMAP's
  // concurrency-restriction item subscribes its admission policy to.
  void Subscribe(std::function<void(const ConditionEvent&)> callback) {
    std::lock_guard<std::mutex> g(mu_);
    subscribers_.push_back(std::move(callback));
  }

  const SaturationOptions& options() const { return options_; }

  // True median: mean of the two middle elements on even lengths.  The
  // obvious sorted[n/2] picks the upper-middle element, which on a window
  // whose upper half is spiking drags the baseline up with the spike and
  // suppresses kWaitSpike exactly when it matters.
  static std::uint64_t WindowMedian(std::vector<std::uint64_t> values) {
    if (values.empty()) {
      return 0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return (values[(n - 1) / 2] + values[n / 2]) / 2;
  }

 private:
  Sampler& sampler_;
  SaturationOptions options_;

  mutable std::mutex mu_;
  bool active_[kConditionCount] = {};
  std::uint64_t trips_[kConditionCount] = {};
  Counter* trip_counters_[kConditionCount] = {};
  std::vector<std::function<void(const ConditionEvent&)>> subscribers_;
};

}  // namespace cna::telemetry

#endif  // CNA_TELEMETRY_SATURATION_H_
