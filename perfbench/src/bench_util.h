// Shared plumbing of the perfbench binary: run configuration, the metric
// report every workload fills in, a mergeable latency histogram, and the
// timing helpers.  Nothing here touches the library under test.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of one run
  bool trace = false;     // false: end-to-end metrics; true: per-layer metrics
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: metrics, operation accounting, and output checks.
// A failed operation is also a failed check, so `correct` covers both.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;  // human-readable lines, printed as "# ..."

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(bool ok, std::string what) {
    if (!ok) {
      check_failures.push_back(std::move(what));
    }
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  bool correct() const { return check_failures.empty() && failed == 0; }
};

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Latency histogram: exact 1 ns buckets below 64 ns, then 32 sub-buckets
// per power of two (3% wide).  Percentiles interpolate linearly inside the
// bucket that holds the rank, so a distribution concentrated on a few
// integer values still yields a percentile that moves with the sample mix.
// (telemetry::Histogram's power-of-two buckets are too coarse for the
// bounds in BENCHMARK.json, and it belongs to a layer this benchmark
// measures.)
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kExact = 2u << kSubBits;  // 64
  static constexpr std::size_t kBuckets =
      kExact + static_cast<std::size_t>(64 - (kSubBits + 1)) * (1u << kSubBits);

  Histogram() : buckets_(kBuckets, 0) {}

  void Add(std::uint64_t v) {
    ++buckets_[Index(v)];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  // q in [0, 1].  Returns 0 for an empty histogram.
  double Percentile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(buckets_[i]);
      if (c > 0 && cum + c >= rank) {
        const double frac = (rank - cum) / c;
        return static_cast<double>(Lower(i)) +
               frac * static_cast<double>(Width(i));
      }
      cum += c;
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  // Buckets at and above kExact: octave o (2^o <= v < 2^(o+1)) is split
  // into 2^kSubBits equal parts.
  static int Octave(std::size_t i) {
    return kSubBits + 1 + static_cast<int>((i - kExact) >> kSubBits);
  }
  static std::size_t Index(std::uint64_t v) {
    if (v < kExact) {
      return static_cast<std::size_t>(v);
    }
    const int octave = std::bit_width(v) - 1;
    const std::uint64_t sub = (v >> (octave - kSubBits)) & ((1u << kSubBits) - 1);
    return kExact +
           (static_cast<std::size_t>(octave - kSubBits - 1) << kSubBits) +
           static_cast<std::size_t>(sub);
  }
  static std::uint64_t Lower(std::size_t i) {
    if (i < kExact) {
      return i;
    }
    const std::uint64_t sub = (i - kExact) & ((1u << kSubBits) - 1);
    return ((1ull << kSubBits) + sub) << (Octave(i) - kSubBits);
  }
  static std::uint64_t Width(std::size_t i) {
    return i < kExact ? 1 : 1ull << (Octave(i) - kSubBits);
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// q-quantile, q in [0, 1], interpolating between neighbouring values.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Span durations of a traced run, recorded by the benchmark around its own
// calls into the layer under test: the lock call (handle checkout plus
// wait), the hold, the unlock call, and the time outside the lock between
// one op's unlock and the next op's lock call.
struct alignas(64) SpanSet {
  Histogram lock, hold, unlock, outside;
  std::uint64_t last_unlocked = 0;  // 0 = no op finished yet
};

// Stamps the four boundaries of one op.  Clock::Now() is the time source:
// steady_clock on real threads, the simulated clock on the simulator.  With
// kTraced false every call compiles to nothing.
template <bool kTraced, typename Clock>
class SpanTimer {
 public:
  explicit SpanTimer(SpanSet* spans) : spans_(spans) {}

  void LockStart() {
    if constexpr (kTraced) {
      t_lock_ = Clock::Now();
      if (spans_->last_unlocked != 0) {
        spans_->outside.Add(t_lock_ - spans_->last_unlocked);
      }
    }
  }
  void Locked() {
    if constexpr (kTraced) {
      t_locked_ = Clock::Now();
      spans_->lock.Add(t_locked_ - t_lock_);
    }
  }
  void UnlockStart() {
    if constexpr (kTraced) {
      t_unlock_ = Clock::Now();
      spans_->hold.Add(t_unlock_ - t_locked_);
    }
  }
  void Unlocked() {
    if constexpr (kTraced) {
      const std::uint64_t t = Clock::Now();
      spans_->unlock.Add(t - t_unlock_);
      spans_->last_unlocked = t;
    }
  }

 private:
  SpanSet* spans_;
  std::uint64_t t_lock_ = 0, t_locked_ = 0, t_unlock_ = 0;
};

struct WallClock {
  static std::uint64_t Now() { return NowNs(); }
};

inline void MergeSpans(const SpanSet& from, SpanSet& into) {
  into.lock.Merge(from.lock);
  into.hold.Merge(from.hold);
  into.unlock.Merge(from.unlock);
  into.outside.Merge(from.outside);
}

// Adds the span percentiles every traced run reports.
inline void AddSpanMetrics(const SpanSet& s, Result& r) {
  r.Add("span.lock_ns.p50", s.lock.Percentile(0.50), "ns");
  r.Add("span.lock_ns.p99", s.lock.Percentile(0.99), "ns");
  r.Add("span.hold_ns.p50", s.hold.Percentile(0.50), "ns");
  r.Add("span.unlock_ns.p50", s.unlock.Percentile(0.50), "ns");
  r.Add("span.outside_ns.p50", s.outside.Percentile(0.50), "ns");
}

// Peak resident set of the process so far, in MiB.
double PeakRssMib();

// Builds the workload state `reps` times and returns the median build time
// in seconds.  `teardown` (untimed) drops the previous state first, so the
// last build is the one the run uses.
template <typename Teardown, typename Setup>
double MedianSetupSeconds(int reps, Teardown&& teardown, Setup&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    teardown();
    const std::uint64_t t0 = NowNs();
    setup();
    times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return Median(std::move(times));
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
