// GCR as a lock-table admission policy.
//
// locks/gcr.h gives one lock the ability to passivate surplus waiters; this
// header threads that through the table layers:
//
//   * GcrLockTable<P, L>      = LockTable with GCR-wrapped stripes.  Because
//     GcrLock satisfies Lockable (and TryLockable when L does), the same
//     composition works for every table flavor: CombiningTable over a
//     GcrLockTable batches on top of restricted stripes (reach the stripes
//     via .table()), and ResizableLockTable<P, GcrLock<P, L>> reshards a
//     restricted namespace (tests/gcr_test.cc instantiates both).
//   * GcrAdmissionController  = the reaction half of the telemetry loop.  It
//     subscribes to SaturationDetector (PR 7 built the detection half) and,
//     on a kSaturated rising edge, engages restriction on the hot stripes --
//     chosen by the table's own per-stripe contention counters, not by any
//     hardcoded thread count.  Poll() after each detector Evaluate() lifts
//     restriction again once the condition has stayed clear for a few
//     evaluations (the detector only signals rising edges, so the falling
//     edge is the controller's job).
//
// The controller runs on whatever thread calls the detector's Evaluate()
// (sampler tick thread, cna_top, a bench loop); Engage()/Disengage() on a
// GcrLock are safe against concurrent Lock/Unlock traffic, so no
// stop-the-world anything.
#ifndef CNA_LOCKTABLE_GCR_TABLE_H_
#define CNA_LOCKTABLE_GCR_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "locks/gcr.h"
#include "locktable/lock_table.h"
#include "telemetry/saturation.h"

namespace cna::locktable {

// The table mode: every stripe is a GCR-wrapped L.
template <typename P, locks::Lockable L, typename Cfg = locks::GcrDefaultConfig>
using GcrLockTable = LockTable<P, locks::GcrLock<P, L, Cfg>>;

// Any table whose stripes expose the GCR restriction surface.  LockTable
// (and so GcrLockTable) satisfies this directly; for a CombiningTable over
// GCR stripes, pass .table().
template <typename T>
concept GcrStripedTable = requires(T& t, std::size_t s) {
  { t.stripes() } -> std::convertible_to<std::size_t>;
  t.StripeLock(s).Engage();
  t.StripeLock(s).Disengage();
  { t.StripeStats(s) } -> std::convertible_to<const StripeCounters*>;
};

struct GcrAdmissionOptions {
  // A stripe is "hot" (worth restricting) when it carries at least this
  // fraction of the table's total contended acquisitions at event time.
  // When the table was built without collect_stats -- or nothing has
  // contended yet -- every stripe engages.
  double hot_stripe_share = 0.05;
  // Active-set size to start restriction at on each engage.
  std::uint32_t active_limit = 8;
  // Consecutive Poll() calls with kSaturated clear before disengaging.
  int quiet_polls = 4;
};

template <GcrStripedTable Table>
class GcrAdmissionController {
 public:
  // Subscribes immediately.  The detector holds a reference to this
  // controller from then on, so the controller must outlive the detector's
  // last Evaluate().
  GcrAdmissionController(Table& table, telemetry::SaturationDetector& detector,
                         GcrAdmissionOptions options = {})
      : table_(table), detector_(detector), options_(options) {
    detector_.Subscribe([this](const telemetry::ConditionEvent& ev) {
      if (ev.condition == telemetry::Condition::kSaturated) {
        OnSaturation(ev);
      }
    });
  }

  GcrAdmissionController(const GcrAdmissionController&) = delete;
  GcrAdmissionController& operator=(const GcrAdmissionController&) = delete;

  // Call after each detector Evaluate(): handles the falling edge.
  void Poll() {
    // Asked before taking mu_, so this controller never holds mu_ while it
    // waits for the detector's lock.  Evaluate() calls OnSaturation with no
    // detector lock held, so the two locks are never nested either way.
    const bool saturated = detector_.Active(telemetry::Condition::kSaturated);
    std::lock_guard<std::mutex> g(mu_);
    if (engaged_stripes_.empty()) {
      return;
    }
    if (saturated) {
      quiet_ = 0;
      return;
    }
    if (++quiet_ >= options_.quiet_polls) {
      DisengageLocked();
    }
  }

  // Manual override (also used by Disengage-on-shutdown paths).
  void Disengage() {
    std::lock_guard<std::mutex> g(mu_);
    DisengageLocked();
  }

  bool engaged() const {
    std::lock_guard<std::mutex> g(mu_);
    return !engaged_stripes_.empty();
  }
  std::size_t engaged_stripes() const {
    std::lock_guard<std::mutex> g(mu_);
    return engaged_stripes_.size();
  }
  std::uint64_t saturation_events() const {
    return events_.load(std::memory_order_relaxed);
  }

 private:
  void OnSaturation(const telemetry::ConditionEvent&) {
    events_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(mu_);
    quiet_ = 0;
    if (!engaged_stripes_.empty()) {
      return;  // already restricting; let the active engage ride
    }
    const std::size_t n = table_.stripes();
    // Total contended load, to rank stripes by their share of it.
    std::uint64_t total_contended = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (const StripeCounters* c = table_.StripeStats(s)) {
        total_contended += c->contended.load(std::memory_order_relaxed);
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      const StripeCounters* c = table_.StripeStats(s);
      bool hot = true;
      if (c != nullptr && total_contended > 0) {
        const auto contended = static_cast<double>(
            c->contended.load(std::memory_order_relaxed));
        hot = contended >=
              options_.hot_stripe_share * static_cast<double>(total_contended);
      }
      if (hot) {
        auto& lock = table_.StripeLock(s);
        lock.SetActiveLimit(options_.active_limit);
        lock.Engage();
        engaged_stripes_.push_back(s);
      }
    }
  }

  void DisengageLocked() {
    for (const std::size_t s : engaged_stripes_) {
      if (s < table_.stripes()) {
        table_.StripeLock(s).Disengage();
      }
    }
    engaged_stripes_.clear();
    quiet_ = 0;
  }

  Table& table_;
  telemetry::SaturationDetector& detector_;
  GcrAdmissionOptions options_;

  mutable std::mutex mu_;
  std::vector<std::size_t> engaged_stripes_;
  int quiet_ = 0;
  std::atomic<std::uint64_t> events_{0};
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_GCR_TABLE_H_
