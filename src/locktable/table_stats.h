// Optional per-stripe occupancy/contention statistics for the lock table.
//
// Follows the cna_stats.h pattern: counters are diagnostics, not simulated
// state -- they live in plain std::atomic cells (never P::Atomic), so the
// simulator charges nothing for them and the default stats-off path carries
// zero instrumentation.  When the table's lock type is a CNA configured with
// kCollectStats, the summary additionally snapshots the process-global CNA
// event counters (cna_stats.h), tying per-stripe contention back to the
// paper's Section 7.1.1 queue-alteration statistics.
#ifndef CNA_LOCKTABLE_TABLE_STATS_H_
#define CNA_LOCKTABLE_TABLE_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "locks/cna_stats.h"
#include "locktable/held_ledger.h"

namespace cna::locktable {

// One cell per stripe, allocated only when LockTableOptions::collect_stats is
// set.  Padded so hot stripes do not false-share their counters.
struct alignas(64) StripeCounters {
  // Successful exclusive acquisitions of this stripe (every acquisition of
  // a mutex stripe).
  std::atomic<std::uint64_t> acquisitions{0};
  // Exclusive acquisitions that found the stripe already held (detected by a
  // failed try-lock on the way in; a lower bound on true contention).
  std::atomic<std::uint64_t> contended{0};
  // Try-lock calls, in either mode, that returned false to the caller.
  std::atomic<std::uint64_t> trylock_failures{0};
  // Acquisitions made on behalf of a multi-key (MultiGuard) transaction.
  std::atomic<std::uint64_t> multi_key{0};
  // The same two counts for shared acquisitions (reader-writer stripes).
  std::atomic<std::uint64_t> shared_acquisitions{0};
  std::atomic<std::uint64_t> shared_contended{0};
};
static_assert(sizeof(StripeCounters) == 64, "one cache line per stripe");

// Aggregated view over all stripes plus the global CNA event counters.
// Acquisition counts cover both modes.
struct TableStatsSummary {
  std::uint64_t total_acquisitions = 0;
  std::uint64_t contended_acquisitions = 0;
  std::uint64_t trylock_failures = 0;
  std::uint64_t multi_key_acquisitions = 0;
  // The shared-mode part of the first two counts (reader-writer stripes).
  std::uint64_t shared_acquisitions = 0;
  std::uint64_t shared_contended = 0;

  // Occupancy: how much of the namespace the workload actually touched.
  std::size_t stripes = 0;
  std::size_t occupied_stripes = 0;       // stripes with >= 1 acquisition
  std::uint64_t max_stripe_acquisitions = 0;  // hottest stripe

  // Full snapshot of locks::GlobalCnaCounters() (meaningful when the table's
  // lock is a CNA variant with Cfg::kCollectStats).  The whole struct is
  // snapshotted so counters added to CnaEventCounters cannot silently drift
  // out of this summary (fifo_handovers/shuffle_skips/queue_alterations/
  // waiters_moved used to be dropped here).
  locks::CnaCountersSnapshot cna;

  double Occupancy() const {
    return stripes == 0 ? 0.0
                        : static_cast<double>(occupied_stripes) /
                              static_cast<double>(stripes);
  }
  double ContentionRate() const {
    return total_acquisitions == 0
               ? 0.0
               : static_cast<double>(contended_acquisitions) /
                     static_cast<double>(total_acquisitions);
  }
};

// The per-table counter array.  Methods are no-ops when stats are disabled
// (cells_ == nullptr), so call sites need no branching of their own.
class TableStats {
 public:
  TableStats() = default;

  void Enable(std::size_t stripes) {
    stripes_ = stripes;
    cells_ = std::make_unique<StripeCounters[]>(stripes);
  }

  bool enabled() const { return cells_ != nullptr; }

  template <HoldMode M>
  void OnAcquire(std::size_t stripe, bool was_contended, bool multi_key) {
    if (cells_ == nullptr) {
      return;
    }
    StripeCounters& c = cells_[stripe];
    constexpr bool kShared = M == HoldMode::kShared;
    (kShared ? c.shared_acquisitions : c.acquisitions)
        .fetch_add(1, std::memory_order_relaxed);
    if (was_contended) {
      (kShared ? c.shared_contended : c.contended)
          .fetch_add(1, std::memory_order_relaxed);
    }
    if (multi_key) {
      c.multi_key.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void OnTryLockFailure(std::size_t stripe) {
    if (cells_ != nullptr) {
      cells_[stripe].trylock_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const StripeCounters* stripe(std::size_t s) const {
    return cells_ == nullptr ? nullptr : &cells_[s];
  }

  TableStatsSummary Summarize() const {
    TableStatsSummary out;
    out.stripes = stripes_;
    for (std::size_t s = 0; cells_ != nullptr && s < stripes_; ++s) {
      const std::uint64_t shared =
          cells_[s].shared_acquisitions.load(std::memory_order_relaxed);
      const std::uint64_t shared_contended =
          cells_[s].shared_contended.load(std::memory_order_relaxed);
      const std::uint64_t acq =
          cells_[s].acquisitions.load(std::memory_order_relaxed) + shared;
      out.total_acquisitions += acq;
      out.contended_acquisitions +=
          cells_[s].contended.load(std::memory_order_relaxed) +
          shared_contended;
      out.trylock_failures +=
          cells_[s].trylock_failures.load(std::memory_order_relaxed);
      out.multi_key_acquisitions +=
          cells_[s].multi_key.load(std::memory_order_relaxed);
      out.shared_acquisitions += shared;
      out.shared_contended += shared_contended;
      if (acq > 0) {
        ++out.occupied_stripes;
      }
      if (acq > out.max_stripe_acquisitions) {
        out.max_stripe_acquisitions = acq;
      }
    }
    out.cna = locks::SnapshotCnaCounters();
    return out;
  }

 private:
  std::size_t stripes_ = 0;
  std::unique_ptr<StripeCounters[]> cells_;
};

// Read/write view of a reader-writer table's summary (RwLockTable's
// StatsSummary): reads are its shared acquisitions, writes the rest.
struct RwTableStatsSummary {
  explicit RwTableStatsSummary(const TableStatsSummary& s)
      : read_acquisitions(s.shared_acquisitions),
        write_acquisitions(s.total_acquisitions - s.shared_acquisitions),
        read_contended(s.shared_contended),
        writer_waits(s.contended_acquisitions - s.shared_contended),
        trylock_failures(s.trylock_failures),
        multi_key_acquisitions(s.multi_key_acquisitions),
        stripes(s.stripes),
        occupied_stripes(s.occupied_stripes),
        max_stripe_acquisitions(s.max_stripe_acquisitions) {}

  std::uint64_t read_acquisitions;
  std::uint64_t write_acquisitions;
  // Read acquisitions whose try-probe failed (a writer held or was waiting
  // on the stripe; a lower bound on true read-side blocking).
  std::uint64_t read_contended;
  // Write acquisitions whose try-probe failed -- the writer had to wait for
  // readers to drain or for another writer.
  std::uint64_t writer_waits;
  std::uint64_t trylock_failures;
  std::uint64_t multi_key_acquisitions;  // exclusive, via MultiGuard

  std::size_t stripes;
  std::size_t occupied_stripes;  // stripes with >= 1 acquisition
  std::uint64_t max_stripe_acquisitions;

  std::uint64_t TotalAcquisitions() const {
    return read_acquisitions + write_acquisitions;
  }
  // Fraction of acquisitions that were reads -- the "read-mostly" dial.
  double ReadShare() const {
    const std::uint64_t total = TotalAcquisitions();
    return total == 0 ? 0.0
                      : static_cast<double>(read_acquisitions) /
                            static_cast<double>(total);
  }
  double WriterWaitRate() const {
    return write_acquisitions == 0
               ? 0.0
               : static_cast<double>(writer_waits) /
                     static_cast<double>(write_acquisitions);
  }
};

// ---------------------------------------------------------------------------
// Flat-combining variant (combining.h): per-stripe counters classifying every
// Apply/Submit operation by who executed it.  Same conventions again: plain
// std::atomic cells, allocated only when stats are requested, no-ops
// otherwise.  The defining invariant -- checked by the combining stress test
// -- is that combined + pass_through equals the number of operations
// completed against the stripe: every operation is executed exactly once,
// either by its own submitter or by a combiner.
// ---------------------------------------------------------------------------

struct alignas(64) CombiningStripeCounters {
  // Operations executed by the context that submitted them (the uncontended
  // fast path, or a waiter that became the combiner and ran its own record).
  std::atomic<std::uint64_t> pass_through{0};
  // Operations executed by a combiner on behalf of another context -- the
  // quantity flat combining exists to create.
  std::atomic<std::uint64_t> combined{0};
  // Drains that applied at least one published record.
  std::atomic<std::uint64_t> batches{0};
  // Drains that hit the combining budget and re-published leftover records.
  std::atomic<std::uint64_t> budget_cutoffs{0};
};

struct CombiningStatsSummary {
  std::uint64_t pass_through = 0;
  std::uint64_t combined = 0;
  std::uint64_t batches = 0;
  std::uint64_t budget_cutoffs = 0;

  std::size_t stripes = 0;
  std::size_t occupied_stripes = 0;  // stripes with >= 1 operation
  std::uint64_t max_stripe_ops = 0;  // hottest stripe

  std::uint64_t TotalOps() const { return pass_through + combined; }
  // Fraction of operations served by a combiner: ~0 on uncontended uniform
  // workloads, approaching 1 on a single hot stripe.
  double CombinedShare() const {
    const std::uint64_t total = TotalOps();
    return total == 0 ? 0.0
                      : static_cast<double>(combined) /
                            static_cast<double>(total);
  }
  double MeanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(combined) /
                              static_cast<double>(batches);
  }
};

class CombiningStats {
 public:
  CombiningStats() = default;

  void Enable(std::size_t stripes) {
    stripes_ = stripes;
    cells_ = std::make_unique<CombiningStripeCounters[]>(stripes);
  }

  bool enabled() const { return cells_ != nullptr; }

  void OnPassThrough(std::size_t stripe) {
    if (cells_ != nullptr) {
      cells_[stripe].pass_through.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void OnCombined(std::size_t stripe) {
    if (cells_ != nullptr) {
      cells_[stripe].combined.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void OnBatch(std::size_t stripe) {
    if (cells_ != nullptr) {
      cells_[stripe].batches.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void OnBudgetCutoff(std::size_t stripe) {
    if (cells_ != nullptr) {
      cells_[stripe].budget_cutoffs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const CombiningStripeCounters* stripe(std::size_t s) const {
    return cells_ == nullptr ? nullptr : &cells_[s];
  }

  CombiningStatsSummary Summarize() const {
    CombiningStatsSummary out;
    out.stripes = stripes_;
    for (std::size_t s = 0; cells_ != nullptr && s < stripes_; ++s) {
      const std::uint64_t pass =
          cells_[s].pass_through.load(std::memory_order_relaxed);
      const std::uint64_t comb =
          cells_[s].combined.load(std::memory_order_relaxed);
      out.pass_through += pass;
      out.combined += comb;
      out.batches += cells_[s].batches.load(std::memory_order_relaxed);
      out.budget_cutoffs +=
          cells_[s].budget_cutoffs.load(std::memory_order_relaxed);
      if (pass + comb > 0) {
        ++out.occupied_stripes;
      }
      if (pass + comb > out.max_stripe_ops) {
        out.max_stripe_ops = pass + comb;
      }
    }
    return out;
  }

 private:
  std::size_t stripes_ = 0;
  std::unique_ptr<CombiningStripeCounters[]> cells_;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_TABLE_STATS_H_
