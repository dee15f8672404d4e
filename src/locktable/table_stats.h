// Optional per-stripe occupancy/contention statistics for the lock tables.
//
// Follows the telemetry/metrics.h rules: counters are diagnostics, not
// simulated state -- they live in plain std::atomic cells (never P::Atomic),
// so the simulator charges nothing for them and the default stats-off path
// carries zero instrumentation.
//
// Layout.  A stripe's cell holds only the two counts that something reads
// per stripe (occupancy, the hottest stripe, the resize policy and GCR's
// hot-stripe ranking): 16 B.  Cells take the table's StripePadding.  A
// compact table packs them, so a 1 Mi-stripe table with stats carries 16 MiB
// of counters beside its 8 MiB of lock words.  A kCacheLine table gives each
// cell a line of its own, because it chose lines so that neighbouring stripes
// never share one.  Every other count is read only as a table total; it goes
// to one of min(stripes, 64) line-sized shards, picked by stripe index, which
// spreads hot stripes without a thread-local lookup.
#ifndef CNA_LOCKTABLE_TABLE_STATS_H_
#define CNA_LOCKTABLE_TABLE_STATS_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "base/cacheline.h"
#include "locktable/held_ledger.h"
#include "locktable/stripe_array.h"

namespace cna::locktable {

// The storage of one counter family: a Cell per stripe at the table's stripe
// padding, and the Totals shards.  Both are allocated, zeroed, only by
// Enable(); the families' methods are no-ops until then (cells_ == nullptr),
// so call sites need no branching of their own.
template <typename Cell, typename Totals>
class StripeStatsArrays {
 public:
  // Cold: it runs once per table.  The attribute also steadies GCC 12's
  // inlining in perfbench/src/capi_workload.cc, whose setup time doubles when
  // a prefill loop there gets split (ROADMAP, small follow-ups).
  [[gnu::cold]] void Enable(std::size_t stripes, StripePadding padding) {
    stripes_ = stripes;
    // A kCacheLine stripe's cell is followed by unused cells up to the next
    // stripe's line.
    shift_ = padding == StripePadding::kCacheLine
                 ? std::countr_zero(kCacheLineSize / sizeof(Cell))
                 : 0;
    cells_ = std::make_unique<Cell[]>(stripes << shift_);
    shard_mask_ = std::min(stripes, kMaxShards) - 1;
    shards_ = std::make_unique<Totals[]>(shard_mask_ + 1);
  }

  bool enabled() const { return cells_ != nullptr; }

  const Cell* stripe(std::size_t s) const {
    return cells_ == nullptr ? nullptr : &cell(s);
  }

 protected:
  static constexpr std::size_t kMaxShards = 64;

  std::size_t stripes() const { return stripes_; }
  Cell& cell(std::size_t s) const { return cells_[s << shift_]; }
  // Shard i, for i < shards(), or the shard of stripe i.
  Totals& shard(std::size_t i) const { return shards_[i & shard_mask_]; }
  std::size_t shards() const { return cells_ == nullptr ? 0 : shard_mask_ + 1; }

 private:
  std::size_t stripes_ = 0;
  int shift_ = 0;
  std::size_t shard_mask_ = 0;
  std::unique_ptr<Cell[]> cells_;
  std::unique_ptr<Totals[]> shards_;
};

// One cell per stripe, allocated only when LockTableOptions::collect_stats is
// set.  Aligned so that a cell never straddles two lines.
struct alignas(16) StripeCounters {
  // Successful acquisitions of this stripe, in either mode.
  std::atomic<std::uint64_t> acquisitions{0};
  // Acquisitions, in either mode, that found the stripe already held
  // (detected by a failed try-lock on the way in; a lower bound on true
  // contention).
  std::atomic<std::uint64_t> contended{0};
};
static_assert(sizeof(StripeCounters) == 16, "two counter words per stripe");

// A lock table's totals shard.
struct alignas(kCacheLineSize) TableTotals {
  // Exclusive acquisitions and the contended part of them, counted on
  // reader-writer tables only: every acquisition of a mutex table is one.
  std::atomic<std::uint64_t> exclusive{0};
  std::atomic<std::uint64_t> exclusive_contended{0};
  // Try-lock calls, in either mode, that returned false to the caller.
  std::atomic<std::uint64_t> trylock_failures{0};
  // Stripes acquired by multi-key (MultiGuard) transactions.
  std::atomic<std::uint64_t> multi_key{0};
};

// Aggregated view over all stripes.  Acquisition counts cover both modes.
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

// A lock table's counters.  kReaderWriter tables also count their
// exclusive acquisitions, in the shards, and the summary derives the shared
// counts from those.
template <bool kReaderWriter>
class TableStats : public StripeStatsArrays<StripeCounters, TableTotals> {
 public:
  // One RMW on the cell, one more if contended.  A reader-writer table's
  // exclusive acquisition first adds the same to its shard, and then
  // releases on the cell (see Summarize).
  template <HoldMode M>
  void OnAcquire(std::size_t stripe, bool was_contended) {
    if (!enabled()) {
      return;
    }
    constexpr bool kSplit = kReaderWriter && M == HoldMode::kExclusive;
    constexpr std::memory_order kCellOrder =
        kSplit ? std::memory_order_release : std::memory_order_relaxed;
    if constexpr (kSplit) {
      TableTotals& t = shard(stripe);
      t.exclusive.fetch_add(1, std::memory_order_relaxed);
      if (was_contended) {
        t.exclusive_contended.fetch_add(1, std::memory_order_relaxed);
      }
    }
    StripeCounters& c = cell(stripe);
    c.acquisitions.fetch_add(1, kCellOrder);
    if (was_contended) {
      c.contended.fetch_add(1, kCellOrder);
    }
  }

  void OnTryLockFailure(std::size_t stripe) {
    if (enabled()) {
      shard(stripe).trylock_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // A multi-key transaction that acquired stripes[0..n).
  void OnMultiKey(const std::size_t* stripes, std::size_t n) {
    if (enabled() && n > 0) {
      shard(stripes[0]).multi_key.fetch_add(n, std::memory_order_relaxed);
    }
  }

  TableStatsSummary Summarize() const {
    TableStatsSummary out;
    out.stripes = stripes();
    // Cells before shards.  A cell count read with acquire brings along every
    // shard count its acquisitions added first, so the shards never fall
    // behind the cells: on exclusive-only traffic the derived shared counts
    // read 0.  While acquisitions are being recorded the shards can run
    // ahead instead, so the derived counts are clamped at 0.
    for (std::size_t s = 0; enabled() && s < stripes(); ++s) {
      const StripeCounters& c = cell(s);
      const std::uint64_t acq = c.acquisitions.load(std::memory_order_acquire);
      out.total_acquisitions += acq;
      out.contended_acquisitions += c.contended.load(std::memory_order_acquire);
      if (acq > 0) {
        ++out.occupied_stripes;
      }
      out.max_stripe_acquisitions = std::max(out.max_stripe_acquisitions, acq);
    }
    std::uint64_t exclusive = 0;
    std::uint64_t exclusive_contended = 0;
    for (std::size_t i = 0; i < shards(); ++i) {
      const TableTotals& t = shard(i);
      exclusive += t.exclusive.load(std::memory_order_relaxed);
      exclusive_contended +=
          t.exclusive_contended.load(std::memory_order_relaxed);
      out.trylock_failures +=
          t.trylock_failures.load(std::memory_order_relaxed);
      out.multi_key_acquisitions += t.multi_key.load(std::memory_order_relaxed);
    }
    if constexpr (kReaderWriter) {
      out.shared_acquisitions =
          out.total_acquisitions -
          std::min(exclusive, out.total_acquisitions);
      out.shared_contended =
          out.contended_acquisitions -
          std::min(exclusive_contended, out.contended_acquisitions);
    }
    return out;
  }
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
// Apply/Submit operation by who executed it.  Same conventions and layout
// again: plain std::atomic cells at the table's stripe padding plus totals
// shards, allocated only when stats are requested, no-ops otherwise.  The
// defining invariant -- checked by the combining stress test -- is that
// combined + pass_through equals the number of operations completed against
// the stripe: every operation is executed exactly once, either by its own
// submitter or by a combiner.
// ---------------------------------------------------------------------------

struct alignas(16) CombiningStripeCounters {
  // Operations executed by the context that submitted them (the uncontended
  // fast path, or a waiter that became the combiner and ran its own record).
  std::atomic<std::uint64_t> pass_through{0};
  // Operations executed by a combiner on behalf of another context -- the
  // quantity flat combining exists to create.
  std::atomic<std::uint64_t> combined{0};
};
static_assert(sizeof(CombiningStripeCounters) == 16,
              "two counter words per stripe");

struct alignas(kCacheLineSize) CombiningTotals {
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

class CombiningStats
    : public StripeStatsArrays<CombiningStripeCounters, CombiningTotals> {
 public:
  void OnPassThrough(std::size_t stripe) {
    if (enabled()) {
      cell(stripe).pass_through.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void OnCombined(std::size_t stripe) {
    if (enabled()) {
      cell(stripe).combined.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void OnBatch(std::size_t stripe) {
    if (enabled()) {
      shard(stripe).batches.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void OnBudgetCutoff(std::size_t stripe) {
    if (enabled()) {
      shard(stripe).budget_cutoffs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  CombiningStatsSummary Summarize() const {
    CombiningStatsSummary out;
    out.stripes = stripes();
    for (std::size_t s = 0; enabled() && s < stripes(); ++s) {
      const std::uint64_t pass =
          cell(s).pass_through.load(std::memory_order_relaxed);
      const std::uint64_t comb =
          cell(s).combined.load(std::memory_order_relaxed);
      out.pass_through += pass;
      out.combined += comb;
      if (pass + comb > 0) {
        ++out.occupied_stripes;
      }
      out.max_stripe_ops = std::max(out.max_stripe_ops, pass + comb);
    }
    for (std::size_t i = 0; i < shards(); ++i) {
      out.batches += shard(i).batches.load(std::memory_order_relaxed);
      out.budget_cutoffs +=
          shard(i).budget_cutoffs.load(std::memory_order_relaxed);
    }
    return out;
  }
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_TABLE_STATS_H_
