// lockstat-style lock contention accounting.
//
// The kernel's lockstat facility plays two roles in the paper:
//  1. Identification (Table 1): which spin locks contend, at which call
//     sites, in each will-it-scale benchmark.  This registry reproduces that:
//     every MiniVfs lock acquisition reports its lock name, call site and
//     whether the lock was already busy.
//  2. Perturbation (Figures 13(b)/14(b)): when compiled in, lockstat updates
//     shared variables after each acquisition, adding critical-section data
//     traffic ("arguably represent[ing] more accurately critical sections of
//     real applications").  The traffic half lives in the workloads (they
//     charge shared-line writes through P::OnDataAccess when lockstat mode is
//     on); this registry is the bookkeeping half.
//
// The counts live in the telemetry registry (telemetry/metrics.h): an interned
// (lock, site) pair owns the registry counters
// "lockstat.<lock>@<site>.acquisitions" and "lockstat.<lock>@<site>.contended",
// so Table 1's counts show on every export (/metrics, /json, /lockstat),
// in the sampler's /series and cna_top, and reset with the rest of the
// registry (cna_telemetry_reset).  Call sites intern a pair once into a SiteId
// and then record with two relaxed RMWs, mutex-free; the string-keyed
// Record() interns on every call.  Reset() zeroes counters but keeps interned
// sites (Snapshot() filters never-recorded sites, so the observable report
// shape is unchanged).
#ifndef CNA_KERNEL_LOCKSTAT_H_
#define CNA_KERNEL_LOCKSTAT_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"

namespace cna::kernel {

class LockStatRegistry {
 public:
  struct SiteKey {
    std::string lock_name;
    std::string call_site;
    bool operator<(const SiteKey& o) const {
      return lock_name != o.lock_name ? lock_name < o.lock_name
                                      : call_site < o.call_site;
    }
  };

  struct SiteStats {
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;

    double ContentionRate() const {
      return acquisitions == 0
                 ? 0.0
                 : static_cast<double>(contended) /
                       static_cast<double>(acquisitions);
    }
  };

  // Stable handle for a (lock, call site) pair; intern once, record forever.
  using SiteId = std::uint32_t;
  static constexpr std::size_t kMaxSites = 4096;

  // Process-wide registry (the kernel has one lockstat too).
  static LockStatRegistry& Global();

  // Interns the pair, returning the same id for the same strings.  Takes the
  // intern mutex; callers on hot paths should cache the id and use
  // RecordSite.  Throws std::length_error past kMaxSites, and
  // std::invalid_argument when the pair's counter names are already taken by
  // another pair (possible only when a name contains '@').
  SiteId Intern(std::string_view lock_name, std::string_view call_site);

  // Mutex-free recording for an interned site: a relaxed RMW on this
  // thread's shard of each registry counter it bumps.
  void RecordSite(SiteId id, bool contended);

  // String-keyed surface: RecordSite(Intern(lock_name, call_site)), so it
  // takes the intern mutex on every call.
  void Record(std::string_view lock_name, std::string_view call_site,
              bool contended);

  // Zeroes every site's counters (Registry::ResetAll does too).  Interned
  // sites and ids survive (never-recorded sites are invisible to Snapshot,
  // so a reset registry reports empty).
  void Reset();

  // Snapshot sorted by (lock, call site); sites with zero acquisitions are
  // omitted.
  std::vector<std::pair<SiteKey, SiteStats>> Snapshot() const;

  // Table-1 style report: per lock, the call sites whose contention rate is
  // at least `min_contention_rate` and with at least `min_acquisitions`
  // samples (filters out incidental blips, as the paper's table does).
  struct ContendedLock {
    std::string lock_name;
    std::vector<std::string> call_sites;
  };
  std::vector<ContendedLock> ContendedLocks(double min_contention_rate,
                                            std::uint64_t min_acquisitions) const;

 private:
  // The pair's registry counters; both live as long as the registry.
  struct Site {
    SiteId id;
    telemetry::Counter* acquisitions;
    telemetry::Counter* contended;
  };

  mutable std::mutex mu_;  // guards sites_
  // std::map: a node never moves, and Snapshot walks it in report order.
  std::map<SiteKey, Site> sites_;
  // RecordSite's mutex-free lookup; a slot is published once.
  std::array<std::atomic<const Site*>, kMaxSites> by_id_{};
};

}  // namespace cna::kernel

#endif  // CNA_KERNEL_LOCKSTAT_H_
