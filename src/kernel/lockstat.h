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
// Recording is built on the telemetry sharding idiom (telemetry/metrics.h)
// rather than the original mutex + string-keyed map: call sites intern a
// (lock, site) pair once into a SiteId and then record into padded per-thread
// cells with two relaxed RMWs.  The string-keyed Record() compatibility
// surface resolves names through a lock-free open-addressed hash, so its
// steady state is also mutex-free; only the first Record() of a new pair
// takes the intern lock.  Reset() zeroes counters but keeps interned sites
// (Snapshot() filters never-recorded sites, so the observable report shape is
// unchanged).
#ifndef CNA_KERNEL_LOCKSTAT_H_
#define CNA_KERNEL_LOCKSTAT_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
  // RecordSite.  Throws std::length_error past kMaxSites.
  SiteId Intern(std::string_view lock_name, std::string_view call_site);

  // Lock-free sharded recording for an interned site: two relaxed RMWs on a
  // per-thread padded cell.
  void RecordSite(SiteId id, bool contended);

  // String-keyed compatibility surface; steady state resolves the pair
  // through a lock-free hash and then behaves exactly like RecordSite.
  void Record(std::string_view lock_name, std::string_view call_site,
              bool contended);

  // Zeroes all counters.  Interned sites and ids survive (never-recorded
  // sites are invisible to Snapshot, so a reset registry reports empty).
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
  // Per-site sharded cells: smaller than the telemetry Counter's 64-way
  // stripe because a registry can hold thousands of sites (1 KiB per site at
  // 16 shards; MiniVfs interns about a dozen).
  static constexpr int kSiteShards = 16;

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> acquisitions{0};
    std::atomic<std::uint64_t> contended{0};
  };

  struct Site {
    SiteKey key;
    std::array<Cell, kSiteShards> cells;
  };

  // Lock-free name hash: open-addressed, linear probing, publish-once slots
  // encoding (hash32 << 32) | (id + 1).  A slot is never rewritten, so a
  // reader that matches the hash half can verify the strings through the
  // immutable Site and trust the id half.
  static constexpr std::size_t kHashSlots = 1024;  // power of two
  static constexpr std::size_t kMaxProbes = 32;

  static std::uint32_t HashPair(std::string_view lock_name,
                                std::string_view call_site);

  SiteId InternLocked(std::string_view lock_name, std::string_view call_site);

  mutable std::mutex mu_;  // guards sites_ growth and by_key_
  std::vector<std::unique_ptr<Site>> sites_;
  std::map<SiteKey, SiteId> by_key_;
  std::array<std::atomic<Site*>, kMaxSites> by_id_{};
  std::array<std::atomic<std::uint64_t>, kHashSlots> hash_{};
};

}  // namespace cna::kernel

#endif  // CNA_KERNEL_LOCKSTAT_H_
