#include "kernel/lockstat.h"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace cna::kernel {

LockStatRegistry& LockStatRegistry::Global() {
  static LockStatRegistry registry;
  return registry;
}

std::uint32_t LockStatRegistry::HashPair(std::string_view lock_name,
                                         std::string_view call_site) {
  // FNV-1a over lock_name, a separator that cannot occur in either string's
  // contribution ambiguity ("ab"+"c" vs "a"+"bc"), then call_site.
  std::uint32_t h = 2166136261u;
  auto mix = [&h](std::string_view s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 16777619u;
    }
  };
  mix(lock_name);
  h ^= 0xffu;
  h *= 16777619u;
  mix(call_site);
  // Reserve 0: an empty hash slot is all-zero, and the id half uses +1, so a
  // published slot is nonzero iff either half is -- force the hash half
  // nonzero to keep the invariant simple.
  return h == 0 ? 1u : h;
}

LockStatRegistry::SiteId LockStatRegistry::InternLocked(
    std::string_view lock_name, std::string_view call_site) {
  SiteKey key{std::string(lock_name), std::string(call_site)};
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    return it->second;
  }
  if (sites_.size() >= kMaxSites) {
    throw std::length_error(
        "kernel::LockStatRegistry: too many distinct (lock, site) pairs");
  }
  const SiteId id = static_cast<SiteId>(sites_.size());
  auto site = std::make_unique<Site>();
  site->key = key;
  by_id_[id].store(site.get(), std::memory_order_release);
  sites_.push_back(std::move(site));
  by_key_.emplace(std::move(key), id);
  return id;
}

LockStatRegistry::SiteId LockStatRegistry::Intern(std::string_view lock_name,
                                                  std::string_view call_site) {
  std::lock_guard<std::mutex> guard(mu_);
  return InternLocked(lock_name, call_site);
}

void LockStatRegistry::RecordSite(SiteId id, bool contended) {
  if (id >= kMaxSites) {
    return;
  }
  Site* site = by_id_[id].load(std::memory_order_acquire);
  if (site == nullptr) {
    return;
  }
  Cell& cell =
      site->cells[static_cast<unsigned>(telemetry::SelfShard()) % kSiteShards];
  cell.acquisitions.fetch_add(1, std::memory_order_relaxed);
  if (contended) {
    cell.contended.fetch_add(1, std::memory_order_relaxed);
  }
}

void LockStatRegistry::Record(std::string_view lock_name,
                              std::string_view call_site, bool contended) {
  const std::uint32_t h = HashPair(lock_name, call_site);
  const std::uint64_t tag = static_cast<std::uint64_t>(h) << 32;
  const std::size_t mask = kHashSlots - 1;
  std::size_t empty_probe = kHashSlots;  // first empty slot seen, if any
  for (std::size_t i = 0; i < kMaxProbes; ++i) {
    const std::size_t slot = (static_cast<std::size_t>(h) + i) & mask;
    const std::uint64_t w = hash_[slot].load(std::memory_order_acquire);
    if (w == 0) {
      empty_probe = slot;
      break;
    }
    if ((w & 0xffffffff00000000ull) != tag) {
      continue;
    }
    const SiteId id = static_cast<SiteId>((w & 0xffffffffull) - 1);
    Site* site = by_id_[id].load(std::memory_order_acquire);
    if (site != nullptr && site->key.lock_name == lock_name &&
        site->key.call_site == call_site) {
      RecordSite(id, contended);
      return;
    }
  }
  // First sighting (or probe window exhausted): intern under the mutex, then
  // try to publish the mapping so the next Record() takes the fast path.
  const SiteId id = Intern(lock_name, call_site);
  if (empty_probe != kHashSlots) {
    std::uint64_t expected = 0;
    hash_[empty_probe].compare_exchange_strong(
        expected, tag | (static_cast<std::uint64_t>(id) + 1),
        std::memory_order_release, std::memory_order_relaxed);
    // A lost race published some other pair here; the next Record() of this
    // pair probes past it or re-interns -- correctness never depends on the
    // hash, only steady-state cost does.
  }
  RecordSite(id, contended);
}

void LockStatRegistry::Reset() {
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& site : sites_) {
    for (Cell& cell : site->cells) {
      cell.acquisitions.store(0, std::memory_order_relaxed);
      cell.contended.store(0, std::memory_order_relaxed);
    }
  }
}

std::vector<std::pair<LockStatRegistry::SiteKey, LockStatRegistry::SiteStats>>
LockStatRegistry::Snapshot() const {
  std::vector<std::pair<SiteKey, SiteStats>> out;
  {
    std::lock_guard<std::mutex> guard(mu_);
    out.reserve(sites_.size());
    for (const auto& site : sites_) {
      SiteStats st;
      for (const Cell& cell : site->cells) {
        st.acquisitions += cell.acquisitions.load(std::memory_order_relaxed);
        st.contended += cell.contended.load(std::memory_order_relaxed);
      }
      if (st.acquisitions == 0) {
        continue;  // never recorded (or reset since); invisible, as before
      }
      out.emplace_back(site->key, st);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<LockStatRegistry::ContendedLock> LockStatRegistry::ContendedLocks(
    double min_contention_rate, std::uint64_t min_acquisitions) const {
  std::vector<ContendedLock> out;
  for (const auto& [key, st] : Snapshot()) {
    if (st.acquisitions < min_acquisitions ||
        st.ContentionRate() < min_contention_rate) {
      continue;
    }
    auto it = std::find_if(out.begin(), out.end(), [&](const ContendedLock& c) {
      return c.lock_name == key.lock_name;
    });
    if (it == out.end()) {
      out.push_back(ContendedLock{key.lock_name, {key.call_site}});
    } else {
      it->call_sites.push_back(key.call_site);
    }
  }
  return out;
}

}  // namespace cna::kernel
