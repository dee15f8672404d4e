#include "kernel/lockstat.h"

#include <algorithm>
#include <stdexcept>

namespace cna::kernel {

LockStatRegistry& LockStatRegistry::Global() {
  static LockStatRegistry registry;
  return registry;
}

LockStatRegistry::SiteId LockStatRegistry::Intern(std::string_view lock_name,
                                                  std::string_view call_site) {
  std::lock_guard<std::mutex> guard(mu_);
  SiteKey key{std::string(lock_name), std::string(call_site)};
  auto it = sites_.find(key);
  if (it != sites_.end()) {
    return it->second.id;
  }
  if (sites_.size() >= kMaxSites) {
    throw std::length_error(
        "kernel::LockStatRegistry: too many distinct (lock, site) pairs");
  }
  const std::string prefix = "lockstat." + key.lock_name + "@" + key.call_site;
  auto& reg = telemetry::Registry::Global();
  const Site site{static_cast<SiteId>(sites_.size()),
                  &reg.GetCounter(prefix + ".acquisitions"),
                  &reg.GetCounter(prefix + ".contended")};
  for (const auto& [other_key, other] : sites_) {
    if (other.acquisitions == site.acquisitions) {
      throw std::invalid_argument("kernel::LockStatRegistry: " + prefix +
                                  " names two (lock, site) pairs");
    }
  }
  it = sites_.emplace(std::move(key), site).first;
  by_id_[site.id].store(&it->second, std::memory_order_release);
  return site.id;
}

void LockStatRegistry::RecordSite(SiteId id, bool contended) {
  if (id >= kMaxSites) {
    return;
  }
  const Site* site = by_id_[id].load(std::memory_order_acquire);
  if (site == nullptr) {
    return;
  }
  site->acquisitions->Add();
  if (contended) {
    site->contended->Add();
  }
}

void LockStatRegistry::Record(std::string_view lock_name,
                              std::string_view call_site, bool contended) {
  RecordSite(Intern(lock_name, call_site), contended);
}

void LockStatRegistry::Reset() {
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& [key, site] : sites_) {
    site.acquisitions->Reset();
    site.contended->Reset();
  }
}

std::vector<std::pair<LockStatRegistry::SiteKey, LockStatRegistry::SiteStats>>
LockStatRegistry::Snapshot() const {
  std::vector<std::pair<SiteKey, SiteStats>> out;
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& [key, site] : sites_) {
    const SiteStats st{site.acquisitions->Value(), site.contended->Value()};
    if (st.acquisitions == 0) {
      continue;  // never recorded (or reset since); invisible, as before
    }
    out.emplace_back(key, st);
  }
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
