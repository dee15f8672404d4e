#include "core/pthread_api.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/any_lock_table.h"
#include "core/any_rwlock.h"
#include "core/any_rwlock_table.h"
#include "core/registry.h"
#include "locktable/lock_table.h"
#include "parking/parking_lot.h"
#include "platform/real_platform.h"
#include "telemetry/export.h"
#include "telemetry/lockdep.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/serve.h"
#include "telemetry/trace.h"

struct cna_mutex {
  explicit cna_mutex(cna::core::LockKind kind) : impl(kind) {}
  cna::core::Mutex impl;
};

struct cna_gcr {
  explicit cna_gcr(cna::core::LockKind kind)
      : impl(cna::core::MakeGcrLock<cna::RealPlatform>(kind)) {}
  std::unique_ptr<cna::core::AnyGcrLock> impl;
};

struct cna_locktable {
  cna_locktable(cna::core::LockKind kind, size_t stripes,
                bool blocking = false)
      : impl(cna::core::MakeLockTable<cna::RealPlatform>(
            kind, cna::locktable::LockTableOptions{.stripes = stripes,
                                                   .blocking = blocking})) {}
  std::unique_ptr<cna::core::AnyLockTable> impl;
};

struct cna_resizable {
  cna_resizable(cna::core::LockKind kind, size_t stripes)
      : impl(cna::core::MakeResizableLockTable<cna::RealPlatform>(
            kind,
            cna::locktable::ResizableLockTableOptions{.stripes = stripes, .policy = {}})) {}
  std::unique_ptr<cna::core::AnyResizableLockTable> impl;
};

struct cna_combining {
  cna_combining(cna::core::LockKind kind, size_t stripes)
      : impl(cna::core::MakeCombiningTable<cna::RealPlatform>(
            kind, cna::locktable::CombiningTableOptions{
                      .stripes = stripes, .collect_stats = true})) {}
  std::unique_ptr<cna::core::AnyCombiningTable> impl;
};

struct cna_rwlock {
  explicit cna_rwlock(cna::core::RwLockKind kind)
      : impl(cna::core::MakeRwLock<cna::RealPlatform>(kind)) {}
  std::unique_ptr<cna::core::AnyRwLock> impl;
};

struct cna_rwlocktable {
  cna_rwlocktable(cna::core::RwLockKind kind, size_t stripes)
      : impl(cna::core::MakeRwLockTable<cna::RealPlatform>(
            kind, cna::locktable::LockTableOptions{.stripes = stripes})) {}
  std::unique_ptr<cna::core::AnyRwLockTable> impl;
};

namespace {

// No C++ exception may cross the extern "C" boundary.  Every lock/unlock
// entry point runs through this barrier, mapping to pthread-style errno
// codes: unlock-without-lock (logic_error) -> EPERM, oversized requests
// (length_error -- caught first, it derives from logic_error) -> EINVAL,
// allocation failure (ledger overflow nodes, multi-key scratch space) ->
// ENOMEM, anything else -> EINVAL.
template <typename F>
int GuardedCall(F&& f) {
  try {
    return std::forward<F>(f)();
  } catch (const std::length_error&) {
    return EINVAL;
  } catch (const std::logic_error&) {
    return EPERM;
  } catch (const std::bad_alloc&) {
    return ENOMEM;
  } catch (...) {
    return EINVAL;
  }
}

}  // namespace

extern "C" {

cna_mutex_t* cna_mutex_create(const char* lock_name) {
  if (lock_name == nullptr) {
    return nullptr;
  }
  const auto kind = cna::core::LockKindFromName(lock_name);
  if (!kind.has_value()) {
    return nullptr;
  }
  try {
    return new (std::nothrow) cna_mutex(*kind);
  } catch (...) {
    return nullptr;
  }
}

cna_mutex_t* cna_mutex_create_default(void) {
  try {
    return new (std::nothrow) cna_mutex(cna::core::LockKind::kCna);
  } catch (...) {
    return nullptr;
  }
}

void cna_mutex_destroy(cna_mutex_t* mutex) { delete mutex; }

int cna_mutex_lock(cna_mutex_t* mutex) {
  if (mutex == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    mutex->impl.lock();
    return 0;
  });
}

int cna_mutex_trylock(cna_mutex_t* mutex) {
  if (mutex == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] { return mutex->impl.try_lock() ? 0 : EBUSY; });
}

int cna_mutex_unlock(cna_mutex_t* mutex) {
  if (mutex == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    mutex->impl.unlock();
    return 0;
  });
}

size_t cna_mutex_state_bytes(const cna_mutex_t* mutex) {
  return mutex == nullptr ? 0 : mutex->impl.state_bytes();
}

cna_gcr_t* cna_gcr_create(const char* lock_name) {
  if (lock_name == nullptr) {
    return nullptr;
  }
  const auto kind = cna::core::LockKindFromName(lock_name);
  if (!kind.has_value()) {
    return nullptr;
  }
  try {
    return new (std::nothrow) cna_gcr(*kind);
  } catch (...) {
    return nullptr;
  }
}

cna_gcr_t* cna_gcr_create_default(void) {
  try {
    return new (std::nothrow) cna_gcr(cna::core::LockKind::kCna);
  } catch (...) {
    return nullptr;
  }
}

void cna_gcr_destroy(cna_gcr_t* gcr) { delete gcr; }

int cna_gcr_lock(cna_gcr_t* gcr) {
  if (gcr == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    gcr->impl->Lock();
    return 0;
  });
}

int cna_gcr_trylock(cna_gcr_t* gcr) {
  if (gcr == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] { return gcr->impl->TryLock() ? 0 : EBUSY; });
}

int cna_gcr_unlock(cna_gcr_t* gcr) {
  if (gcr == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    gcr->impl->Unlock();
    return 0;
  });
}

int cna_gcr_engage(cna_gcr_t* gcr) {
  if (gcr == nullptr) {
    return EINVAL;
  }
  gcr->impl->Engage();
  return 0;
}

int cna_gcr_disengage(cna_gcr_t* gcr) {
  if (gcr == nullptr) {
    return EINVAL;
  }
  gcr->impl->Disengage();
  return 0;
}

int cna_gcr_set_active_limit(cna_gcr_t* gcr, uint32_t limit) {
  if (gcr == nullptr) {
    return EINVAL;
  }
  gcr->impl->SetActiveLimit(limit);
  return 0;
}

int cna_gcr_restricted(const cna_gcr_t* gcr) {
  return gcr != nullptr && gcr->impl->Restricted() ? 1 : 0;
}

int cna_gcr_get_stats(const cna_gcr_t* gcr, cna_gcr_stats_t* out) {
  if (gcr == nullptr || out == nullptr) {
    return EINVAL;
  }
  const cna::locks::GcrCountersSnapshot s = gcr->impl->GcrStats();
  out->direct = s.direct;
  out->passivations = s.passivations;
  out->admissions = s.admissions + s.self_admissions;
  out->rotations = s.rotations;
  out->engages = s.engages;
  out->disengages = s.disengages;
  out->max_admission_wait_releases = s.max_admission_wait_releases;
  return 0;
}

size_t cna_gcr_state_bytes(const cna_gcr_t* gcr) {
  return gcr == nullptr ? 0 : gcr->impl->StateBytes();
}

cna_locktable_t* cna_locktable_create(const char* lock_name, size_t stripes) {
  if (lock_name == nullptr) {
    return nullptr;
  }
  const auto kind = cna::core::LockKindFromName(lock_name);
  if (!kind.has_value()) {
    return nullptr;
  }
  // The constructor allocates the stripe array; bad_alloc/length_error (e.g.
  // an absurd stripe count) must surface as nullptr, not cross extern "C".
  try {
    return new (std::nothrow) cna_locktable(*kind, stripes);
  } catch (...) {
    return nullptr;
  }
}

cna_locktable_t* cna_locktable_create_default(size_t stripes) {
  try {
    return new (std::nothrow)
        cna_locktable(cna::core::LockKind::kCna, stripes);
  } catch (...) {
    return nullptr;
  }
}

cna_locktable_t* cna_locktable_create_blocking(const char* lock_name,
                                               size_t stripes) {
  if (lock_name == nullptr) {
    return nullptr;
  }
  const auto kind = cna::core::LockKindFromName(lock_name);
  if (!kind.has_value()) {
    return nullptr;
  }
  try {
    return new (std::nothrow)
        cna_locktable(*kind, stripes, /*blocking=*/true);
  } catch (...) {
    return nullptr;
  }
}

void cna_locktable_destroy(cna_locktable_t* table) { delete table; }

int cna_locktable_lock(cna_locktable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->Lock(key);
    return 0;
  });
}

int cna_locktable_trylock(cna_locktable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] { return table->impl->TryLock(key) ? 0 : EBUSY; });
}

int cna_locktable_unlock(cna_locktable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  // EPERM when this thread does not hold the key's stripe.
  return GuardedCall([&] {
    table->impl->Unlock(key);
    return 0;
  });
}

int cna_locktable_lock_many(cna_locktable_t* table, const uint64_t* keys,
                            size_t count) {
  if (table == nullptr || (keys == nullptr && count != 0)) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->LockMany(keys, count);
    return 0;
  });
}

int cna_locktable_unlock_many(cna_locktable_t* table, const uint64_t* keys,
                              size_t count) {
  if (table == nullptr || (keys == nullptr && count != 0)) {
    return EINVAL;
  }
  // EPERM when some stripe in the set is not held by this thread; the checked
  // release verifies the whole set first, so nothing is half-released.
  return GuardedCall([&] {
    table->impl->UnlockMany(keys, count);
    return 0;
  });
}

size_t cna_locktable_stripes(const cna_locktable_t* table) {
  return table == nullptr ? 0 : table->impl->Stripes();
}

size_t cna_locktable_stripe_of(const cna_locktable_t* table, uint64_t key) {
  return table == nullptr ? 0 : table->impl->StripeOf(key);
}

size_t cna_locktable_state_bytes(const cna_locktable_t* table) {
  return table == nullptr ? 0 : table->impl->LockStateBytes();
}

// ----------------------------- resizable table -----------------------------

cna_resizable_t* cna_resizable_create(const char* lock_name,
                                      size_t initial_stripes) {
  if (lock_name == nullptr) {
    return nullptr;
  }
  const auto kind = cna::core::LockKindFromName(lock_name);
  if (!kind.has_value()) {
    return nullptr;
  }
  try {
    return new (std::nothrow) cna_resizable(*kind, initial_stripes);
  } catch (...) {
    return nullptr;
  }
}

cna_resizable_t* cna_resizable_create_default(size_t initial_stripes) {
  try {
    return new (std::nothrow)
        cna_resizable(cna::core::LockKind::kCna, initial_stripes);
  } catch (...) {
    return nullptr;
  }
}

void cna_resizable_destroy(cna_resizable_t* table) { delete table; }

int cna_resizable_lock(cna_resizable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->Lock(key);
    return 0;
  });
}

int cna_resizable_trylock(cna_resizable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] { return table->impl->TryLock(key) ? 0 : EBUSY; });
}

int cna_resizable_unlock(cna_resizable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  // EPERM when this thread does not hold the key in any live snapshot.
  return GuardedCall([&] {
    table->impl->Unlock(key);
    return 0;
  });
}

int cna_resizable_lock_many(cna_resizable_t* table, const uint64_t* keys,
                            size_t count) {
  if (table == nullptr || (keys == nullptr && count != 0)) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->LockMany(keys, count);
    return 0;
  });
}

int cna_resizable_unlock_many(cna_resizable_t* table, const uint64_t* keys,
                              size_t count) {
  if (table == nullptr || (keys == nullptr && count != 0)) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->UnlockMany(keys, count);
    return 0;
  });
}

int cna_resizable_resize(cna_resizable_t* table, size_t stripes) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall(
      [&] { return table->impl->TryResize(stripes) ? 0 : EBUSY; });
}

size_t cna_resizable_stripes(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Stripes();
}

size_t cna_resizable_stripe_of(const cna_resizable_t* table, uint64_t key) {
  return table == nullptr ? 0 : table->impl->StripeOf(key);
}

size_t cna_resizable_state_bytes(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->LockStateBytes();
}

uint64_t cna_resizable_grows(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Summary().grows;
}

uint64_t cna_resizable_shrinks(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Summary().shrinks;
}

uint64_t cna_resizable_epoch_retired(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Summary().epoch.retired;
}

uint64_t cna_resizable_epoch_reclaimed(const cna_resizable_t* table) {
  return table == nullptr ? 0 : table->impl->Summary().epoch.reclaimed;
}

// ----------------------------- combining table -----------------------------

cna_combining_t* cna_combining_create(const char* lock_name, size_t stripes) {
  if (lock_name == nullptr) {
    return nullptr;
  }
  const auto kind = cna::core::LockKindFromName(lock_name);
  if (!kind.has_value() ||
      !cna::core::SupportsCombining<cna::RealPlatform>(*kind)) {
    return nullptr;
  }
  // bad_alloc and length_error surface as nullptr rather than crossing
  // extern "C".
  try {
    return new (std::nothrow) cna_combining(*kind, stripes);
  } catch (...) {
    return nullptr;
  }
}

cna_combining_t* cna_combining_create_default(size_t stripes) {
  try {
    return new (std::nothrow)
        cna_combining(cna::core::LockKind::kCna, stripes);
  } catch (...) {
    return nullptr;
  }
}

void cna_combining_destroy(cna_combining_t* table) { delete table; }

int cna_combining_apply(cna_combining_t* table, uint64_t key,
                        cna_combining_fn fn, void* ctx) {
  if (table == nullptr || fn == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->Apply(key, fn, ctx);
    return 0;
  });
}

int cna_combining_apply_batch(cna_combining_t* table, const uint64_t* keys,
                              size_t count, cna_combining_key_fn fn,
                              void* ctx) {
  if (table == nullptr || fn == nullptr ||
      (keys == nullptr && count != 0)) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->ApplyBatch(keys, count, fn, ctx);
    return 0;
  });
}

int cna_combining_lock(cna_combining_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->Lock(key);
    return 0;
  });
}

int cna_combining_unlock(cna_combining_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  // EPERM when this thread does not hold the key's stripe.
  return GuardedCall([&] {
    table->impl->Unlock(key);
    return 0;
  });
}

size_t cna_combining_stripes(const cna_combining_t* table) {
  return table == nullptr ? 0 : table->impl->Stripes();
}

size_t cna_combining_stripe_of(const cna_combining_t* table, uint64_t key) {
  return table == nullptr ? 0 : table->impl->StripeOf(key);
}

size_t cna_combining_state_bytes(const cna_combining_t* table) {
  return table == nullptr ? 0 : table->impl->LockStateBytes();
}

uint64_t cna_combining_pass_through_ops(const cna_combining_t* table) {
  return table == nullptr ? 0 : table->impl->CombiningSummary().pass_through;
}

uint64_t cna_combining_combined_ops(const cna_combining_t* table) {
  return table == nullptr ? 0 : table->impl->CombiningSummary().combined;
}

// --------------------------- reader-writer lock ----------------------------

cna_rwlock_t* cna_rwlock_create(const char* rwlock_name) {
  if (rwlock_name == nullptr) {
    return nullptr;
  }
  const auto kind = cna::core::RwLockKindFromName(rwlock_name);
  if (!kind.has_value()) {
    return nullptr;
  }
  try {
    return new (std::nothrow) cna_rwlock(*kind);
  } catch (...) {
    return nullptr;
  }
}

cna_rwlock_t* cna_rwlock_create_default(void) {
  try {
    return new (std::nothrow) cna_rwlock(cna::core::RwLockKind::kCnaRw);
  } catch (...) {
    return nullptr;
  }
}

void cna_rwlock_destroy(cna_rwlock_t* rwlock) { delete rwlock; }

int cna_rwlock_rdlock(cna_rwlock_t* rwlock) {
  if (rwlock == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    rwlock->impl->LockShared();
    return 0;
  });
}

int cna_rwlock_tryrdlock(cna_rwlock_t* rwlock) {
  if (rwlock == nullptr) {
    return EINVAL;
  }
  return GuardedCall(
      [&] { return rwlock->impl->TryLockShared() ? 0 : EBUSY; });
}

int cna_rwlock_wrlock(cna_rwlock_t* rwlock) {
  if (rwlock == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    rwlock->impl->Lock();
    return 0;
  });
}

int cna_rwlock_trywrlock(cna_rwlock_t* rwlock) {
  if (rwlock == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] { return rwlock->impl->TryLock() ? 0 : EBUSY; });
}

int cna_rwlock_unlock(cna_rwlock_t* rwlock) {
  if (rwlock == nullptr) {
    return EINVAL;
  }
  // EPERM when this thread holds the lock in neither mode.
  return GuardedCall([&] {
    rwlock->impl->UnlockAny();
    return 0;
  });
}

size_t cna_rwlock_state_bytes(const cna_rwlock_t* rwlock) {
  return rwlock == nullptr ? 0 : rwlock->impl->StateBytes();
}

// ------------------------ reader-writer lock table -------------------------

cna_rwlocktable_t* cna_rwlocktable_create(const char* rwlock_name,
                                          size_t stripes) {
  if (rwlock_name == nullptr) {
    return nullptr;
  }
  const auto kind = cna::core::RwLockKindFromName(rwlock_name);
  if (!kind.has_value()) {
    return nullptr;
  }
  try {
    return new (std::nothrow) cna_rwlocktable(*kind, stripes);
  } catch (...) {
    return nullptr;
  }
}

cna_rwlocktable_t* cna_rwlocktable_create_default(size_t stripes) {
  try {
    return new (std::nothrow)
        cna_rwlocktable(cna::core::RwLockKind::kCnaRwCompact, stripes);
  } catch (...) {
    return nullptr;
  }
}

void cna_rwlocktable_destroy(cna_rwlocktable_t* table) { delete table; }

int cna_rwlocktable_rdlock(cna_rwlocktable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->LockShared(key);
    return 0;
  });
}

int cna_rwlocktable_tryrdlock(cna_rwlocktable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall(
      [&] { return table->impl->TryLockShared(key) ? 0 : EBUSY; });
}

int cna_rwlocktable_wrlock(cna_rwlocktable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->Lock(key);
    return 0;
  });
}

int cna_rwlocktable_trywrlock(cna_rwlocktable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  return GuardedCall(
      [&] { return table->impl->TryLock(key) ? 0 : EBUSY; });
}

int cna_rwlocktable_unlock(cna_rwlocktable_t* table, uint64_t key) {
  if (table == nullptr) {
    return EINVAL;
  }
  // EPERM when this thread holds the key's stripe in neither mode.
  return GuardedCall([&] {
    table->impl->UnlockAny(key);
    return 0;
  });
}

int cna_rwlocktable_wrlock_many(cna_rwlocktable_t* table,
                                const uint64_t* keys, size_t count) {
  if (table == nullptr || (keys == nullptr && count != 0)) {
    return EINVAL;
  }
  return GuardedCall([&] {
    table->impl->LockMany(keys, count);
    return 0;
  });
}

int cna_rwlocktable_unlock_many(cna_rwlocktable_t* table,
                                const uint64_t* keys, size_t count) {
  if (table == nullptr || (keys == nullptr && count != 0)) {
    return EINVAL;
  }
  // EPERM when some stripe in the set is not held exclusively; the checked
  // release verifies the whole set first, so nothing is half-released.
  return GuardedCall([&] {
    table->impl->UnlockMany(keys, count);
    return 0;
  });
}

size_t cna_rwlocktable_stripes(const cna_rwlocktable_t* table) {
  return table == nullptr ? 0 : table->impl->Stripes();
}

size_t cna_rwlocktable_stripe_of(const cna_rwlocktable_t* table,
                                 uint64_t key) {
  return table == nullptr ? 0 : table->impl->StripeOf(key);
}

size_t cna_rwlocktable_state_bytes(const cna_rwlocktable_t* table) {
  return table == nullptr ? 0 : table->impl->LockStateBytes();
}

int cna_parking_get_stats(cna_parking_stats_t* out) {
  if (out == nullptr) {
    return EINVAL;
  }
  const cna::parking::ParkingLotStats s =
      cna::parking::ParkingLot<cna::RealPlatform>::Global().Stats();
  out->enqueues = s.enqueues;
  out->parks = s.parks;
  out->unparks = s.unparks;
  out->timeouts = s.timeouts;
  out->cancels = s.cancels;
  return 0;
}

size_t cna_parking_waiters(void) {
  return cna::parking::ParkingLot<cna::RealPlatform>::Global()
      .TotalWaitersApprox();
}

void cna_telemetry_enable(int on) { cna::telemetry::SetEnabled(on != 0); }

int cna_telemetry_enabled(void) {
  return cna::telemetry::Enabled() ? 1 : 0;
}

void cna_telemetry_trace_enable(int on) {
  cna::telemetry::SetTraceEnabled(on != 0);
}

void cna_telemetry_reset(void) {
  cna::telemetry::Registry::Global().ResetAll();
  cna::telemetry::ClearTrace();
}

char* cna_telemetry_export(int format) {
  std::string out;
  try {
    switch (format) {
      case CNA_TELEMETRY_FORMAT_TEXT:
        out = cna::telemetry::ToLockStatText(cna::telemetry::SnapshotAll());
        break;
      case CNA_TELEMETRY_FORMAT_JSON:
        out = cna::telemetry::ToJson(cna::telemetry::SnapshotAll());
        break;
      case CNA_TELEMETRY_FORMAT_PROMETHEUS:
        out = cna::telemetry::ToPrometheus(cna::telemetry::SnapshotAll());
        break;
      case CNA_TELEMETRY_FORMAT_CHROME:
        out = cna::telemetry::ToChromeTraceJson(cna::telemetry::CollectTrace());
        break;
      default:
        return nullptr;
    }
  } catch (...) {
    return nullptr;
  }
  char* buf = static_cast<char*>(std::malloc(out.size() + 1));
  if (buf == nullptr) {
    return nullptr;
  }
  std::memcpy(buf, out.c_str(), out.size() + 1);
  return buf;
}

void cna_telemetry_free(char* exported) { std::free(exported); }

namespace {

char* MallocString(const std::string& s) {
  char* buf = static_cast<char*>(std::malloc(s.size() + 1));
  if (buf == nullptr) {
    return nullptr;
  }
  std::memcpy(buf, s.c_str(), s.size() + 1);
  return buf;
}

// The serve endpoint the C surface manages (the global sampler backs its
// /series route).
cna::telemetry::TelemetryServer& GlobalServer() {
  static cna::telemetry::TelemetryServer server;
  return server;
}

}  // namespace

void cna_sampler_start(long interval_ms) {
  auto& sampler = cna::telemetry::Sampler::Global();
  if (interval_ms > 0) {
    sampler.set_interval_ns(static_cast<uint64_t>(interval_ms) * 1'000'000);
  }
  sampler.Start();
}

void cna_sampler_stop(void) { cna::telemetry::Sampler::Global().Stop(); }

void cna_sampler_tick(uint64_t now_ns) {
  cna::telemetry::Sampler::Global().Tick(now_ns);
}

uint64_t cna_sampler_ticks(void) {
  return cna::telemetry::Sampler::Global().ticks();
}

double cna_sampler_rate(const char* metric, size_t window) {
  if (metric == nullptr) {
    return 0.0;
  }
  return cna::telemetry::Sampler::Global().CounterRate(metric, window);
}

char* cna_sampler_series_json(size_t window) {
  try {
    return MallocString(
        cna::telemetry::Sampler::Global().SeriesJson(window));
  } catch (...) {
    return nullptr;
  }
}

void cna_sampler_rebaseline(void) {
  cna::telemetry::Sampler::Global().Rebaseline();
}

int cna_telemetry_serve_start(uint16_t port) {
  auto& server = GlobalServer();
  if (server.running()) {
    return static_cast<int>(server.port());
  }
  cna::telemetry::ServeOptions options;
  options.port = port;
  options.sampler = &cna::telemetry::Sampler::Global();
  if (!server.Start(options)) {
    return -1;
  }
  return static_cast<int>(server.port());
}

void cna_telemetry_serve_stop(void) { GlobalServer().Stop(); }

uint64_t cna_telemetry_serve_requests(void) {
  return GlobalServer().requests_served();
}

void cna_lockdep_enable(int on) {
  cna::telemetry::lockdep::SetEnabled(on != 0);
}

int cna_lockdep_enabled(void) {
  return cna::telemetry::lockdep::Enabled() ? 1 : 0;
}

uint64_t cna_lockdep_inversions(void) {
  return cna::telemetry::lockdep::InversionCount();
}

uint64_t cna_lockdep_park_while_held(void) {
  return cna::telemetry::lockdep::ParkWhileHeldCount();
}

char* cna_lockdep_report(void) {
  try {
    return MallocString(cna::telemetry::lockdep::ReportText());
  } catch (...) {
    return nullptr;
  }
}

char* cna_lockdep_dot(void) {
  try {
    return MallocString(cna::telemetry::lockdep::ReportDot());
  } catch (...) {
    return nullptr;
  }
}

char* cna_lockdep_folded(int weight_by_wait) {
  try {
    return MallocString(
        cna::telemetry::lockdep::FoldedStacks(weight_by_wait != 0));
  } catch (...) {
    return nullptr;
  }
}

void cna_lockdep_reset(void) { cna::telemetry::lockdep::Reset(); }

}  // extern "C"
