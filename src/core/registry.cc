#include "core/registry.h"

#include <stdexcept>
#include <string>

#include "platform/real_platform.h"

namespace cna::core {

const std::vector<LockKind>& AllLockKinds() {
  static const std::vector<LockKind> kinds = {
      LockKind::kMcs,        LockKind::kCna,
      LockKind::kTas,
      LockKind::kTtas,       LockKind::kBackoffTas,
      LockKind::kTicket,     LockKind::kPartitionedTicket,
      LockKind::kClh,        LockKind::kHbo,
      LockKind::kCBoMcs,     LockKind::kCTktTkt,
      LockKind::kCPtlTkt,    LockKind::kHmcs,
      LockKind::kCst,        LockKind::kMcscr,
      LockKind::kQspinMcs,   LockKind::kQspinCna,
      LockKind::kQspinCnaParked,
  };
  return kinds;
}

std::string_view LockKindName(LockKind kind) {
  switch (kind) {
    case LockKind::kMcs: return "mcs";
    case LockKind::kCna: return "cna";
    case LockKind::kTas: return "tas";
    case LockKind::kTtas: return "ttas";
    case LockKind::kBackoffTas: return "tas-backoff";
    case LockKind::kTicket: return "ticket";
    case LockKind::kPartitionedTicket: return "ptl";
    case LockKind::kClh: return "clh";
    case LockKind::kHbo: return "hbo";
    case LockKind::kCBoMcs: return "c-bo-mcs";
    case LockKind::kCTktTkt: return "c-tkt-tkt";
    case LockKind::kCPtlTkt: return "c-ptl-tkt";
    case LockKind::kHmcs: return "hmcs";
    case LockKind::kCst: return "cst";
    case LockKind::kMcscr: return "mcscr";
    case LockKind::kQspinMcs: return "qspin-mcs";
    case LockKind::kQspinCna: return "qspin-cna";
    case LockKind::kQspinCnaParked: return "qspin-cna-parked";
  }
  return "unknown";
}

std::string_view LockKindDescription(LockKind kind) {
  switch (kind) {
    case LockKind::kMcs:
      return "MCS queue lock (Mellor-Crummey & Scott 1991), NUMA-oblivious";
    case LockKind::kCna:
      return "Compact NUMA-aware lock (Dice & Kogan, EuroSys 2019)";
    case LockKind::kTas:
      return "test-and-set spin lock, global spinning";
    case LockKind::kTtas:
      return "test-and-test-and-set spin lock";
    case LockKind::kBackoffTas:
      return "test-and-set with randomized exponential backoff";
    case LockKind::kTicket:
      return "ticket lock, FIFO, global spinning";
    case LockKind::kPartitionedTicket:
      return "partitioned ticket lock (Dice 2011)";
    case LockKind::kClh:
      return "CLH queue lock";
    case LockKind::kHbo:
      return "hierarchical backoff lock (Radovic & Hagersten, HPCA 2003)";
    case LockKind::kCBoMcs:
      return "Cohort lock: global backoff-TAS over per-socket MCS";
    case LockKind::kCTktTkt:
      return "Cohort lock: ticket over per-socket ticket";
    case LockKind::kCPtlTkt:
      return "Cohort lock: partitioned ticket over per-socket ticket";
    case LockKind::kHmcs:
      return "hierarchical MCS (Chabbi et al., PPoPP 2015)";
    case LockKind::kCst:
      return "CST-style lock with lazily allocated per-socket state";
    case LockKind::kMcscr:
      return "Malthusian MCS: culling + reinjection (Dice, EuroSys 2017)";
    case LockKind::kQspinMcs:
      return "Linux qspinlock, stock MCS slow path (4-byte word)";
    case LockKind::kQspinCna:
      return "Linux qspinlock with CNA slow path (the paper's kernel patch)";
    case LockKind::kQspinCnaParked:
      return "CNA qspinlock whose queued waiters spin-then-park (blocking)";
  }
  return "";
}

std::optional<LockKind> LockKindFromName(std::string_view name) {
  for (LockKind k : AllLockKinds()) {
    if (LockKindName(k) == name) {
      return k;
    }
  }
  return std::nullopt;
}

bool IsNumaAware(LockKind kind) {
  switch (kind) {
    case LockKind::kCna:
    case LockKind::kHbo:
    case LockKind::kCBoMcs:
    case LockKind::kCTktTkt:
    case LockKind::kCPtlTkt:
    case LockKind::kHmcs:
    case LockKind::kCst:
    case LockKind::kQspinCna:
    case LockKind::kQspinCnaParked:
      return true;
    default:
      return false;
  }
}

const std::vector<RwLockKind>& AllRwLockKinds() {
  static const std::vector<RwLockKind> kinds = {
      RwLockKind::kCnaRw,
      RwLockKind::kCnaRwCompact,
  };
  return kinds;
}

std::string_view RwLockKindName(RwLockKind kind) {
  switch (kind) {
    case RwLockKind::kCnaRw: return "cna-rw";
    case RwLockKind::kCnaRwCompact: return "cna-rw-compact";
  }
  return "unknown";
}

std::string_view RwLockKindDescription(RwLockKind kind) {
  switch (kind) {
    case RwLockKind::kCnaRw:
      return "CNA writer queue + per-socket padded reader counters "
             "(BRAVO/cohort-style read side)";
    case RwLockKind::kCnaRwCompact:
      return "one-word (8-byte) qrwlock layout: reader count word + 4-byte "
             "qspinlock with the CNA slow path";
  }
  return "";
}

std::optional<RwLockKind> RwLockKindFromName(std::string_view name) {
  for (RwLockKind k : AllRwLockKinds()) {
    if (RwLockKindName(k) == name) {
      return k;
    }
  }
  return std::nullopt;
}

Mutex::Mutex(LockKind kind) : impl_(MakeLock<RealPlatform>(kind)) {}

Mutex::Mutex(std::string_view name) {
  auto kind = LockKindFromName(name);
  if (!kind.has_value()) {
    throw std::invalid_argument("cna::core::Mutex: unknown lock name \"" +
                                std::string(name) + "\"");
  }
  impl_ = MakeLock<RealPlatform>(*kind);
}

ShardedMutex::ShardedMutex(LockKind kind, std::size_t stripes)
    : impl_(MakeLockTable<RealPlatform>(
          kind, locktable::LockTableOptions{.stripes = stripes})) {}

ShardedMutex::ShardedMutex(std::string_view name, std::size_t stripes) {
  auto kind = LockKindFromName(name);
  if (!kind.has_value()) {
    throw std::invalid_argument(
        "cna::core::ShardedMutex: unknown lock name \"" + std::string(name) +
        "\"");
  }
  impl_ = MakeLockTable<RealPlatform>(
      *kind, locktable::LockTableOptions{.stripes = stripes});
}

AdaptiveShardedMutex::AdaptiveShardedMutex(LockKind kind,
                                           std::size_t initial_stripes)
    : impl_(MakeResizableLockTable<RealPlatform>(
          kind,
          locktable::ResizableLockTableOptions{.stripes = initial_stripes,
                                              .policy = {}})) {}

AdaptiveShardedMutex::AdaptiveShardedMutex(
    LockKind kind, const locktable::ResizableLockTableOptions& options)
    : impl_(MakeResizableLockTable<RealPlatform>(kind, options)) {}

AdaptiveShardedMutex::AdaptiveShardedMutex(std::string_view name,
                                           std::size_t initial_stripes) {
  auto kind = LockKindFromName(name);
  if (!kind.has_value()) {
    throw std::invalid_argument(
        "cna::core::AdaptiveShardedMutex: unknown lock name \"" +
        std::string(name) + "\"");
  }
  impl_ = MakeResizableLockTable<RealPlatform>(
      *kind, locktable::ResizableLockTableOptions{.stripes = initial_stripes,
                                              .policy = {}});
}

SharedMutex::SharedMutex(RwLockKind kind)
    : impl_(MakeRwLock<RealPlatform>(kind)) {}

SharedMutex::SharedMutex(std::string_view name) {
  auto kind = RwLockKindFromName(name);
  if (!kind.has_value()) {
    throw std::invalid_argument(
        "cna::core::SharedMutex: unknown rwlock name \"" + std::string(name) +
        "\"");
  }
  impl_ = MakeRwLock<RealPlatform>(*kind);
}

ShardedSharedMutex::ShardedSharedMutex(RwLockKind kind, std::size_t stripes)
    : impl_(MakeRwLockTable<RealPlatform>(
          kind, locktable::LockTableOptions{.stripes = stripes})) {}

ShardedSharedMutex::ShardedSharedMutex(std::string_view name,
                                       std::size_t stripes) {
  auto kind = RwLockKindFromName(name);
  if (!kind.has_value()) {
    throw std::invalid_argument(
        "cna::core::ShardedSharedMutex: unknown rwlock name \"" +
        std::string(name) + "\"");
  }
  impl_ = MakeRwLockTable<RealPlatform>(
      *kind, locktable::LockTableOptions{.stripes = stripes});
}

}  // namespace cna::core
