#include "sim/machine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <sstream>

#include "telemetry/lockdep.h"

namespace cna::sim {

namespace {

thread_local Machine* g_active_machine = nullptr;

constexpr std::uintptr_t LineOf(std::uintptr_t addr) { return addr >> 6; }

// Synthetic addresses for shared regions live far above any real heap
// address (bit 62 set) so they can never alias real atomics.
constexpr std::uintptr_t RegionAddr(std::uint32_t region,
                                    std::uint64_t line) {
  return (std::uintptr_t{1} << 62) |
         (static_cast<std::uintptr_t>(region) << 40) |
         static_cast<std::uintptr_t>(line << 6);
}

}  // namespace

ActiveMachineScope::ActiveMachineScope(Machine* m)
    : previous_(g_active_machine) {
  g_active_machine = m;
}

ActiveMachineScope::~ActiveMachineScope() { g_active_machine = previous_; }

Machine* Machine::Active() { return g_active_machine; }

Machine::Machine(MachineConfig config)
    : config_([&config] {
        if (config.topology.NumCpus() > kMaxSimCpus) {
          throw std::invalid_argument(
              "sim::Machine: topology exceeds kMaxSimCpus");
        }
        return std::move(config);
      }()),
      cpu_of_next_spawn_(static_cast<std::size_t>(config_.topology.NumSockets()), 0),
      cpu_used_(static_cast<std::size_t>(config_.topology.NumCpus()), false),
      cpu_stats_(static_cast<std::size_t>(config_.topology.NumCpus())),
      machine_rng_(XorShift64::FromSeed(config_.seed)) {
  directory_.reserve(1 << 14);
}

Machine::~Machine() = default;

int Machine::Spawn(std::function<void()> body) {
  const int sockets = config_.topology.NumSockets();
  // Scatter: fiber i lands on socket i % sockets; pack: fill sockets in order.
  const int fiber_index = static_cast<int>(fibers_.size());
  int socket;
  if (config_.placement == Placement::kScatterAcrossSockets) {
    socket = fiber_index % sockets;
  } else {
    socket = 0;
  }
  // Find the next unused CPU on the chosen socket (for pack placement, move
  // to the next socket when one fills up).
  for (int attempts = 0; attempts < sockets; ++attempts) {
    const std::vector<int> cpus = config_.topology.CpusOfSocket(socket);
    for (int cpu : cpus) {
      if (!cpu_used_[static_cast<std::size_t>(cpu)]) {
        return SpawnOnCpu(cpu, std::move(body));
      }
    }
    socket = (socket + 1) % sockets;
  }
  throw std::runtime_error("Machine::Spawn: no free CPUs");
}

int Machine::SpawnOnCpu(int cpu, std::function<void()> body) {
  if (running_) {
    throw std::logic_error("Machine::SpawnOnCpu: machine already running");
  }
  if (cpu < 0 || cpu >= config_.topology.NumCpus() ||
      cpu_used_[static_cast<std::size_t>(cpu)]) {
    throw std::invalid_argument("Machine::SpawnOnCpu: bad or busy CPU");
  }
  cpu_used_[static_cast<std::size_t>(cpu)] = true;
  auto fiber = std::make_unique<internal::Fiber>();
  fiber->body = std::move(body);
  fiber->cpu = cpu;
  fiber->socket = config_.topology.SocketOfCpu(cpu);
  fiber->stack.resize(config_.fiber_stack_bytes);
  fiber->rng = XorShift64::FromSeed(config_.seed * 0x9e3779b97f4a7c15ull +
                                    static_cast<std::uint64_t>(cpu) + 1);
  fiber->machine = this;
  fibers_.push_back(std::move(fiber));
  return cpu;
}

void Machine::FiberTrampoline(unsigned hi, unsigned lo) {
  auto* fiber = reinterpret_cast<internal::Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  fiber->machine->RunFiberBody(fiber);
}

void Machine::RunFiberBody(internal::Fiber* fiber) {
  fiber->body();
  fiber->state = internal::FiberState::kDone;
  // Return to the scheduler; never come back.
  swapcontext(&fiber->context, &scheduler_context_);
}

void Machine::Run() {
  if (fibers_.empty()) {
    return;
  }
  ActiveMachineScope scope(this);
  running_ = true;
  const std::uint64_t lockdep_inversions_before =
      config_.lockdep_check ? telemetry::lockdep::InversionCount() : 0;
  // Prepare contexts.
  for (auto& f : fibers_) {
    getcontext(&f->context);
    f->context.uc_stack.ss_sp = f->stack.data();
    f->context.uc_stack.ss_size = f->stack.size();
    f->context.uc_link = &scheduler_context_;
    const auto p = reinterpret_cast<std::uintptr_t>(f.get());
    makecontext(&f->context, reinterpret_cast<void (*)()>(&FiberTrampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
  }
  while (true) {
    const int next = PickNextFiber();
    if (next < 0) {
      // No runnable fiber and no pending park deadline.  If any fiber is
      // parked, that is a deadlock.
      bool any_parked = false;
      for (const auto& f : fibers_) {
        any_parked |= f->state == internal::FiberState::kParked;
      }
      if (any_parked) {
        running_ = false;
        std::ostringstream os;
        os << "Machine::Run: deadlock -- parked fibers with no writer:";
        for (std::size_t i = 0; i < fibers_.size(); ++i) {
          if (fibers_[i]->state == internal::FiberState::kParked) {
            os << " cpu" << fibers_[i]->cpu;
            if (fibers_[i]->parked_on_addr != 0) {
              os << "@addr0x" << std::hex << fibers_[i]->parked_on_addr
                 << std::dec;
            } else {
              os << "@line0x" << std::hex << fibers_[i]->parked_on_line
                 << std::dec;
            }
          }
        }
        throw std::logic_error(os.str());
      }
      break;  // all done
    }
    internal::Fiber& f = *fibers_[static_cast<std::size_t>(next)];
    if (f.state == internal::FiberState::kParked) {
      // A timed address park whose deadline is the smallest clock in the
      // system: fire the timeout deterministically, then run the fiber.
      RemoveAddrWaiter(f.parked_on_addr, next);
      WakeAddrParked(f, f.park_deadline_ns, /*woken=*/false);
    }
    current_fiber_ = next;
    swapcontext(&scheduler_context_, &f.context);
    current_fiber_ = -1;
  }
  running_ = false;
  final_time_ns_ = 0;
  for (const auto& f : fibers_) {
    final_time_ns_ = std::max(final_time_ns_, f->clock_ns);
  }
  if (config_.lockdep_check &&
      telemetry::lockdep::InversionCount() > lockdep_inversions_before) {
    // The run completed, but some schedule recorded a cycle-closing lock
    // order: a different seed could have deadlocked.  Surface the witness.
    throw std::logic_error("Machine::Run: lockdep recorded a lock-order "
                           "inversion during this schedule\n" +
                           telemetry::lockdep::ReportText());
  }
}

std::uint64_t Machine::EffectiveClock(const internal::Fiber& f) const {
  if (f.state == internal::FiberState::kRunnable) {
    return f.clock_ns;
  }
  if (f.state == internal::FiberState::kParked && f.parked_on_addr != 0 &&
      f.park_deadline_ns != kNoParkDeadline) {
    return f.park_deadline_ns;
  }
  return kNoParkDeadline;
}

int Machine::PickNextFiber() const {
  int best = -1;
  std::uint64_t best_clock = kNoParkDeadline;
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    const std::uint64_t eff = EffectiveClock(*fibers_[i]);
    if (eff == kNoParkDeadline) {
      continue;
    }
    if (best < 0 || eff < best_clock) {
      best = static_cast<int>(i);
      best_clock = eff;
    }
  }
  return best;
}

internal::Fiber& Machine::Cur() {
  assert(current_fiber_ >= 0);
  return *fibers_[static_cast<std::size_t>(current_fiber_)];
}

const internal::Fiber& Machine::Cur() const {
  assert(current_fiber_ >= 0);
  return *fibers_[static_cast<std::size_t>(current_fiber_)];
}

namespace {

constexpr bool TestCpuBit(const std::uint64_t* mask, int cpu) {
  return (mask[cpu >> 6] >> (cpu & 63)) & 1;
}

constexpr void SetCpuBit(std::uint64_t* mask, int cpu) {
  mask[cpu >> 6] |= std::uint64_t{1} << (cpu & 63);
}

constexpr bool OnlyCpuBit(const std::uint64_t* mask, int cpu) {
  for (int w = 0; w < 3; ++w) {
    const std::uint64_t expect =
        (cpu >> 6) == w ? (std::uint64_t{1} << (cpu & 63)) : 0;
    if (mask[w] != expect) {
      return false;
    }
  }
  return true;
}

constexpr void ClearToCpuBit(std::uint64_t* mask, int cpu) {
  mask[0] = mask[1] = mask[2] = 0;
  SetCpuBit(mask, cpu);
}

}  // namespace

std::uint64_t Machine::ChargeAccess(std::uintptr_t line, AccessKind kind) {
  internal::Fiber& f = Cur();
  LineState& st = directory_[line];
  const std::uint32_t my_socket_bit = 1u << f.socket;
  const LatencyConfig& lat = config_.latency;

  std::uint64_t cost;
  CacheStats& cs = cpu_stats_[static_cast<std::size_t>(f.cpu)];
  const bool cold = st.socket_mask == 0;
  if (kind == AccessKind::kLoad) {
    ++cs.loads;
    ++total_stats_.loads;
    if (TestCpuBit(st.cpu_mask, f.cpu)) {
      cost = lat.cache_hit_ns;  // own copy still valid
      ++cs.hits;
      ++total_stats_.hits;
    } else if (cold) {
      cost = lat.local_miss_ns;  // from DRAM
      ++cs.local_misses;
      ++total_stats_.local_misses;
    } else if (st.socket_mask & my_socket_bit) {
      cost = lat.socket_transfer_ns;  // another core on my socket has it
      ++cs.socket_transfers;
      ++total_stats_.socket_transfers;
    } else {
      cost = lat.remote_miss_ns;  // fetched across the socket interconnect
      ++cs.remote_misses;
      ++total_stats_.remote_misses;
    }
    SetCpuBit(st.cpu_mask, f.cpu);
    st.socket_mask |= my_socket_bit;
  } else {
    const bool rmw = kind == AccessKind::kRmw;
    if (rmw) {
      ++cs.rmws;
      ++total_stats_.rmws;
    } else {
      ++cs.stores;
      ++total_stats_.stores;
    }
    if (OnlyCpuBit(st.cpu_mask, f.cpu)) {
      cost = lat.cache_hit_ns;  // already exclusive in my core
      ++cs.hits;
      ++total_stats_.hits;
    } else if (cold) {
      cost = lat.local_miss_ns;
      ++cs.local_misses;
      ++total_stats_.local_misses;
    } else if (st.socket_mask == my_socket_bit) {
      cost = lat.socket_transfer_ns;  // invalidate same-socket peers only
      ++cs.socket_transfers;
      ++total_stats_.socket_transfers;
    } else {
      cost = lat.remote_miss_ns;  // cross-socket ownership transfer
      ++cs.remote_misses;
      ++total_stats_.remote_misses;
    }
    ClearToCpuBit(st.cpu_mask, f.cpu);  // writer becomes the sole owner
    st.socket_mask = my_socket_bit;
    if (rmw) {
      cost += lat.atomic_extra_ns;
    }
  }
  f.clock_ns += cost;
  return cost;
}

void Machine::OnLoad(std::uintptr_t addr) {
  ChargeAccess(LineOf(addr), AccessKind::kLoad);
  MaybeYield();
}

bool Machine::SpinParkIfUnchanged(std::uintptr_t addr,
                                  std::uint64_t value_bits) {
  internal::Fiber& f = Cur();
  const std::uintptr_t line = LineOf(addr);
  if (line == f.last_load_line && value_bits == f.last_load_bits) {
    if (++f.consecutive_loads >= config_.spin_park_threshold) {
      ParkCurrentOn(line);
      return true;  // woken by a value change on the line; re-read needed
    }
  } else {
    f.last_load_line = line;
    f.last_load_bits = value_bits;
    f.consecutive_loads = 1;
  }
  return false;
}

void Machine::OnStore(std::uintptr_t addr) {
  internal::Fiber& f = Cur();
  f.last_load_line = 0;
  f.consecutive_loads = 0;
  ChargeAccess(LineOf(addr), AccessKind::kStore);
}

void Machine::OnRmw(std::uintptr_t addr) {
  internal::Fiber& f = Cur();
  f.last_load_line = 0;
  f.consecutive_loads = 0;
  ChargeAccess(LineOf(addr), AccessKind::kRmw);
}

void Machine::NotifyValueChanged(std::uintptr_t addr) {
  const std::uintptr_t line = LineOf(addr);
  auto it = parked_waiters_.find(line);
  if (it == parked_waiters_.end()) {
    return;
  }
  const std::uint64_t writer_clock = Cur().clock_ns;
  for (int idx : it->second) {
    internal::Fiber& w = *fibers_[static_cast<std::size_t>(idx)];
    if (w.state == internal::FiberState::kParked) {
      w.state = internal::FiberState::kRunnable;
      w.clock_ns = std::max(w.clock_ns, writer_clock);
      w.parked_on_line = 0;
      w.last_load_line = 0;
      w.consecutive_loads = 0;
      ++total_stats_.wakeups;
    }
  }
  parked_waiters_.erase(it);
}

void Machine::ParkCurrentOn(std::uintptr_t line) {
  internal::Fiber& f = Cur();
  f.state = internal::FiberState::kParked;
  f.parked_on_line = line;
  f.last_load_line = 0;
  f.consecutive_loads = 0;
  ++total_stats_.parks;
  parked_waiters_[line].push_back(current_fiber_);
  SwitchToScheduler();
}

void Machine::SwitchToScheduler() {
  internal::Fiber& f = Cur();
  swapcontext(&f.context, &scheduler_context_);
}

void Machine::MaybeYield() {
  // Keep running while we are still the minimum-clock runnable fiber; this
  // preserves the deterministic clock-ordered interleaving while avoiding a
  // context switch per memory access.
  const internal::Fiber& me = Cur();
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    if (static_cast<int>(i) == current_fiber_) {
      continue;
    }
    // Timed address parks count: their deadline is a scheduling event that
    // must fire in clock order like any other fiber step.
    if (EffectiveClock(*fibers_[i]) < me.clock_ns) {
      const int saved = current_fiber_;
      SwitchToScheduler();
      (void)saved;
      return;
    }
  }
}

void Machine::OnLoadNoYield(std::uintptr_t addr) {
  internal::Fiber& f = Cur();
  f.last_load_line = 0;
  f.consecutive_loads = 0;
  ChargeAccess(LineOf(addr), AccessKind::kLoad);
}

bool Machine::ParkCurrentOnAddr(std::uintptr_t addr, std::uint64_t timeout_ns) {
  internal::Fiber& f = Cur();
  f.state = internal::FiberState::kParked;
  f.parked_on_addr = addr;
  f.park_deadline_ns =
      timeout_ns == 0 ? kNoParkDeadline : f.clock_ns + timeout_ns;
  f.park_woken = false;
  f.last_load_line = 0;
  f.consecutive_loads = 0;
  ++total_stats_.parks;
  addr_waiters_[addr].push_back(current_fiber_);
  SwitchToScheduler();
  // Resumed by UnparkOne/AllAddr (park_woken) or by deadline expiry; the
  // waker/scheduler already cleared the park fields and fixed the clock.
  return f.park_woken;
}

void Machine::WakeAddrParked(internal::Fiber& w, std::uint64_t waker_clock,
                             bool woken) {
  w.state = internal::FiberState::kRunnable;
  w.clock_ns = std::max(w.clock_ns, waker_clock);
  w.parked_on_addr = 0;
  w.park_deadline_ns = 0;
  w.park_woken = woken;
  if (woken) {
    ++total_stats_.wakeups;
  }
}

void Machine::RemoveAddrWaiter(std::uintptr_t addr, int fiber_index) {
  auto it = addr_waiters_.find(addr);
  if (it == addr_waiters_.end()) {
    return;
  }
  auto& v = it->second;
  v.erase(std::remove(v.begin(), v.end(), fiber_index), v.end());
  if (v.empty()) {
    addr_waiters_.erase(it);
  }
}

void Machine::UnparkOneAddr(std::uintptr_t addr) {
  auto it = addr_waiters_.find(addr);
  if (it == addr_waiters_.end()) {
    return;
  }
  const std::uint64_t waker_clock = current_fiber_ >= 0 ? Cur().clock_ns : 0;
  const int idx = it->second.front();
  it->second.erase(it->second.begin());
  if (it->second.empty()) {
    addr_waiters_.erase(it);
  }
  WakeAddrParked(*fibers_[static_cast<std::size_t>(idx)], waker_clock,
                 /*woken=*/true);
}

void Machine::UnparkAllAddr(std::uintptr_t addr) {
  auto it = addr_waiters_.find(addr);
  if (it == addr_waiters_.end()) {
    return;
  }
  const std::uint64_t waker_clock = current_fiber_ >= 0 ? Cur().clock_ns : 0;
  const std::vector<int> waiters = std::move(it->second);
  addr_waiters_.erase(it);
  for (int idx : waiters) {
    WakeAddrParked(*fibers_[static_cast<std::size_t>(idx)], waker_clock,
                   /*woken=*/true);
  }
}

std::size_t Machine::AddrWaiters(std::uintptr_t addr) const {
  auto it = addr_waiters_.find(addr);
  return it == addr_waiters_.end() ? 0 : it->second.size();
}

void Machine::PauseHint() {
  internal::Fiber& f = Cur();
  f.clock_ns += config_.latency.pause_ns;
  MaybeYield();
}

void Machine::AdvanceLocalWork(std::uint64_t ns) {
  internal::Fiber& f = Cur();
  f.clock_ns += ns;
  f.last_load_line = 0;
  f.consecutive_loads = 0;
  MaybeYield();
}

void Machine::AccessSharedRegion(std::uint32_t region, std::uint64_t first_line,
                                 std::uint32_t count, bool write) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uintptr_t addr = RegionAddr(region, first_line + i);
    internal::Fiber& f = Cur();
    f.last_load_line = 0;
    f.consecutive_loads = 0;
    ChargeAccess(LineOf(addr), write ? AccessKind::kStore : AccessKind::kLoad);
  }
  MaybeYield();
}

int Machine::CurrentCpu() const { return Cur().cpu; }
int Machine::CurrentSocket() const { return Cur().socket; }
std::uint64_t Machine::NowNs() const { return Cur().clock_ns; }
std::uint64_t Machine::Random() { return Cur().rng.Next(); }
std::uint64_t& Machine::TlsSlot() { return Cur().tls_slot; }

std::size_t Machine::NextContextLocalSlot() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

CacheStats Machine::CpuStats(int cpu) const {
  if (cpu < 0 || cpu >= static_cast<int>(cpu_stats_.size())) {
    return CacheStats{};
  }
  return cpu_stats_[static_cast<std::size_t>(cpu)];
}

}  // namespace cna::sim
