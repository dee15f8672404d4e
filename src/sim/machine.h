// Deterministic NUMA machine simulator.
//
// The paper's evaluation ran on 2-socket (72 CPU) and 4-socket (144 CPU)
// Xeons.  This environment has one CPU and one NUMA node, so the evaluation
// hardware is substituted by this simulator (see DESIGN.md §1).  The model is
// deliberately minimal but captures precisely the phenomenon CNA exploits:
//
//  * Memory is modelled at cache-line granularity.  A directory tracks, per
//    line, the set of sockets that currently cache it.
//  * A read costs kCacheHit if the reader's socket holds the line, kLocalMiss
//    if no socket holds it (cold / memory), and kRemoteMiss if another socket
//    holds it (inter-socket transfer).
//  * A write (or atomic RMW) needs socket exclusivity: it is a hit only if
//    the writer's socket is the sole holder; otherwise it invalidates remote
//    copies at kRemoteMiss cost.  This creates exactly the lock-word and
//    critical-section-data ping-pong that NUMA-aware locks eliminate.
//  * Each simulated CPU runs one cooperatively-scheduled fiber with a local
//    clock; the scheduler always resumes the runnable fiber with the smallest
//    clock, so the interleaving is a deterministic function of the
//    configuration and seed.
//  * Pure load spin-loops are detected and "parked": the fiber sleeps until
//    another fiber changes the spun-on line.  This is both a simulation
//    speed-up and a faithful model of local spinning -- a spinning core
//    generates no coherence traffic until the line it caches is invalidated.
//
// Latency defaults follow published Haswell-EP numbers in spirit: an L3 hit
// on the local socket is ~a few ns, a remote-socket transfer is an order of
// magnitude more, and the 4-socket (glued QPI) remote path is costlier still
// -- which is the paper's own explanation for the larger CNA win on the
// 4-socket box (Section 7.1.1).
#ifndef CNA_SIM_MACHINE_H_
#define CNA_SIM_MACHINE_H_

#include <ucontext.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "numa/topology.h"

namespace cna::sim {

// Memory-access latencies in simulated nanoseconds.  Three locality levels,
// mirroring a multi-socket Xeon's memory system:
//   cache_hit_ns        -- line already in the accessing core's own cache
//   socket_transfer_ns  -- line held by another core on the SAME socket
//                          (L3/ring transfer)
//   local_miss_ns       -- cold line, served from local DRAM
//   remote_miss_ns      -- line held by ANOTHER socket (QPI hop + snoop);
//                          the cost CNA exists to avoid
struct LatencyConfig {
  std::uint64_t cache_hit_ns = 2;
  std::uint64_t socket_transfer_ns = 30;
  std::uint64_t local_miss_ns = 90;
  std::uint64_t remote_miss_ns = 150;
  std::uint64_t atomic_extra_ns = 8;  // RMW surcharge on top of the above
  std::uint64_t pause_ns = 3;         // CPU_PAUSE cost inside spin loops

  // The paper's 2-socket box: remote/local throughput drop 5.3 -> 1.7 ops/us;
  // the 4-socket box drops 6.2 -> 1.5 and shows ~2x the CNA gain.  We model
  // that with a costlier remote hop (glued QPI topology).
  static LatencyConfig TwoSocketXeon() { return LatencyConfig{}; }
  static LatencyConfig FourSocketXeon() {
    LatencyConfig lat;
    lat.remote_miss_ns = 300;
    return lat;
  }
};

// How Spawn() assigns fibers to CPUs.
enum class Placement {
  // Thread i goes to socket i % sockets (next free CPU there).  Models the
  // paper's unpinned runs where the OS spreads threads across sockets; makes
  // even 2 threads contend across sockets, reproducing the 1->2 collapse.
  kScatterAcrossSockets,
  // Fill socket 0 first, then socket 1, ...
  kPackSockets,
};

struct MachineConfig {
  numa::Topology topology = numa::Topology::PaperTwoSocket();
  LatencyConfig latency = LatencyConfig::TwoSocketXeon();
  Placement placement = Placement::kScatterAcrossSockets;
  std::uint64_t seed = 1;
  std::size_t fiber_stack_bytes = 128 * 1024;
  // Consecutive same-line loads before a fiber is parked as a spinner.
  int spin_park_threshold = 4;
  // Schedule-exploration gate: when set, Run() throws std::logic_error if
  // the run recorded any new lock-order inversion (telemetry/lockdep.h) --
  // sweeping seeds then asserts no schedule can form a cycle-closing edge.
  bool lockdep_check = false;

  static MachineConfig TwoSocket() { return MachineConfig{}; }
  static MachineConfig FourSocket() {
    MachineConfig cfg;
    cfg.topology = numa::Topology::PaperFourSocket();
    cfg.latency = LatencyConfig::FourSocketXeon();
    return cfg;
  }
};

// Aggregate coherence statistics (sum over all CPUs unless noted).
struct CacheStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t rmws = 0;
  std::uint64_t hits = 0;             // own-core cache hits
  std::uint64_t socket_transfers = 0; // cross-core, same-socket transfers
  std::uint64_t local_misses = 0;     // cold lines (local DRAM)
  std::uint64_t remote_misses = 0;    // cross-socket transfers
  std::uint64_t parks = 0;
  std::uint64_t wakeups = 0;

  std::uint64_t Accesses() const { return loads + stores + rmws; }
  // The Figure 7 quantity: share of memory accesses that cross sockets.
  double RemoteMissRate() const {
    const std::uint64_t a = Accesses();
    return a == 0 ? 0.0 : static_cast<double>(remote_misses) /
                              static_cast<double>(a);
  }
};

class Machine;

namespace internal {

enum class FiberState { kRunnable, kParked, kDone };

struct Fiber {
  ucontext_t context;
  std::vector<char> stack;
  std::function<void()> body;
  FiberState state = FiberState::kRunnable;
  std::uint64_t clock_ns = 0;
  int cpu = -1;
  int socket = -1;
  XorShift64 rng{1};
  std::uint64_t tls_slot = 0;
  // Machine::ContextLocal instances, indexed by per-type slot.
  std::vector<std::shared_ptr<void>> locals;
  // Spin detection: line + value bits of the last load, and how many times
  // the same unchanged value has been re-read in a row.
  std::uintptr_t last_load_line = 0;
  std::uint64_t last_load_bits = 0;
  int consecutive_loads = 0;
  std::uintptr_t parked_on_line = 0;
  // Address parking (futex-shape, ParkCurrentOnAddr): the word the fiber is
  // blocked on, its wake deadline on the simulated clock (kNoParkDeadline =
  // wait forever), and whether the wake was an explicit unpark.
  std::uintptr_t parked_on_addr = 0;
  std::uint64_t park_deadline_ns = 0;
  bool park_woken = false;
  Machine* machine = nullptr;
};

}  // namespace internal

// The simulated machine.  Single real-threaded: Run() multiplexes all fibers
// on the calling thread, which is what makes the simulation deterministic.
class Machine {
 public:
  explicit Machine(MachineConfig config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Registers a simulated thread.  Must be called before Run().  Returns the
  // CPU the fiber was placed on.  Throws if the machine is out of CPUs.
  int Spawn(std::function<void()> body);
  int SpawnOnCpu(int cpu, std::function<void()> body);

  // Runs all fibers to completion.  Throws std::logic_error on deadlock
  // (every live fiber parked with nobody left to wake it).
  void Run();

  // --- Interface used by sim::Atomic and SimPlatform (fiber context only) ---

  // The machine currently executing a fiber on this OS thread, or nullptr.
  static Machine* Active();
  bool InFiber() const { return current_fiber_ >= 0; }

  // Charges a load/store/RMW on the line containing `addr` and advances the
  // current fiber's clock.
  void OnLoad(std::uintptr_t addr);
  void OnStore(std::uintptr_t addr);
  void OnRmw(std::uintptr_t addr);
  // Spin detection: called by sim::Atomic after each load with the loaded
  // value's bit pattern.  If the fiber has re-read the same unchanged value
  // several times, it is parked until another fiber changes the line, and
  // true is returned -- the caller must then re-charge the load and re-read.
  // The value comparison is what makes parking deadlock-free: a spinner whose
  // awaited value already arrived never parks.
  bool SpinParkIfUnchanged(std::uintptr_t addr, std::uint64_t value_bits);
  // Wakes spinners parked on `addr`'s line; call after a value-changing
  // store/RMW.
  void NotifyValueChanged(std::uintptr_t addr);
  // Cooperative yield: switches to another fiber if one has a smaller clock.
  void MaybeYield();

  // Charges a load on `addr`'s line WITHOUT yielding and without the
  // spin-park heuristic.  SimPlatform::Park uses it for the value recheck
  // immediately before parking: because no other fiber can run between the
  // recheck and ParkCurrentOnAddr, check-then-park is atomic -- the
  // simulator's equivalent of FUTEX_WAIT's in-kernel compare.
  void OnLoadNoYield(std::uintptr_t addr);

  // --- Futex-shape address parking (SimPlatform::Park/Unpark*) ---
  //
  // Unlike the SpinParkIfUnchanged machinery above (which wakes on ANY value
  // change of the line), address parks wake only on an explicit
  // UnparkOneAddr/UnparkAllAddr or on deadline expiry -- futex semantics.
  // Deadline expiry is deterministic: the scheduler treats a timed-parked
  // fiber as runnable-at-deadline, so it competes on the clock like any
  // other fiber.  Infinitely-parked fibers join the deadlock check.
  //
  // Returns true if explicitly unparked, false if the deadline fired.
  bool ParkCurrentOnAddr(std::uintptr_t addr, std::uint64_t timeout_ns);
  // Wakes the longest-parked waiter on `addr` (FIFO), if any.
  void UnparkOneAddr(std::uintptr_t addr);
  void UnparkAllAddr(std::uintptr_t addr);
  // Number of fibers currently address-parked on `addr` (tests).
  std::size_t AddrWaiters(std::uintptr_t addr) const;

  static constexpr std::uint64_t kNoParkDeadline = ~std::uint64_t{0};

  void PauseHint();                      // CPU_PAUSE: small cost + yield
  void AdvanceLocalWork(std::uint64_t ns);  // non-CS work: cost + yield

  // Charges traffic on `count` lines of a synthetic shared region, starting
  // at line `first_line`.  Used by application substrates to model the data
  // their critical sections touch (see DESIGN.md §4).
  void AccessSharedRegion(std::uint32_t region, std::uint64_t first_line,
                          std::uint32_t count, bool write);

  int CurrentCpu() const;
  int CurrentSocket() const;
  std::uint64_t NowNs() const;           // current fiber's local clock
  // The current CPU's instance of T (SimPlatform::ContextLocal): built on
  // first use and destroyed with this Machine.
  template <typename T>
  T& ContextLocal() {
    static const std::size_t slot = NextContextLocalSlot();
    std::vector<std::shared_ptr<void>>& locals = Cur().locals;
    if (slot >= locals.size()) {
      locals.resize(slot + 1);
    }
    if (locals[slot] == nullptr) {
      locals[slot] = std::make_shared<T>();
    }
    return *static_cast<T*>(locals[slot].get());
  }
  std::uint64_t Random();
  std::uint64_t& TlsSlot();

  const MachineConfig& config() const { return config_; }
  const CacheStats& TotalStats() const { return total_stats_; }
  CacheStats CpuStats(int cpu) const;
  // Maximum clock across fibers after Run(); the simulated makespan.
  std::uint64_t FinalTimeNs() const { return final_time_ns_; }

 public:
  // Upper bound on simulated CPUs (the paper's biggest machine has 144; the
  // saturation sweeps model a wider 2x128 box to push fiber counts into the
  // hundreds).
  static constexpr int kMaxSimCpus = 256;

 private:
  struct LineState {
    std::uint32_t socket_mask = 0;           // sockets caching the line
    std::uint64_t cpu_mask[kMaxSimCpus / 64] = {};  // cores caching it
  };

  enum class AccessKind { kLoad, kStore, kRmw };

  std::uint64_t ChargeAccess(std::uintptr_t line, AccessKind kind);
  void ParkCurrentOn(std::uintptr_t line);
  void SwitchToScheduler();
  int PickNextFiber() const;
  // Effective schedule clock: clock_ns for runnable fibers, the wake
  // deadline for timed address parks, "never" otherwise.
  std::uint64_t EffectiveClock(const internal::Fiber& f) const;
  void RemoveAddrWaiter(std::uintptr_t addr, int fiber_index);
  void WakeAddrParked(internal::Fiber& w, std::uint64_t waker_clock,
                      bool woken);
  internal::Fiber& Cur();
  const internal::Fiber& Cur() const;
  static std::size_t NextContextLocalSlot();
  static void FiberTrampoline(unsigned hi, unsigned lo);
  void RunFiberBody(internal::Fiber* fiber);

  MachineConfig config_;
  std::vector<std::unique_ptr<internal::Fiber>> fibers_;
  std::vector<int> cpu_of_next_spawn_;      // per-socket next CPU cursor
  std::vector<bool> cpu_used_;
  std::unordered_map<std::uintptr_t, LineState> directory_;
  std::unordered_map<std::uintptr_t, std::vector<int>> parked_waiters_;
  // FIFO waiter lists per parked-on address (futex-shape parking).  Entries
  // are removed eagerly on unpark and on timeout, so every listed fiber is
  // genuinely parked on the address.
  std::unordered_map<std::uintptr_t, std::vector<int>> addr_waiters_;
  CacheStats total_stats_;
  std::vector<CacheStats> cpu_stats_;
  ucontext_t scheduler_context_;
  int current_fiber_ = -1;
  bool running_ = false;
  std::uint64_t final_time_ns_ = 0;
  XorShift64 machine_rng_;
};

// RAII helper: makes `machine` the Active() machine for the calling OS
// thread for the lifetime of the object.  Machine::Run() uses it internally.
class ActiveMachineScope {
 public:
  explicit ActiveMachineScope(Machine* m);
  ~ActiveMachineScope();

 private:
  Machine* previous_;
};

}  // namespace cna::sim

#endif  // CNA_SIM_MACHINE_H_
