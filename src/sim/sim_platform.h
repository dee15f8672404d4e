// SimPlatform: binds the lock-algorithm templates to the NUMA machine
// simulator.  Mirror of RealPlatform (src/platform/real_platform.h).
#ifndef CNA_SIM_SIM_PLATFORM_H_
#define CNA_SIM_SIM_PLATFORM_H_

#include <cstdint>

#include "platform/park.h"
#include "sim/machine.h"
#include "sim/sim_atomic.h"
#include "telemetry/metrics.h"

namespace cna {

struct SimPlatform {
  template <typename T>
  using Atomic = sim::Atomic<T>;

  static void Pause() {
    if (sim::Machine* m = ActiveMachine()) {
      m->PauseHint();
    }
  }

  static int CurrentSocket() {
    if (sim::Machine* m = ActiveMachine()) {
      return m->CurrentSocket();
    }
    return 0;
  }

  static std::uint64_t Random() {
    if (sim::Machine* m = ActiveMachine()) {
      return m->Random();
    }
    return 0x9e3779b97f4a7c15ull;  // deterministic fallback outside fibers
  }

  static std::uint64_t& TlsSlot() {
    if (sim::Machine* m = ActiveMachine()) {
      return m->TlsSlot();
    }
    static std::uint64_t fallback = 0;
    return fallback;
  }

  static int CpuId() {
    if (sim::Machine* m = ActiveMachine()) {
      return m->CurrentCpu();
    }
    return 0;
  }

  // Application substrates report logical object touches here; the machine
  // charges coherence traffic for them in region 0 ("application data").
  // Each distinct object_id maps to a distinct line of the region, so two
  // objects never false-share a modelled line.
  static void OnDataAccess(std::uint64_t object_id, bool write) {
    if (sim::Machine* m = ActiveMachine()) {
      m->AccessSharedRegion(/*region=*/0, /*first_line=*/object_id,
                            /*count=*/1, write);
    }
  }

  // The fiber's simulated clock (Machine::NowNs(): no charge, no yield), so
  // latency histograms under the simulator hold simulated time and stamping
  // them cannot change the schedule.  Host time outside fibers.
  static std::uint64_t NowNs() {
    if (sim::Machine* m = ActiveMachine()) {
      return m->NowNs();
    }
    return telemetry::NowNs();
  }

  // That clock is free, so the tables stamp every observed acquisition and
  // make no sampling draw, which would move the fiber's Random() stream and
  // with it the schedule.
  static constexpr std::uint32_t kStampPeriod = 1;

  // One T per simulated CPU, owned by the running Machine (built on first
  // use, destroyed with the Machine, so nothing leaks from one Machine's
  // schedule into the next); a thread-local instance outside fibers.
  template <typename T>
  static T& ContextLocal() {
    if (sim::Machine* m = ActiveMachine()) {
      return m->ContextLocal<T>();
    }
    thread_local T fallback;
    return fallback;
  }

  static void ExternalWork(std::uint64_t approx_ns) {
    if (sim::Machine* m = ActiveMachine()) {
      m->AdvanceLocalWork(approx_ns);
    }
  }

  // Deliberate off-fast-path wait (GCR passivation): the fiber's clock jumps
  // forward, which both models the sleep and keeps the fiber out of the
  // simulated near-term schedule -- the smallest-clock-first scheduler runs
  // everyone else for the next approx_ns of simulated time.
  static void PassiveWait(std::uint64_t approx_ns) {
    if (sim::Machine* m = ActiveMachine()) {
      m->AdvanceLocalWork(approx_ns);
    }
  }

  // --- Blocking primitives (contract in platform/park.h) ---
  //
  // The recheck uses LoadForPark (charged, no yield), so no fiber can run
  // between the compare and ParkCurrentOnAddr: the check-then-park step is
  // atomic under schedule exploration exactly as FUTEX_WAIT is under the
  // kernel, and every interleaving the scheduler explores around it is a
  // real futex interleaving.
  static ParkResult Park(sim::Atomic<std::uint32_t>* addr,
                         std::uint32_t expected_bits,
                         std::uint64_t timeout_ns) {
    sim::Machine* m = ActiveMachine();
    if (m == nullptr) {
      return ParkResult::kValueMismatch;  // nothing to block outside fibers
    }
    if (addr->LoadForPark() != expected_bits) {
      m->MaybeYield();
      return ParkResult::kValueMismatch;
    }
    return m->ParkCurrentOnAddr(addr->AddressKey(), timeout_ns)
               ? ParkResult::kWoken
               : ParkResult::kTimeout;
  }

  static void UnparkOne(sim::Atomic<std::uint32_t>* addr) {
    if (sim::Machine* m = ActiveMachine()) {
      m->UnparkOneAddr(addr->AddressKey());
    }
  }

  static void UnparkAll(sim::Atomic<std::uint32_t>* addr) {
    if (sim::Machine* m = ActiveMachine()) {
      m->UnparkAllAddr(addr->AddressKey());
    }
  }

 private:
  static sim::Machine* ActiveMachine() {
    sim::Machine* m = sim::Machine::Active();
    return (m != nullptr && m->InFiber()) ? m : nullptr;
  }
};

}  // namespace cna

#endif  // CNA_SIM_SIM_PLATFORM_H_
