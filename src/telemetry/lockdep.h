// Lockdep-lite: runtime lock-order graphs, held-lock attribution, and
// deadlock-witness export.
//
// Kernel lockdep's central idea, scaled to this repo: ordering statements are
// about *classes* of locks, not instances.  Every stripe of a million-stripe
// table is "the same lock" for deadlock purposes, so the dependency graph
// stays tiny no matter how large the namespace grows.  Each execution context
// (OS thread or simulator fiber, keyed by P::CpuId()) keeps a held-lock stack
// -- class, acquisition site, instance address, timestamps, trylock/shared
// flags -- and every blocking acquisition taken while other locks are held
// records held-class -> new-class edges into one global digraph with
// incremental cycle detection.
//
// An edge that would close a cycle is NOT inserted: it is reported as an
// ordering *inversion* with a two-chain witness (the acquiring context's
// stack and the first-recorded chain of the conflicting edge), because two
// contexts that ever take the same two classes in opposite orders can
// deadlock even if this particular run got lucky with timing.  Trylock
// acquisitions never record incoming edges (a trylock cannot block) but stay
// on the stack as edge *sources* -- holding a trylocked stripe while blocking
// on another is still a deadlock ingredient.
//
// Multi-key acquisitions (LockTable::MultiGuard) additionally check the
// ascending-instance invariant within their own class: stripes of one
// transaction must strictly ascend, which turns the "sorted stripe order"
// comment in lock_table.h into a checked property.  Same-class nesting
// outside a multi-key transaction is deliberately not flagged (the resizable
// table legitimately nests old-snapshot and new-snapshot stripes of one
// class during migration).
//
// The held stacks double as attribution: FoldedStacks() renders
// "class@site;class@site weight" lines (weight = accumulated hold or wait
// nanoseconds) that flamegraph.pl turns into a who-holds-what flame graph.
// Each held slot accumulates the chains its contexts release, so a release
// whose chain the slot has seen before writes no shared cache line; only a
// slot with all kSlotFolds records taken spills into one global table.
//
// Design rules shared with the rest of src/telemetry/:
//  * Every cell is a plain std::atomic / std::atomic_flag (never P::Atomic),
//    so no lock word grows by a byte and the NUMA simulator charges nothing
//    and schedules identically with lockdep on or off.
//  * One relaxed flag load per hook when disabled; compiling with
//    -DCNA_LOCKDEP=0 turns every hook into an empty inline.
//  * Hooks read no clock: OnAcquired/OnReleased take the caller's stamp of
//    the lock edge, or kUnstamped.  A lock table stamps one observed
//    acquisition in P::kStampPeriod and weighs its fold by that period: on
//    real hardware the folds hold a 1-in-16 sample with weight 16, under the
//    simulator every hold with weight 1 (simulated ns, like the table
//    histograms).  Every acquisition and release still reaches the held
//    stack, so edges, witnesses and order checks see all of them.
//  * Internal guards are straight-line TAS spins never held across a yield
//    point, so they are fiber-safe under the simulator.
#ifndef CNA_TELEMETRY_LOCKDEP_H_
#define CNA_TELEMETRY_LOCKDEP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

// Compile-time kill switch: -DCNA_LOCKDEP=0 removes every hook body and all
// tracker state from the build (the API keeps compiling as no-op stubs).
#ifndef CNA_LOCKDEP
#define CNA_LOCKDEP 1
#endif

namespace cna::telemetry::lockdep {

// Capacity model: classes are O(lock flavors), not O(locks), so the bitmap
// adjacency (one std::uint64_t per class) covers everything the repo can
// instantiate with room to spare.
inline constexpr int kMaxClasses = 64;
inline constexpr int kMaxSites = 256;
inline constexpr int kMaxEdges = 256;
inline constexpr int kMaxDepth = 16;   // held locks per context
inline constexpr int kChainMax = 8;    // witness / folded-chain length
inline constexpr int kHeldSlots = 256; // held-stack slots, by ctx modulo
inline constexpr int kMaxInversions = 16;
inline constexpr int kMaxParkReports = 8;
inline constexpr int kMaxFolds = 512;
inline constexpr int kSlotFolds = 8;  // folded chains kept per held slot

inline constexpr bool kCompiledIn = CNA_LOCKDEP != 0;

// A hook stamp that means "tracked, not weighed": an acquisition stamped
// kUnstamped is on the held stack like any other, and its release folds
// nothing.  Equal to locktable::HeldLedger<>::kUnstamped, so a table passes
// its ledger entry's stamp through.
inline constexpr std::uint64_t kUnstamped = ~std::uint64_t{0};

// Aggregate view for tests, the text report, and the C API.
struct Counts {
  std::uint64_t classes = 0;
  std::uint64_t sites = 0;
  std::uint64_t edges = 0;
  std::uint64_t inversions = 0;
  std::uint64_t park_while_held = 0;
  std::uint64_t held_overflows = 0;
  std::uint64_t fold_drops = 0;
};

#if CNA_LOCKDEP

// Process-global master switch, same shape as telemetry::Enabled(): a single
// relaxed load guards every hook.
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}
inline bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }
inline void SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

// Interns a lock class ("<metrics-name-or-flavor>/<role>", e.g.
// "locktable/stripe", "rwtable/stripe", "gcr/admission", "mutex/cna") or an
// acquisition site ("LockTable::LockStripe").  Idempotent by name; returns
// -1 when the table is full (hooks then no-op for that caller).  Cheap
// enough for constructors; hot paths cache the result.
int InternClass(std::string_view name);
int InternSite(std::string_view name);

// Name lookup for reports; "?" for out-of-range ids.
const char* ClassName(int cls);
const char* SiteName(int site);

namespace internal {
void OnAcquiredImpl(int ctx, int cls, int site, std::uintptr_t instance,
                    bool trylock, bool shared, bool nested,
                    std::uint64_t wait_ns, std::uint64_t now_ns);
void OnReleasedImpl(int ctx, int cls, std::uintptr_t instance,
                    std::uint64_t now_ns, std::uint64_t weight);
void OnBlockingWaitImpl(int ctx, int cls, int site);
void OnParkImpl(int ctx);
}  // namespace internal

// The four hooks instrumented code calls.  `ctx` is the dense execution
// context id (P::CpuId(); telemetry::SelfShard() for non-platform callers);
// `nested` marks multi-key (MultiGuard) acquisitions, which opt into the
// same-class ascending-instance check.  `now_ns` is the caller's clock
// stamp of the edge (P::NowNs(); telemetry::NowNs() for non-platform
// callers), or kUnstamped for an edge the caller did not time.  A hold
// stamped at both edges folds release stamp minus acquire stamp, and its
// wait, each times the release's `weight`: a lock table passes its
// P::kStampPeriod (16 on real hardware, where it stamps one acquisition in
// 16; 1 under the simulator, which stamps all), LockAdapter and ScopedLock
// stamp every edge and pass 1.  Any other release only pops its entry.
// The table's wait and hold histograms hold the same sample, so a sampler
// rate or saturation signal taken from their counts moves in steps of 16,
// with relative noise sqrt(15/n) over n acquisitions per tick.  Callers
// read the clock only under Enabled().
inline void OnAcquired(int ctx, int cls, int site, std::uintptr_t instance,
                       bool trylock, bool shared, bool nested,
                       std::uint64_t wait_ns, std::uint64_t now_ns) {
  if (Enabled()) {
    internal::OnAcquiredImpl(ctx, cls, site, instance, trylock, shared,
                             nested, wait_ns, now_ns);
  }
}
inline void OnReleased(int ctx, int cls, std::uintptr_t instance,
                       std::uint64_t now_ns, std::uint64_t weight = 1) {
  if (Enabled()) {
    internal::OnReleasedImpl(ctx, cls, instance, now_ns, weight);
  }
}
// Records held-class -> `cls` edges for a wait that is not a lock hold (the
// GCR admission word: passivating while holding stripes orders those stripes
// before the admission grant).
inline void OnBlockingWait(int ctx, int cls, int site) {
  if (Enabled()) {
    internal::OnBlockingWaitImpl(ctx, cls, site);
  }
}
// Park-while-holding detection: called on the edge of every real block
// (parking lot, GCR passivation).  Parking with locks held is the classic
// lost-throughput bug -- every waiter on those locks sleeps with you.
inline void OnPark(int ctx) {
  if (Enabled()) {
    internal::OnParkImpl(ctx);
  }
}

// Observers.
std::uint64_t InversionCount();
std::uint64_t ParkWhileHeldCount();
int HeldDepth(int ctx);
Counts GetCounts();

// Human-readable report: classes, edges, inversion witnesses (both chains
// with sites and context ids), park-while-held chains.
std::string ReportText();
// DOT digraph of the dependency graph; rejected (cycle-closing) edges render
// dashed red with an "inversion" label.
std::string ReportDot();
// flamegraph.pl-compatible folded stacks: "cls@site;cls@site weight" lines,
// weighted by accumulated hold ns (or wait ns); one line per chain, summed
// over every context.
std::string FoldedStacks(bool weight_by_wait = false);

// Clears the graph, witnesses, folds, counters, and held stacks; interned
// classes/sites survive (call sites cache their ids).  Call quiescent.
void Reset();

#else  // !CNA_LOCKDEP: every hook is an empty inline, all state vanishes.

inline bool Enabled() { return false; }
inline void SetEnabled(bool) {}
inline int InternClass(std::string_view) { return -1; }
inline int InternSite(std::string_view) { return -1; }
inline const char* ClassName(int) { return "?"; }
inline const char* SiteName(int) { return "?"; }
inline void OnAcquired(int, int, int, std::uintptr_t, bool, bool, bool,
                       std::uint64_t, std::uint64_t) {}
inline void OnReleased(int, int, std::uintptr_t, std::uint64_t,
                       std::uint64_t = 1) {}
inline void OnBlockingWait(int, int, int) {}
inline void OnPark(int) {}
inline std::uint64_t InversionCount() { return 0; }
inline std::uint64_t ParkWhileHeldCount() { return 0; }
inline int HeldDepth(int) { return 0; }
inline Counts GetCounts() { return Counts{}; }
inline std::string ReportText() { return "lockdep compiled out\n"; }
inline std::string ReportDot() { return "digraph lockdep {\n}\n"; }
inline std::string FoldedStacks(bool = false) { return ""; }
inline void Reset() {}

#endif  // CNA_LOCKDEP

}  // namespace cna::telemetry::lockdep

#endif  // CNA_TELEMETRY_LOCKDEP_H_
