#include "telemetry/lockdep.h"

#if CNA_LOCKDEP

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <sstream>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cna::telemetry::lockdep {
namespace {

constexpr int kNameBytes = 48;

// ---------------------------------------------------------------------------
// Interning.  Registration takes a mutex (constructors only); lookups by id
// are lock-free -- names are fully written before the published count's
// release store, so any id a reader legitimately holds has a stable name.
// ---------------------------------------------------------------------------
std::mutex g_intern_mu;
char g_class_names[kMaxClasses][kNameBytes];
char g_site_names[kMaxSites][kNameBytes];
std::atomic<int> g_nclasses{0};
std::atomic<int> g_nsites{0};

int InternIn(std::string_view name, char (*names)[kNameBytes], int cap,
             std::atomic<int>& pub) {
  std::lock_guard<std::mutex> g(g_intern_mu);
  const int n = pub.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if (name == names[i]) {
      return i;
    }
  }
  if (n >= cap) {
    return -1;
  }
  const std::size_t len = std::min(name.size(), std::size_t{kNameBytes - 1});
  std::memcpy(names[n], name.data(), len);
  names[n][len] = '\0';
  pub.store(n + 1, std::memory_order_release);
  return n;
}

// ---------------------------------------------------------------------------
// Folded-stack attribution: chain signature -> accumulated hold/wait ns.
// Each held slot keeps kSlotFolds records under its own guard; a slot whose
// records are all taken spills into the global open-addressed table, and
// when that is full too the sample is dropped (counted).
// ---------------------------------------------------------------------------
struct Fold {
  bool used = false;
  int depth = 0;
  std::uint16_t cls[kChainMax] = {};
  std::uint16_t site[kChainMax] = {};
  std::uint64_t hold_ns = 0;
  std::uint64_t wait_ns = 0;
};

std::uint64_t ChainHash(const Fold& chain) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the signature
  for (int i = 0; i < chain.depth; ++i) {
    h = (h ^ chain.cls[i]) * 1099511628211ull;
    h = (h ^ chain.site[i]) * 1099511628211ull;
  }
  return h;
}

// The record of `chain`'s signature in table[0, cap), claimed (with zero
// weights) if the signature is new there; nullptr when the table is full.
// Caller holds the table's guard.
Fold* FindFold(Fold* table, int cap, const Fold& chain, std::uint64_t hash) {
  const auto start = static_cast<int>(hash % static_cast<unsigned>(cap));
  for (int probe = 0; probe < cap; ++probe) {
    Fold& f = table[(start + probe) % cap];
    if (!f.used) {
      f.used = true;
      f.depth = chain.depth;
      std::copy(chain.cls, chain.cls + chain.depth, f.cls);
      std::copy(chain.site, chain.site + chain.depth, f.site);
      return &f;
    }
    if (f.depth == chain.depth &&
        std::equal(f.cls, f.cls + f.depth, chain.cls) &&
        std::equal(f.site, f.site + f.depth, chain.site)) {
      return &f;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Held-lock stacks: 256 padded slots indexed by ctx % kHeldSlots
// (thread_local is wrong under the fiber simulator).  Contexts whose ids are
// congruent modulo kHeldSlots share a slot, so every entry carries its full
// context id and every reader skips the entries of other contexts -- a
// context must never see another's held locks as its own.  They do share
// the slot's folds, which carry no context.  The TAS guard is never held
// across a yield point.
// ---------------------------------------------------------------------------
struct HeldEntry {
  int ctx = 0;
  std::uint16_t cls = 0;
  std::uint16_t site = 0;
  std::uintptr_t instance = 0;
  std::uint64_t acquire_ns = 0;
  std::uint64_t wait_ns = 0;
  bool trylock = false;
  bool shared = false;
  bool nested = false;
};

struct alignas(64) HeldSlot {
  std::atomic_flag busy = ATOMIC_FLAG_INIT;
  int n = 0;
  HeldEntry e[kMaxDepth];
  Fold folds[kSlotFolds];
};

// constinit: lockdep's tables live in .bss, so a process that never turns
// lockdep on never touches (or pays resident memory for) them.
constinit HeldSlot g_held[kHeldSlots];

// Entries of `slot` that belong to context `ctx`.  Caller holds the guard.
int OwnDepth(const HeldSlot& slot, int ctx) {
  int n = 0;
  for (int i = 0; i < slot.n; ++i) {
    n += slot.e[i].ctx == ctx ? 1 : 0;
  }
  return n;
}

// Start of the shortest range [first, end) of `slot` that holds the last
// `count` entries of context `ctx` (all of them if it has fewer).
int FirstOfLastOwn(const HeldSlot& slot, int ctx, int end, int count) {
  int first = end;
  for (int own = 0; first > 0 && own < count;) {
    own += slot.e[--first].ctx == ctx ? 1 : 0;
  }
  return first;
}

class FlagGuard {
 public:
  explicit FlagGuard(std::atomic_flag& f) : f_(f) {
    while (f_.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~FlagGuard() { f_.clear(std::memory_order_release); }
  FlagGuard(const FlagGuard&) = delete;
  FlagGuard& operator=(const FlagGuard&) = delete;

 private:
  std::atomic_flag& f_;
};

// ---------------------------------------------------------------------------
// The dependency graph.  Adjacency is one successor bitmap per class
// (kMaxClasses <= 64 keeps reachability a pure bit-parallel DFS); edge
// records carry the first witness chain that created each edge.  Mutations
// and cycle checks run under one TAS guard; the fast path (edge already
// known) is a single relaxed bitmap load with no guard at all.
//
// Guard ordering: held-slot guard, then graph guard, then (leaf) trace-ring
// or registry internals; held-slot guard, then the global fold guard.
// Nothing ever takes them in another order.
// ---------------------------------------------------------------------------
struct ChainEntry {
  std::uint16_t cls = 0;
  std::uint16_t site = 0;
  std::uintptr_t instance = 0;
};

struct Witness {
  int tid = 0;
  int depth = 0;
  ChainEntry chain[kChainMax];
};

struct EdgeRec {
  std::uint8_t from = 0;
  std::uint8_t to = 0;
  Witness w;
};

struct InversionRec {
  std::uint8_t from = 0;  // the rejected edge from -> to
  std::uint8_t to = 0;
  bool same_class = false;
  Witness current;  // acquiring context's chain (this run's side)
  Witness other;    // first edge on the conflicting path (the earlier side)
  int path_len = 0;
  std::uint8_t path[kMaxClasses];  // to ~> from in the existing graph
};

struct ParkRec {
  int tid = 0;
  int depth = 0;
  ChainEntry chain[kChainMax];
};

std::atomic_flag g_graph_busy = ATOMIC_FLAG_INIT;
std::atomic<std::uint64_t> g_adj[kMaxClasses];
std::atomic<std::uint64_t> g_reported[kMaxClasses];  // inversion dedup bits
constinit EdgeRec g_edges[kMaxEdges];
int g_nedges = 0;  // guarded by g_graph_busy
std::atomic<int> g_nedges_pub{0};
constinit InversionRec g_inversions[kMaxInversions];
int g_ninv = 0;  // guarded by g_graph_busy
std::atomic<int> g_ninv_pub{0};

std::atomic_flag g_park_busy = ATOMIC_FLAG_INIT;
constinit ParkRec g_parks[kMaxParkReports];
int g_npark = 0;  // guarded by g_park_busy
std::atomic<int> g_npark_pub{0};

std::atomic<std::uint64_t> g_inversions_total{0};
std::atomic<std::uint64_t> g_park_while_held{0};
std::atomic<std::uint64_t> g_held_overflows{0};
std::atomic<std::uint64_t> g_fold_drops{0};

// Spill table for chains of slots whose own folds are full.
std::atomic_flag g_fold_busy = ATOMIC_FLAG_INIT;
constinit Fold g_folds[kMaxFolds];

Counter& InversionsCounter() {
  static Counter& c = Registry::Global().GetCounter("lockdep.inversions");
  return c;
}
Counter& ParkWhileHeldRegCounter() {
  static Counter& c =
      Registry::Global().GetCounter("lockdep.park_while_held");
  return c;
}

// DFS from `from` toward `to` over the successor bitmaps, recording the path
// (class ids, from-first).  Caller holds the graph guard.
bool FindPathLocked(int from, int to, std::uint8_t* path, int* path_len) {
  int parent[kMaxClasses];
  for (int i = 0; i < kMaxClasses; ++i) {
    parent[i] = -1;
  }
  std::uint64_t visited = std::uint64_t{1} << from;
  int stk[kMaxClasses];
  int top = 0;
  stk[top++] = from;
  while (top > 0) {
    const int u = stk[--top];
    std::uint64_t succ = g_adj[u].load(std::memory_order_relaxed) & ~visited;
    while (succ != 0) {
      const int v = std::countr_zero(succ);
      succ &= succ - 1;
      visited |= std::uint64_t{1} << v;
      parent[v] = u;
      if (v == to) {
        // Reconstruct to-first, then reverse into from-first order.
        int rev[kMaxClasses];
        int n = 0;
        for (int c = to; c != -1; c = parent[c]) {
          rev[n++] = c;
        }
        *path_len = n;
        for (int i = 0; i < n; ++i) {
          path[i] = static_cast<std::uint8_t>(rev[n - 1 - i]);
        }
        return true;
      }
      stk[top++] = v;
    }
  }
  return false;
}

const EdgeRec* FindEdgeLocked(int from, int to) {
  for (int i = 0; i < g_nedges; ++i) {
    if (g_edges[i].from == from && g_edges[i].to == to) {
      return &g_edges[i];
    }
  }
  return nullptr;
}

// Caller holds the graph guard.  `path` is to ~> from (the existing chain of
// edges the rejected from -> to edge would close into a cycle).
void RecordInversionLocked(int from, int to, const Witness& cur,
                           const std::uint8_t* path, int path_len) {
  const std::uint64_t bit = std::uint64_t{1} << to;
  if ((g_reported[from].load(std::memory_order_relaxed) & bit) != 0) {
    return;  // this class pair already has a witness
  }
  g_reported[from].fetch_or(bit, std::memory_order_relaxed);
  g_inversions_total.fetch_add(1, std::memory_order_relaxed);
  InversionsCounter().Add();
  TraceEmit(TraceEventType::kLockdepInversion, /*socket=*/0, cur.tid,
            static_cast<std::uint64_t>(from) << 8 | static_cast<unsigned>(to));
  if (g_ninv >= kMaxInversions) {
    return;
  }
  InversionRec& r = g_inversions[g_ninv];
  r.from = static_cast<std::uint8_t>(from);
  r.to = static_cast<std::uint8_t>(to);
  r.same_class = from == to;
  r.current = cur;
  r.path_len = std::min(path_len, kMaxClasses);
  for (int i = 0; i < r.path_len; ++i) {
    r.path[i] = path[i];
  }
  if (path_len >= 2) {
    if (const EdgeRec* e = FindEdgeLocked(path[0], path[1])) {
      r.other = e->w;
    }
  }
  ++g_ninv;
  g_ninv_pub.store(g_ninv, std::memory_order_release);
}

// Record (or reject) edge from -> to with the acquiring chain as witness.
void AddEdge(int from, int to, const Witness& w) {
  const std::uint64_t bit = std::uint64_t{1} << to;
  if ((g_adj[from].load(std::memory_order_relaxed) & bit) != 0) {
    return;  // known edge: the common case after warmup, guard-free
  }
  FlagGuard g(g_graph_busy);
  if ((g_adj[from].load(std::memory_order_relaxed) & bit) != 0) {
    return;
  }
  std::uint8_t path[kMaxClasses];
  int path_len = 0;
  if (FindPathLocked(to, from, path, &path_len)) {
    // Inserting from -> to would close a cycle: keep the graph acyclic and
    // report the inversion instead.
    RecordInversionLocked(from, to, w, path, path_len);
    return;
  }
  g_adj[from].fetch_or(bit, std::memory_order_relaxed);
  if (g_nedges < kMaxEdges) {
    g_edges[g_nedges].from = static_cast<std::uint8_t>(from);
    g_edges[g_nedges].to = static_cast<std::uint8_t>(to);
    g_edges[g_nedges].w = w;
    ++g_nedges;
    g_nedges_pub.store(g_nedges, std::memory_order_release);
  }
}

// Build the witness chain for context `ctx` about to acquire (cls, site,
// instance): its own held entries in the slot (most recent kChainMax - 1)
// plus the new acquisition.
void BuildChain(const HeldSlot& slot, int ctx, int cls, int site,
                std::uintptr_t instance, Witness* w) {
  w->tid = ctx;
  int d = 0;
  for (int i = FirstOfLastOwn(slot, ctx, slot.n, kChainMax - 1); i < slot.n;
       ++i) {
    if (slot.e[i].ctx != ctx) {
      continue;
    }
    w->chain[d].cls = slot.e[i].cls;
    w->chain[d].site = slot.e[i].site;
    w->chain[d].instance = slot.e[i].instance;
    ++d;
  }
  w->chain[d].cls = static_cast<std::uint16_t>(cls);
  w->chain[d].site = static_cast<std::uint16_t>(site);
  w->chain[d].instance = instance;
  w->depth = d + 1;
}

// Accumulate the chain ending at (and including) entry index `last` --
// that entry's context's own entries only -- into the slot's folds, or the
// global table when those are full.  Caller holds the slot guard.
void RecordFold(HeldSlot& slot, int last, std::uint64_t hold_ns,
                std::uint64_t wait_ns) {
  const int ctx = slot.e[last].ctx;
  Fold chain;
  for (int i = FirstOfLastOwn(slot, ctx, last + 1, kChainMax); i <= last;
       ++i) {
    if (slot.e[i].ctx != ctx) {
      continue;
    }
    chain.cls[chain.depth] = slot.e[i].cls;
    chain.site[chain.depth] = slot.e[i].site;
    ++chain.depth;
  }
  const std::uint64_t h = ChainHash(chain);
  if (Fold* f = FindFold(slot.folds, kSlotFolds, chain, h)) {
    f->hold_ns += hold_ns;
    f->wait_ns += wait_ns;
    return;
  }
  FlagGuard g(g_fold_busy);
  if (Fold* f = FindFold(g_folds, kMaxFolds, chain, h)) {
    f->hold_ns += hold_ns;
    f->wait_ns += wait_ns;
    return;
  }
  g_fold_drops.fetch_add(1, std::memory_order_relaxed);
}

void AppendChainText(std::ostringstream& os, const Witness& w) {
  for (int i = 0; i < w.depth; ++i) {
    os << "      " << (i + 1 == w.depth ? "acquiring " : "holds     ")
       << ClassName(w.chain[i].cls) << " @ " << SiteName(w.chain[i].site);
    if (w.chain[i].instance != 0) {
      os << " (instance 0x" << std::hex << w.chain[i].instance << std::dec
         << ")";
    }
    os << "\n";
  }
}

}  // namespace

int InternClass(std::string_view name) {
  return InternIn(name, g_class_names, kMaxClasses, g_nclasses);
}
int InternSite(std::string_view name) {
  return InternIn(name, g_site_names, kMaxSites, g_nsites);
}

const char* ClassName(int cls) {
  return cls >= 0 && cls < g_nclasses.load(std::memory_order_acquire)
             ? g_class_names[cls]
             : "?";
}
const char* SiteName(int site) {
  return site >= 0 && site < g_nsites.load(std::memory_order_acquire)
             ? g_site_names[site]
             : "?";
}

namespace internal {

void OnAcquiredImpl(int ctx, int cls, int site, std::uintptr_t instance,
                    bool trylock, bool shared, bool nested,
                    std::uint64_t wait_ns, std::uint64_t now_ns) {
  if (cls < 0) {
    return;
  }
  HeldSlot& slot = g_held[static_cast<unsigned>(ctx) % kHeldSlots];
  FlagGuard g(slot.busy);
  if (!trylock && slot.n > 0) {
    Witness w;
    BuildChain(slot, ctx, cls, site, instance, &w);
    if (nested) {
      // MultiGuard ascending-instance invariant: within one multi-key
      // transaction, stripes of the same class must strictly ascend.
      for (int i = 0; i < slot.n; ++i) {
        if (slot.e[i].ctx == ctx && slot.e[i].cls == cls &&
            slot.e[i].nested && slot.e[i].instance >= instance) {
          FlagGuard gg(g_graph_busy);
          RecordInversionLocked(cls, cls, w, nullptr, 0);
          break;
        }
      }
    }
    std::uint64_t seen = 0;
    for (int i = 0; i < slot.n; ++i) {
      const int held = slot.e[i].cls;
      if (slot.e[i].ctx != ctx || held == cls || (seen >> held & 1) != 0) {
        continue;
      }
      seen |= std::uint64_t{1} << held;
      AddEdge(held, cls, w);
    }
  }
  if (slot.n >= kMaxDepth) {
    g_held_overflows.fetch_add(1, std::memory_order_relaxed);
    return;  // dropped; the matching release becomes a no-op pop miss
  }
  HeldEntry& e = slot.e[slot.n];
  e.ctx = ctx;
  e.cls = static_cast<std::uint16_t>(cls);
  e.site = static_cast<std::uint16_t>(site);
  e.instance = instance;
  e.acquire_ns = now_ns;
  e.wait_ns = wait_ns;
  e.trylock = trylock;
  e.shared = shared;
  e.nested = nested;
  ++slot.n;
}

void OnReleasedImpl(int ctx, int cls, std::uintptr_t instance,
                    std::uint64_t now_ns, std::uint64_t weight) {
  if (cls < 0) {
    return;
  }
  HeldSlot& slot = g_held[static_cast<unsigned>(ctx) % kHeldSlots];
  FlagGuard g(slot.busy);
  for (int i = slot.n - 1; i >= 0; --i) {
    if (slot.e[i].ctx != ctx || slot.e[i].cls != cls ||
        slot.e[i].instance != instance) {
      continue;
    }
    const std::uint64_t acquire_ns = slot.e[i].acquire_ns;
    if (acquire_ns != kUnstamped && now_ns != kUnstamped) {
      const std::uint64_t hold = now_ns > acquire_ns ? now_ns - acquire_ns : 0;
      RecordFold(slot, i, hold * weight, slot.e[i].wait_ns * weight);
    }
    // Preserve stack order: the remaining entries still describe each
    // context's acquisition chain.
    for (int j = i; j + 1 < slot.n; ++j) {
      slot.e[j] = slot.e[j + 1];
    }
    --slot.n;
    return;
  }
  // Pop miss: enabled mid-hold or overflowed push; attribution is
  // best-effort, so this is not an error.
}

void OnBlockingWaitImpl(int ctx, int cls, int site) {
  if (cls < 0) {
    return;
  }
  HeldSlot& slot = g_held[static_cast<unsigned>(ctx) % kHeldSlots];
  FlagGuard g(slot.busy);
  if (slot.n == 0) {
    return;
  }
  Witness w;
  BuildChain(slot, ctx, cls, site, /*instance=*/0, &w);
  std::uint64_t seen = 0;
  for (int i = 0; i < slot.n; ++i) {
    const int held = slot.e[i].cls;
    if (slot.e[i].ctx != ctx || held == cls || (seen >> held & 1) != 0) {
      continue;
    }
    seen |= std::uint64_t{1} << held;
    AddEdge(held, cls, w);
  }
}

void OnParkImpl(int ctx) {
  HeldSlot& slot = g_held[static_cast<unsigned>(ctx) % kHeldSlots];
  FlagGuard g(slot.busy);
  if (OwnDepth(slot, ctx) == 0) {
    return;
  }
  g_park_while_held.fetch_add(1, std::memory_order_relaxed);
  ParkWhileHeldRegCounter().Add();
  FlagGuard pg(g_park_busy);
  if (g_npark >= kMaxParkReports) {
    return;
  }
  ParkRec& r = g_parks[g_npark];
  r.tid = ctx;
  r.depth = 0;
  for (int i = FirstOfLastOwn(slot, ctx, slot.n, kChainMax); i < slot.n;
       ++i) {
    if (slot.e[i].ctx != ctx) {
      continue;
    }
    r.chain[r.depth].cls = slot.e[i].cls;
    r.chain[r.depth].site = slot.e[i].site;
    r.chain[r.depth].instance = slot.e[i].instance;
    ++r.depth;
  }
  ++g_npark;
  g_npark_pub.store(g_npark, std::memory_order_release);
}

}  // namespace internal

std::uint64_t InversionCount() {
  return g_inversions_total.load(std::memory_order_relaxed);
}
std::uint64_t ParkWhileHeldCount() {
  return g_park_while_held.load(std::memory_order_relaxed);
}

int HeldDepth(int ctx) {
  HeldSlot& slot = g_held[static_cast<unsigned>(ctx) % kHeldSlots];
  FlagGuard g(slot.busy);
  return OwnDepth(slot, ctx);
}

Counts GetCounts() {
  Counts c;
  c.classes =
      static_cast<std::uint64_t>(g_nclasses.load(std::memory_order_acquire));
  c.sites =
      static_cast<std::uint64_t>(g_nsites.load(std::memory_order_acquire));
  c.edges =
      static_cast<std::uint64_t>(g_nedges_pub.load(std::memory_order_acquire));
  c.inversions = g_inversions_total.load(std::memory_order_relaxed);
  c.park_while_held = g_park_while_held.load(std::memory_order_relaxed);
  c.held_overflows = g_held_overflows.load(std::memory_order_relaxed);
  c.fold_drops = g_fold_drops.load(std::memory_order_relaxed);
  return c;
}

std::string ReportText() {
  // Copy the graph under the guard, format outside it.
  EdgeRec edges[kMaxEdges];
  InversionRec inversions[kMaxInversions];
  int nedges;
  int ninv;
  {
    FlagGuard g(g_graph_busy);
    nedges = g_nedges;
    ninv = g_ninv;
    std::copy(g_edges, g_edges + nedges, edges);
    std::copy(g_inversions, g_inversions + ninv, inversions);
  }
  ParkRec parks[kMaxParkReports];
  int npark;
  {
    FlagGuard g(g_park_busy);
    npark = g_npark;
    std::copy(g_parks, g_parks + npark, parks);
  }
  const Counts c = GetCounts();
  std::ostringstream os;
  os << "lockdep: " << c.classes << " classes, " << c.edges << " edges, "
     << c.inversions << " inversions, " << c.park_while_held
     << " park-while-held events\n";
  os << "\nclasses:\n";
  for (int i = 0; i < static_cast<int>(c.classes); ++i) {
    os << "  " << i << "  " << ClassName(i) << "\n";
  }
  os << "\nedges (first witness per class pair):\n";
  for (int i = 0; i < nedges; ++i) {
    os << "  " << ClassName(edges[i].from) << " -> " << ClassName(edges[i].to)
       << "  (ctx " << edges[i].w.tid << ")\n";
  }
  for (int i = 0; i < ninv; ++i) {
    const InversionRec& r = inversions[i];
    os << "\ninversion " << i << ": ";
    if (r.same_class) {
      os << "same-class order violation in " << ClassName(r.from)
         << " (multi-key acquisition not in ascending stripe order)\n";
    } else {
      os << ClassName(r.from) << " -> " << ClassName(r.to)
         << " would close a cycle (existing path:";
      for (int p = 0; p < r.path_len; ++p) {
        os << " " << ClassName(r.path[p]);
        if (p + 1 < r.path_len) {
          os << " ->";
        }
      }
      os << ")\n";
    }
    os << "    chain A (ctx " << r.current.tid << ", this acquisition):\n";
    AppendChainText(os, r.current);
    if (!r.same_class && r.other.depth > 0) {
      os << "    chain B (ctx " << r.other.tid
         << ", recorded earlier -- the conflicting order):\n";
      AppendChainText(os, r.other);
    }
  }
  if (npark > 0) {
    os << "\npark-while-held chains (first " << npark << "):\n";
    for (int i = 0; i < npark; ++i) {
      os << "  ctx " << parks[i].tid << " parked holding:";
      for (int j = 0; j < parks[i].depth; ++j) {
        os << " " << ClassName(parks[i].chain[j].cls) << "@"
           << SiteName(parks[i].chain[j].site);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string ReportDot() {
  EdgeRec edges[kMaxEdges];
  InversionRec inversions[kMaxInversions];
  int nedges;
  int ninv;
  {
    FlagGuard g(g_graph_busy);
    nedges = g_nedges;
    ninv = g_ninv;
    std::copy(g_edges, g_edges + nedges, edges);
    std::copy(g_inversions, g_inversions + ninv, inversions);
  }
  std::ostringstream os;
  os << "digraph lockdep {\n  rankdir=LR;\n  node [shape=box];\n";
  for (int i = 0; i < nedges; ++i) {
    os << "  \"" << ClassName(edges[i].from) << "\" -> \""
       << ClassName(edges[i].to) << "\";\n";
  }
  for (int i = 0; i < ninv; ++i) {
    os << "  \"" << ClassName(inversions[i].from) << "\" -> \""
       << ClassName(inversions[i].to)
       << "\" [color=red, style=dashed, label=\"inversion\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string FoldedStacks(bool weight_by_wait) {
  // Merge the global table and every slot's folds by chain signature, each
  // under its own guard (one at a time); the merged table has room for
  // every signature they can hold between them.
  std::vector<Fold> merged(kMaxFolds + kHeldSlots * kSlotFolds);
  const auto merge = [&merged](const Fold* folds, int n) {
    for (const Fold* f = folds; f != folds + n; ++f) {
      if (f->used) {
        Fold* m = FindFold(merged.data(), static_cast<int>(merged.size()), *f,
                           ChainHash(*f));
        m->hold_ns += f->hold_ns;
        m->wait_ns += f->wait_ns;
      }
    }
  };
  {
    FlagGuard g(g_fold_busy);
    merge(g_folds, kMaxFolds);
  }
  for (HeldSlot& slot : g_held) {
    FlagGuard g(slot.busy);
    merge(slot.folds, kSlotFolds);
  }
  std::ostringstream os;
  for (const Fold& f : merged) {
    if (!f.used) {
      continue;
    }
    const std::uint64_t weight = weight_by_wait ? f.wait_ns : f.hold_ns;
    if (weight == 0) {
      continue;
    }
    for (int i = 0; i < f.depth; ++i) {
      if (i > 0) {
        os << ";";
      }
      os << ClassName(f.cls[i]) << "@" << SiteName(f.site[i]);
    }
    os << " " << weight << "\n";
  }
  return os.str();
}

void Reset() {
  {
    FlagGuard g(g_graph_busy);
    for (int i = 0; i < kMaxClasses; ++i) {
      g_adj[i].store(0, std::memory_order_relaxed);
      g_reported[i].store(0, std::memory_order_relaxed);
    }
    g_nedges = 0;
    g_nedges_pub.store(0, std::memory_order_relaxed);
    g_ninv = 0;
    g_ninv_pub.store(0, std::memory_order_relaxed);
  }
  {
    FlagGuard g(g_park_busy);
    g_npark = 0;
    g_npark_pub.store(0, std::memory_order_relaxed);
  }
  {
    FlagGuard g(g_fold_busy);
    std::fill(g_folds, g_folds + kMaxFolds, Fold{});
  }
  for (HeldSlot& slot : g_held) {
    FlagGuard g(slot.busy);
    slot.n = 0;
    std::fill(slot.folds, slot.folds + kSlotFolds, Fold{});
  }
  g_inversions_total.store(0, std::memory_order_relaxed);
  g_park_while_held.store(0, std::memory_order_relaxed);
  g_held_overflows.store(0, std::memory_order_relaxed);
  g_fold_drops.store(0, std::memory_order_relaxed);
}

}  // namespace cna::telemetry::lockdep

#endif  // CNA_LOCKDEP
