// POSIX-pthread-style C API.
//
// The paper ships CNA "as a stand-alone dynamically linked library conforming
// to the POSIX pthread API" so it can be interposed under unmodified programs
// (Section 1, Section 7).  This header is that surface: opaque mutex objects
// with create/destroy/lock/trylock/unlock, selectable by lock name, usable
// from C (C99 or later) and C++.  cna_mutex_t with kind "cna" is the
// library's flagship object.  The library itself is C++: link a C program
// with the C++ compiler (or add the C++ runtime), e.g.
//   cc -std=c11 -I src -c app.c && c++ app.o libcna_core.a -lpthread
#ifndef CNA_CORE_PTHREAD_API_H_
#define CNA_CORE_PTHREAD_API_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct cna_mutex cna_mutex_t;

// Creates a mutex backed by the named lock ("cna", "mcs", "hmcs", ...; see
// core::AllLockKinds).  Returns nullptr if the name is unknown.
cna_mutex_t* cna_mutex_create(const char* lock_name);

// Creates a mutex backed by the default lock (CNA).
cna_mutex_t* cna_mutex_create_default(void);

void cna_mutex_destroy(cna_mutex_t* mutex);

// Returns 0 on success (pthread convention).
int cna_mutex_lock(cna_mutex_t* mutex);
// Returns 0 on success, EBUSY if the lock is held or try-lock is unsupported.
int cna_mutex_trylock(cna_mutex_t* mutex);
// Returns 0 on success, EPERM on unlock without a matching lock.
int cna_mutex_unlock(cna_mutex_t* mutex);

// sizeof of the shared lock state backing this mutex (CNA: one word).
size_t cna_mutex_state_bytes(const cna_mutex_t* mutex);

// ---------------------------------------------------------------------------
// Concurrency restriction (src/locks/gcr.h): a mutex that survives
// saturation.  Any named lock kind, wrapped in a GCR layer that -- once
// engaged -- keeps a bounded active set contending and passivates surplus
// waiters onto per-socket lists, rotating them in periodically for fairness.
// Created disengaged; engage it from a saturation signal (see
// cna_telemetry_*), or manually.
// ---------------------------------------------------------------------------

typedef struct cna_gcr cna_gcr_t;

typedef struct cna_gcr_stats {
  uint64_t direct;        /* acquisitions that never passivated */
  uint64_t passivations;  /* acquisitions parked on a passive list */
  uint64_t admissions;    /* passive waiters promoted by an unlocker */
  uint64_t rotations;     /* forced round-robin (fairness) admissions */
  uint64_t engages;
  uint64_t disengages;
  /* worst passivation->admission wait, in releases of the underlying lock */
  uint64_t max_admission_wait_releases;
} cna_gcr_stats_t;

// Creates a GCR-wrapped mutex backed by the named lock.  Returns nullptr if
// the name is unknown.
cna_gcr_t* cna_gcr_create(const char* lock_name);
// Creates a GCR-wrapped mutex backed by the default lock (CNA).
cna_gcr_t* cna_gcr_create_default(void);
void cna_gcr_destroy(cna_gcr_t* gcr);

// Returns 0 on success (pthread convention).
int cna_gcr_lock(cna_gcr_t* gcr);
// Returns 0 on success, EBUSY when the lock is held, the active set is full,
// or try-lock is unsupported by the underlying kind.
int cna_gcr_trylock(cna_gcr_t* gcr);
// Returns 0 on success, EPERM on unlock without a matching lock.
int cna_gcr_unlock(cna_gcr_t* gcr);

// Restriction controls; safe to call while other threads lock/unlock.
// Each returns 0 on success, EINVAL on a null handle.
int cna_gcr_engage(cna_gcr_t* gcr);
int cna_gcr_disengage(cna_gcr_t* gcr);
int cna_gcr_set_active_limit(cna_gcr_t* gcr, uint32_t limit);
// 1 while engaged, else 0.
int cna_gcr_restricted(const cna_gcr_t* gcr);

// Fills *out; returns 0, or EINVAL on null arguments.
int cna_gcr_get_stats(const cna_gcr_t* gcr, cna_gcr_stats_t* out);
size_t cna_gcr_state_bytes(const cna_gcr_t* gcr);

// ---------------------------------------------------------------------------
// Lock tables (src/locktable/): a futex-style dynamic lock namespace.
// Arbitrary 64-bit keys hash onto `stripes` locks (rounded up to a power of
// two); keys on the same stripe serialize, keys on different stripes run in
// parallel.  Lock/unlock calls must balance per thread.
//
// One handle type serves every table flavor; the create call picks it:
//   cna_locktable_create            fixed table of a mutex kind ("cna",
//                                   "mcs", ...) or of a reader-writer kind
//                                   ("cna-rw", "cna-rw-compact")
//   cna_locktable_create_blocking   fixed table whose waiters spin a short
//                                   budget, then park (mutex kinds)
//   cna_locktable_create_resizable  adaptive stripe count (mutex kinds)
//   cna_locktable_create_combining  flat combining (mutex kinds with a
//                                   try-lock path)
// Every create returns NULL for a NULL or unknown name, for a kind the
// flavor does not build, and when allocation fails.  Every call returning
// int returns EINVAL for a NULL table and for a call the table's flavor
// lacks -- rdlock/tryrdlock need reader-writer stripes, resize a resizable
// table, apply/apply_batch a combining table, and a combining table has no
// trylock, lock_many or unlock_many -- and ENOMEM when an allocation fails.
// ---------------------------------------------------------------------------

typedef struct cna_locktable cna_locktable_t;

// Creates a fixed table of `stripes` locks of the named kind.
cna_locktable_t* cna_locktable_create(const char* lock_name, size_t stripes);

// Creates a fixed table backed by the default lock (CNA).
cna_locktable_t* cna_locktable_create_default(size_t stripes);

// Creates a *blocking* table: a waiter that loses the stripe spins a short
// budget, then parks in the process-global parking lot
// (src/parking/parking_lot.h) until a releasing thread wakes it -- futex
// semantics instead of unbounded spinning, for oversubscribed deployments.
cna_locktable_t* cna_locktable_create_blocking(const char* lock_name,
                                               size_t stripes);

// Creates a *resizable* table starting at `initial_stripes`
// (src/locktable/resizable_lock_table.h).  The stripe array grows and
// shrinks by power-of-two doubling as the built-in policy watches per-stripe
// contention; old arrays are reclaimed through the epoch subsystem, so lock
// and unlock calls remain valid across resizes (a thread that locked before
// a resize unlocks the same critical section after it).  stripes, stripe_of
// and state_bytes describe the *current* array and are advisory under
// concurrent resizing.  Nested single-key lock calls must not be used for
// multi-key critical sections: during a migration two keys conflict
// whenever they conflict in either the old or the new geometry.
cna_locktable_t* cna_locktable_create_resizable(const char* lock_name,
                                                size_t initial_stripes);

// Creates a *flat-combining* table (src/locktable/combining.h): batch
// execution over the stripes through cna_locktable_apply.  Combining tables
// keep their pass-through/combined counters (cna_locktable_get_stats).
cna_locktable_t* cna_locktable_create_combining(const char* lock_name,
                                                size_t stripes);

void cna_locktable_destroy(cna_locktable_t* table);

// Takes key's stripe exclusively.  Returns 0 on success (pthread
// convention).
int cna_locktable_lock(cna_locktable_t* table, uint64_t key);
// Returns 0 on success, EBUSY if the stripe is held (or, resizable, mid-
// migration) or try-lock is unsupported by the underlying lock.
int cna_locktable_trylock(cna_locktable_t* table, uint64_t key);
// Releases the calling thread's newest hold of key's stripe, in whichever
// mode it was taken.  On a combining table it first runs the operations
// published on the stripe.  Returns 0 on success, EPERM if the thread holds
// the stripe in neither mode.
int cna_locktable_unlock(cna_locktable_t* table, uint64_t key);

// Multi-key transactions: locks the distinct stripes of keys[0..count)
// exclusively in a globally consistent (ascending-stripe) order, so
// concurrent multi-key callers cannot deadlock.  Pass the same key set to
// unlock.  unlock_many returns EPERM, releasing nothing, when some stripe of
// the set is not held exclusively by the calling thread.
int cna_locktable_lock_many(cna_locktable_t* table, const uint64_t* keys,
                            size_t count);
int cna_locktable_unlock_many(cna_locktable_t* table, const uint64_t* keys,
                              size_t count);

// Reader side of reader-writer stripes: readers of one stripe run
// concurrently; release with cna_locktable_unlock.  tryrdlock returns EBUSY
// if a writer holds or is waiting on the stripe.
int cna_locktable_rdlock(cna_locktable_t* table, uint64_t key);
int cna_locktable_tryrdlock(cna_locktable_t* table, uint64_t key);

// Manual resize attempt (clamped to the policy's power-of-two bounds).
// Returns 0 if a resize ran, EBUSY if another resize was in flight or the
// size would not change.
int cna_locktable_resize(cna_locktable_t* table, size_t stripes);

typedef void (*cna_locktable_fn)(void* ctx);
typedef void (*cna_locktable_key_fn)(void* ctx, uint64_t key);

// Runs fn(ctx) under key's stripe -- possibly on another thread currently
// acting as the stripe's combiner -- and returns after it ran exactly once;
// its side effects are visible to the caller on return.  fn must not
// re-enter the same table on the same key's stripe and must not
// longjmp/throw.  Returns 0 on success, EINVAL for a NULL fn.
int cna_locktable_apply(cna_locktable_t* table, uint64_t key,
                        cna_locktable_fn fn, void* ctx);

// Runs fn(ctx, key) for every key (duplicates included), grouped so each
// distinct stripe is acquired once.  Not atomic across stripes.
int cna_locktable_apply_batch(cna_locktable_t* table, const uint64_t* keys,
                              size_t count, cna_locktable_key_fn fn,
                              void* ctx);

// Number of stripes (power of two), and the stripe a key hashes to.
size_t cna_locktable_stripes(const cna_locktable_t* table);
size_t cna_locktable_stripe_of(const cna_locktable_t* table, uint64_t key);

// Total bytes of shared lock state backing the namespace (CNA: one word per
// stripe -- a million-stripe table is 8 MiB).
size_t cna_locktable_state_bytes(const cna_locktable_t* table);

// Flavor counters.  A count the table's flavor does not keep reads zero.
typedef struct cna_locktable_stats {
  uint64_t grows;            /* resizable: resizes that grew the array */
  uint64_t shrinks;          /* resizable: resizes that shrank it */
  uint64_t epoch_retired;    /* resizable: old arrays retired to the epoch
                                subsystem */
  uint64_t epoch_reclaimed;  /* resizable: retired arrays freed so far */
  uint64_t pass_through_ops; /* combining: operations run by their own
                                submitter */
  uint64_t combined_ops;     /* combining: operations a combiner ran on
                                another thread's behalf; with
                                pass_through_ops, every apply/apply_batch
                                operation completed */
} cna_locktable_stats_t;

// Fills *out; returns 0, or EINVAL on null arguments.
int cna_locktable_get_stats(const cna_locktable_t* table,
                            cna_locktable_stats_t* out);

// ---------------------------------------------------------------------------
// Reader-writer locks (src/locks/cna_rwlock.h): pthread_rwlock-shaped surface
// over the compact NUMA-aware rwlock family.  Kinds: "cna-rw" (per-socket
// padded reader counters, CNA writer queue) and "cna-rw-compact" (one 8-byte
// word: qrwlock layout over a 4-byte CNA qspinlock).
// ---------------------------------------------------------------------------

typedef struct cna_rwlock cna_rwlock_t;

// Creates a rwlock backed by the named kind; nullptr if the name is unknown.
cna_rwlock_t* cna_rwlock_create(const char* rwlock_name);

// Creates a rwlock backed by the default kind (cna-rw).
cna_rwlock_t* cna_rwlock_create_default(void);

void cna_rwlock_destroy(cna_rwlock_t* rwlock);

// Return 0 on success (pthread convention).
int cna_rwlock_rdlock(cna_rwlock_t* rwlock);
// Returns 0 on success, EBUSY if a writer holds or is waiting.
int cna_rwlock_tryrdlock(cna_rwlock_t* rwlock);
int cna_rwlock_wrlock(cna_rwlock_t* rwlock);
// Returns 0 on success, EBUSY if the lock is held in either mode.
int cna_rwlock_trywrlock(cna_rwlock_t* rwlock);
// pthread_rwlock_unlock semantics: releases the calling thread's most recent
// acquisition in either mode.  Returns 0 on success, EPERM if the thread
// holds the lock in neither mode.
int cna_rwlock_unlock(cna_rwlock_t* rwlock);

// sizeof of the shared lock state ("cna-rw-compact": one 8-byte word).
size_t cna_rwlock_state_bytes(const cna_rwlock_t* rwlock);

// ---------------------------------------------------------------------------
// Parking lot (src/parking/parking_lot.h): the process-global blocking layer
// behind every *_create_blocking surface.  Waiters that exhaust their spin
// budget enqueue on per-socket FIFO queues hashed by lock address and block
// on a futex until a releasing thread wakes them.
// ---------------------------------------------------------------------------

typedef struct cna_parking_stats {
  uint64_t enqueues;  /* waiters that registered in the lot */
  uint64_t parks;     /* registrations that committed to blocking */
  uint64_t unparks;   /* waiters handed to a releasing thread's wake */
  uint64_t timeouts;  /* parks that expired and revalidated on their own */
  uint64_t cancels;   /* registrations revoked before blocking (lock won) */
} cna_parking_stats_t;

// Fills *out from the process-global parking lot; returns 0, or EINVAL on a
// null argument.  Quiescent invariant: enqueues == unparks + timeouts +
// cancels (every registration leaves the lot exactly one way).
int cna_parking_get_stats(cna_parking_stats_t* out);

// Approximate number of currently parked waiters across all buckets (exact
// when the lot is quiescent; 0 means provably empty).
size_t cna_parking_waiters(void);

// ---------------------------------------------------------------------------
// Telemetry (src/telemetry/): process-global latency histograms, event
// tracing, and exporters.  Recording is off until enabled; exports allocate
// with malloc and are released with cna_telemetry_free.
// ---------------------------------------------------------------------------

// Master switch for counter/histogram recording (0 = off).  Counts a
// recorder opts into on its own ignore it: CNA's kCollectStats event
// counters (cna.*) and MiniVfs's lockstat sites (lockstat.*).
void cna_telemetry_enable(int on);
int cna_telemetry_enabled(void);

// Separate switch for the per-thread trace-event rings.
void cna_telemetry_trace_enable(int on);

// Zeroes every registered metric; clears the trace rings.
void cna_telemetry_reset(void);

// Registry export formats for cna_telemetry_export.
#define CNA_TELEMETRY_FORMAT_TEXT 0       /* /proc/lock_stat-style table */
#define CNA_TELEMETRY_FORMAT_JSON 1       /* nested JSON */
#define CNA_TELEMETRY_FORMAT_PROMETHEUS 2 /* Prometheus exposition */
#define CNA_TELEMETRY_FORMAT_CHROME 3     /* Chrome trace-event JSON */

// Returns a malloc'd NUL-terminated export of the registry snapshot (or, for
// CNA_TELEMETRY_FORMAT_CHROME, of the collected trace rings); nullptr on an
// unknown format or allocation failure.  Free with cna_telemetry_free.
char* cna_telemetry_export(int format);
void cna_telemetry_free(char* exported);

// ---------------------------------------------------------------------------
// Continuous sampling (src/telemetry/sampler.h): the process-global sampler
// takes periodic registry snapshots into a fixed-capacity time-series ring
// of deltas and derives windowed rates from it.  Background and manual-tick
// modes share the ring; cna_sampler_tick works whether or not the background
// thread is running.
// ---------------------------------------------------------------------------

// Starts the global background sampler (idempotent).  interval_ms <= 0 keeps
// the current/default interval (100 ms).  Note: the interval of an already-
// constructed sampler is fixed; pass it on first start.
void cna_sampler_start(long interval_ms);
void cna_sampler_stop(void);

// One manual sample; now_ns = 0 means wall time (callers with their own
// clock -- e.g. a simulator -- pass explicit monotone timestamps).
void cna_sampler_tick(uint64_t now_ns);

// Samples taken since start/rebaseline.
uint64_t cna_sampler_ticks(void);

// Windowed per-second rate of the named counter (or histogram observation
// count) over the last `window` samples (0 = whole ring).
double cna_sampler_rate(const char* metric, size_t window);

// The time-series ring as JSON (the same payload the HTTP /series route
// serves).  malloc'd; free with cna_telemetry_free.
char* cna_sampler_series_json(size_t window);

// Drops ring history and re-baselines at the registry's current state.
void cna_sampler_rebaseline(void);

// ---------------------------------------------------------------------------
// HTTP scrape endpoint (src/telemetry/serve.h): /metrics (Prometheus),
// /json, /lockstat, /series (the global sampler's ring), /healthz.  Binds
// loopback only.
// ---------------------------------------------------------------------------

// Starts the endpoint on `port` (0 = ephemeral).  Returns the bound port,
// or -1 if the socket could not be bound / a server is already running on a
// different configuration.  Idempotent: returns the bound port when already
// running.
int cna_telemetry_serve_start(uint16_t port);
void cna_telemetry_serve_stop(void);

// Requests served since start (diagnostics; 0 when not running).
uint64_t cna_telemetry_serve_requests(void);

// ---------------------------------------------------------------------------
// Lockdep (src/telemetry/lockdep.h): runtime lock-order graphs, held-lock
// attribution, and deadlock-witness export.  Tracking is off by default; with
// the library compiled -DCNA_LOCKDEP=0 every call below is a no-op (reports
// return a stub string, counters return 0, enabled stays 0).
// ---------------------------------------------------------------------------

// Master switch for lock-dependency tracking (0 = off).
void cna_lockdep_enable(int on);
int cna_lockdep_enabled(void);

// Lock-order inversions (cycle-closing edges) recorded so far.
uint64_t cna_lockdep_inversions(void);
// Parks taken while at least one tracked lock was held.
uint64_t cna_lockdep_park_while_held(void);

// Human-readable report: classes, edges, inversion witnesses (both
// acquisition chains).  malloc'd; free with cna_telemetry_free.
char* cna_lockdep_report(void);
// The dependency graph as a DOT digraph (inversions dashed red).  malloc'd.
char* cna_lockdep_dot(void);
// flamegraph.pl-compatible folded held-lock stacks, weighted by hold ns
// (weight_by_wait != 0: by wait ns).  malloc'd.
char* cna_lockdep_folded(int weight_by_wait);

// Clears the graph, witnesses, and counters (interned names survive).
void cna_lockdep_reset(void);

#ifdef __cplusplus
}  // extern "C"
#endif

#endif  // CNA_CORE_PTHREAD_API_H_
