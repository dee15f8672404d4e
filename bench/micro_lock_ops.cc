// Micro-benchmarks (google-benchmark, real hardware, real std::atomic):
// single-thread lock+unlock latency for every lock.
//
// This backs the paper's single-thread claim on the host machine itself: CNA
// performs ONE atomic exchange on acquire, exactly like MCS, so the
// uncontended latencies must match -- while hierarchical locks pay for
// multiple atomics across their levels.
#include <benchmark/benchmark.h>

#include "locks/clh.h"
#include "locks/cna.h"
#include "locks/cohort.h"
#include "locks/cst.h"
#include "locks/hbo.h"
#include "locks/hmcs.h"
#include "locks/mcs.h"
#include "locks/tas.h"
#include "locks/ticket.h"
#include "platform/real_platform.h"
#include "qspin/qspinlock.h"

namespace {

using namespace cna;

template <typename L>
void BM_UncontendedLockUnlock(benchmark::State& state) {
  L lock;
  for (auto _ : state) {
    typename L::Handle h;
    lock.Lock(h);
    benchmark::DoNotOptimize(&lock);
    lock.Unlock(h);
  }
}

BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::McsLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::CnaLock<RealPlatform>);
// The paper's base CNA, next to the library default (FIFO handover mode and
// socket-tagged successors): the uncontended path must cost the same.
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock,
                   locks::CnaLock<RealPlatform, locks::CnaPaperBaseConfig>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::TasLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::TtasLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::TicketLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock,
                   locks::PartitionedTicketLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::ClhLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::HboLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::CBoMcsLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::CTktTktLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::CPtlTktLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::HmcsLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedLockUnlock, locks::CstLock<RealPlatform>);
BENCHMARK_TEMPLATE(
    BM_UncontendedLockUnlock,
    qspin::QSpinLock<RealPlatform, qspin::SlowPathKind::kMcs>);
BENCHMARK_TEMPLATE(
    BM_UncontendedLockUnlock,
    qspin::QSpinLock<RealPlatform, qspin::SlowPathKind::kCna>);

// Try-lock fast path.
template <typename L>
void BM_UncontendedTryLock(benchmark::State& state) {
  L lock;
  for (auto _ : state) {
    typename L::Handle h;
    benchmark::DoNotOptimize(lock.TryLock(h));
    lock.Unlock(h);
  }
}

BENCHMARK_TEMPLATE(BM_UncontendedTryLock, locks::McsLock<RealPlatform>);
BENCHMARK_TEMPLATE(BM_UncontendedTryLock, locks::CnaLock<RealPlatform>);
BENCHMARK_TEMPLATE(
    BM_UncontendedTryLock,
    qspin::QSpinLock<RealPlatform, qspin::SlowPathKind::kCna>);

}  // namespace

BENCHMARK_MAIN();
