/* The C API driven from C: core/pthread_api.h compiles as C11, and one
 * cna_locktable_t family serves every table flavor -- fixed (mutex and
 * reader-writer stripes), blocking, resizable and combining.  Exits nonzero
 * on the first failed check. */
#include <errno.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#include "core/pthread_api.h"

static int failures = 0;

#define CHECK(cond)                                             \
  do {                                                          \
    if (!(cond)) {                                              \
      fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,    \
              __LINE__, #cond);                                 \
      ++failures;                                               \
    }                                                           \
  } while (0)

/* create, lock, unlock and destroy: the calls every flavor answers. */
static void RoundTrip(cna_locktable_t* t) {
  CHECK(t != NULL);
  if (t == NULL) {
    return;
  }
  CHECK(cna_locktable_stripes(t) == 16);
  CHECK(cna_locktable_stripe_of(t, 42) < 16);
  CHECK(cna_locktable_state_bytes(t) > 0);
  CHECK(cna_locktable_lock(t, 42) == 0);
  CHECK(cna_locktable_unlock(t, 42) == 0);
  CHECK(cna_locktable_unlock(t, 42) == EPERM);
  cna_locktable_destroy(t);
}

static void TestEveryFlavorRoundTrips(void) {
  RoundTrip(cna_locktable_create("cna", 16));
  RoundTrip(cna_locktable_create_default(16));
  RoundTrip(cna_locktable_create("cna-rw-compact", 16));
  RoundTrip(cna_locktable_create_blocking("qspin-cna", 16));
  RoundTrip(cna_locktable_create_resizable("cna", 16));
  RoundTrip(cna_locktable_create_combining("mcs", 16));
}

static void TestFixedTableMultiKey(void) {
  cna_locktable_t* t = cna_locktable_create("cna", 1024);
  const uint64_t keys[3] = {1, 2, 3};
  const uint64_t one[1] = {1};
  CHECK(t != NULL);
  CHECK(cna_locktable_lock_many(t, keys, 3) == 0);
  CHECK(cna_locktable_trylock(t, 2) == EBUSY);
  CHECK(cna_locktable_unlock_many(t, keys, 3) == 0);
  CHECK(cna_locktable_unlock_many(t, one, 1) == EPERM);
  CHECK(cna_locktable_trylock(t, 2) == 0);
  CHECK(cna_locktable_unlock(t, 2) == 0);
  cna_locktable_destroy(t);
}

static void TestReadersShareOnCompactRwStripes(void) {
  cna_locktable_t* t = cna_locktable_create("cna-rw-compact", 100);
  CHECK(t != NULL);
  CHECK(cna_locktable_stripes(t) == 128);            /* rounded up to 2^7 */
  CHECK(cna_locktable_state_bytes(t) == 128u * 8u);  /* one word a stripe */
  CHECK(cna_locktable_rdlock(t, 7) == 0);
  CHECK(cna_locktable_tryrdlock(t, 7) == 0);  /* readers share */
  CHECK(cna_locktable_trylock(t, 7) == EBUSY);
  CHECK(cna_locktable_unlock(t, 7) == 0);
  CHECK(cna_locktable_unlock(t, 7) == 0);
  CHECK(cna_locktable_lock(t, 7) == 0);
  CHECK(cna_locktable_tryrdlock(t, 7) == EBUSY);  /* writer in */
  CHECK(cna_locktable_unlock(t, 7) == 0);
  CHECK(cna_locktable_unlock(t, 7) == EPERM);
  cna_locktable_destroy(t);
}

static void TestResizeCountsGrows(void) {
  cna_locktable_t* t = cna_locktable_create_resizable("cna", 8);
  cna_locktable_stats_t stats;
  CHECK(t != NULL);
  CHECK(cna_locktable_resize(t, 64) == 0);
  CHECK(cna_locktable_stripes(t) == 64);
  CHECK(cna_locktable_resize(t, 64) == EBUSY); /* no change */
  CHECK(cna_locktable_get_stats(t, &stats) == 0);
  CHECK(stats.grows == 1);
  CHECK(stats.shrinks == 0);
  CHECK(stats.epoch_retired == 1);
  CHECK(stats.pass_through_ops == 0 && stats.combined_ops == 0);
  cna_locktable_destroy(t);
}

static void Increment(void* ctx) { ++*(uint64_t*)ctx; }

static void AddKey(void* ctx, uint64_t key) { *(uint64_t*)ctx += key; }

static void TestApplyCountsOperations(void) {
  cna_locktable_t* t = cna_locktable_create_combining("cna", 4);
  const uint64_t keys[3] = {1, 2, 3};
  uint64_t sum = 0;
  cna_locktable_stats_t stats;
  int i;
  CHECK(t != NULL);
  for (i = 0; i < 10; ++i) {
    CHECK(cna_locktable_apply(t, (uint64_t)i, Increment, &sum) == 0);
  }
  CHECK(cna_locktable_apply_batch(t, keys, 3, AddKey, &sum) == 0);
  CHECK(sum == 16);
  CHECK(cna_locktable_get_stats(t, &stats) == 0);
  CHECK(stats.pass_through_ops + stats.combined_ops == 13);
  CHECK(stats.grows == 0 && stats.epoch_retired == 0);
  CHECK(cna_locktable_apply(t, 0, NULL, NULL) == EINVAL);
  cna_locktable_destroy(t);
}

static void TestCallsTheFlavorLacksReturnEinval(void) {
  cna_locktable_t* fixed = cna_locktable_create("cna", 16);
  cna_locktable_t* combining = cna_locktable_create_combining("cna", 16);
  const uint64_t keys[2] = {1, 2};
  uint64_t sum = 0;
  CHECK(cna_locktable_rdlock(fixed, 1) == EINVAL);
  CHECK(cna_locktable_tryrdlock(fixed, 1) == EINVAL);
  CHECK(cna_locktable_resize(fixed, 64) == EINVAL);
  CHECK(cna_locktable_apply(fixed, 1, Increment, &sum) == EINVAL);
  CHECK(cna_locktable_trylock(combining, 1) == EINVAL);
  CHECK(cna_locktable_lock_many(combining, keys, 2) == EINVAL);
  CHECK(sum == 0);
  CHECK(cna_locktable_lock(NULL, 1) == EINVAL);
  CHECK(cna_locktable_get_stats(fixed, NULL) == EINVAL);
  cna_locktable_destroy(fixed);
  cna_locktable_destroy(combining);
  cna_locktable_destroy(NULL); /* a no-op */
}

static void TestCreatesRejectWhatTheyDoNotBuild(void) {
  CHECK(cna_locktable_create("no-such-lock", 8) == NULL);
  CHECK(cna_locktable_create(NULL, 8) == NULL);
  CHECK(cna_locktable_create_blocking("cna-rw", 8) == NULL);
  CHECK(cna_locktable_create_resizable("cna-rw-compact", 8) == NULL);
  CHECK(cna_locktable_create_combining("cna-rw", 8) == NULL);
  CHECK(cna_locktable_create_combining("clh", 8) == NULL); /* no try-lock */
}

static void TestMutexFromC(void) {
  cna_mutex_t* m = cna_mutex_create("cna");
  CHECK(m != NULL);
  CHECK(cna_mutex_state_bytes(m) == sizeof(void*));
  CHECK(cna_mutex_lock(m) == 0);
  CHECK(cna_mutex_trylock(m) == EBUSY);
  CHECK(cna_mutex_unlock(m) == 0);
  CHECK(cna_mutex_unlock(m) == EPERM);
  cna_mutex_destroy(m);
}

int main(void) {
  TestEveryFlavorRoundTrips();
  TestFixedTableMultiKey();
  TestReadersShareOnCompactRwStripes();
  TestResizeCountsGrows();
  TestApplyCountsOperations();
  TestCallsTheFlavorLacksReturnEinval();
  TestCreatesRejectWhatTheyDoNotBuild();
  TestMutexFromC();
  if (failures != 0) {
    fprintf(stderr, "c_api_test: %d check(s) failed\n", failures);
    return 1;
  }
  printf("c_api_test: all checks passed\n");
  return 0;
}
