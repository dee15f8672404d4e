// EveryStampPlatform: RealPlatform whose lock tables stamp every observed
// acquisition (kStampPeriod 1), as under the simulator.
//
// On RealPlatform a table times one observed acquisition in 16 and weighs
// it 16x (locktable/lock_table.h).  That keeps histograms and lockdep folds
// unbiased, but cannot promise that one given hold is timed or folded; the
// real-thread tests that assert exactly that run their tables on this
// platform instead.
#ifndef CNA_TESTS_EVERY_STAMP_PLATFORM_H_
#define CNA_TESTS_EVERY_STAMP_PLATFORM_H_

#include <cstdint>

#include "platform/real_platform.h"

namespace cna {

struct EveryStampPlatform : RealPlatform {
  static constexpr std::uint32_t kStampPeriod = 1;
};

}  // namespace cna

#endif  // CNA_TESTS_EVERY_STAMP_PLATFORM_H_
