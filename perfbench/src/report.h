// Output of the perfbench binary: a run-metadata line, one human-readable
// line per metric, and, as the last line, the JSON result object
// {"correct", "attempted", "failed", "metrics"}.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include "bench_util.h"

namespace perfbench {

// Prints "# meta {...}": nproc, compiler, build type, git commit and whether
// NDEBUG was set; a non-optimised build gets a warning line first.
void PrintMeta(const Config& cfg);

// Runs the final checks (an op was attempted, every value is finite), then
// prints the metrics and the result object.
void PrintResult(Result& r);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
