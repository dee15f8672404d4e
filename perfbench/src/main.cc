// perfbench: the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <sha>]
//
// Workloads: capi-uncontended, rwkv-observed, kv-numa-sim (see
// perfbench/README.md for why each exists).  --trace 0 reports the
// end-to-end metrics; --trace 1 runs the layer probes plus a traced run of
// the workload and reports the per-layer metrics.  Exits 1 if an output
// check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench_util.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Config;
using perfbench::Result;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{capi-uncontended|rwkv-observed|kv-numa-sim} --seed N "
               "--seconds S --trace {0|1} [--commit SHA]\n",
               msg);
  return 2;
}

using RunFn = void (*)(const Config&, double, Result&);

RunFn WorkloadFn(const std::string& name) {
  if (name == "capi-uncontended") return perfbench::RunCapiUncontended;
  if (name == "rwkv-observed") return perfbench::RunRwkvObserved;
  if (name == "kv-numa-sim") return perfbench::RunKvNumaSim;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      cfg.trace = std::string(value) == "1";
      if (!cfg.trace && std::string(value) != "0") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--commit") {
      cfg.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  const RunFn run = WorkloadFn(cfg.workload);
  if (run == nullptr) {
    return Usage("unknown or missing --workload");
  }
  if (!(cfg.seconds >= 0.1 && cfg.seconds <= 600)) {
    return Usage("--seconds must be in [0.1, 600]");
  }

  perfbench::PrintMeta(cfg);
  Result r;
  try {
    if (cfg.trace) {
      perfbench::RunLayerProbes(cfg, perfbench::kProbeShare * cfg.seconds, r);
      run(cfg, (1.0 - perfbench::kProbeShare) * cfg.seconds, r);
    } else {
      run(cfg, cfg.seconds, r);
    }
  } catch (const std::exception& e) {
    r.Check(false, std::string("exception: ") + e.what());
  }
  perfbench::PrintResult(r);
  return r.correct() ? 0 : 1;
}
