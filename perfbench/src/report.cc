#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// Minimal JSON string escaping for the few free-text fields we print.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

// VmHWM rather than getrusage(): ru_maxrss survives execve, so it would
// report the launching process's peak when that one was larger.
double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(f);
    if (kib >= 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintMeta(const Config& cfg) {
  if (!kOptimized) {
    std::printf("# WARNING: non-optimised build; timings are not "
                "representative\n");
  }
  std::printf(
      "# meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"optimized\": %s, \"ndebug\": %s, \"git_commit\": %s}\n",
      Quote(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, std::thread::hardware_concurrency(),
      Quote(__VERSION__).c_str(), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      kOptimized ? "true" : "false", kNdebug ? "true" : "false",
      Quote(cfg.commit).c_str());
}

void PrintResult(Result& r) {
  r.Check(r.attempted > 0, "no operation was attempted");
  for (Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.Check(false, "metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  for (const std::string& note : r.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : r.check_failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  if (r.failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted));
  }
  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
    json += (i == 0 ? "" : ", ") + Quote(r.metrics[i].name) +
            ": {\"value\": " + value +
            ", \"unit\": " + Quote(r.metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
