// Real-clock benchmark for jpar. Runs one workload and prints its
// metrics; the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Usually started through perfbench/run.py, which builds this program
// first; see perfbench/README.md.

#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: jpar_perfbench --workload cold_paper|warm_archive|"
               "service_lookup --seed N --seconds S --trace 0|1\n"
               "         --tmp-dir DIR [--trace-out FILE] [--smoke]\n"
               "         [--corrupt-reference] [--git-sha SHA] "
               "[--src-digest HEX]\n",
               why);
  std::exit(2);
}

int HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

uint64_t ParseUnsigned(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string git_sha = "unknown", src_digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = ParseUnsigned("--seed", value());
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = static_cast<int>(ParseUnsigned("--seconds", value()));
      have_seconds = true;
    } else if (a == "--trace") {
      uint64_t t = ParseUnsigned("--trace", value());
      if (t > 1) Usage("--trace takes 0 or 1");
      cfg.trace = t == 1;
      have_trace = true;
    } else if (a == "--tmp-dir") {
      cfg.tmp_dir = value();
    } else if (a == "--trace-out") {
      cfg.trace_out = value();
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--corrupt-reference") {
      cfg.corrupt_reference = true;
    } else if (a == "--git-sha") {
      git_sha = value();
    } else if (a == "--src-digest") {
      src_digest = value();
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || cfg.tmp_dir.empty()) {
    Usage("--seed, --seconds, --trace and --tmp-dir are required");
  }
  if (cfg.seconds < 1 || cfg.seconds > 600) Usage("--seconds out of range");
  std::error_code ec;
  std::filesystem::create_directories(cfg.tmp_dir, ec);
  if (ec) Usage(("cannot create --tmp-dir: " + ec.message()).c_str());
  if (cfg.trace && cfg.trace_out.empty()) {
    cfg.trace_out = cfg.tmp_dir + "/trace.jsonl";
  }

  // Honest concurrency: never more partitions, workers or clients than
  // the host has hardware threads.
  const int nproc = HardwareThreads();
  if (kParallelism > nproc) {
    std::fprintf(stderr,
                 "perfbench: workloads use %d partitions/workers/clients but "
                 "this host has %d hardware threads; refusing to run\n",
                 kParallelism, nproc);
    return 2;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d smoke=%d "
              "nproc=%d parallelism=%d build=%s git=%s src=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.smoke ? 1 : 0, nproc,
              kParallelism, PERFBENCH_BUILD_TYPE, git_sha.c_str(),
              src_digest.c_str());
  std::fflush(stdout);

  WorkloadResult res;
  if (cfg.workload == "cold_paper") {
    res = RunColdPaper(cfg);
  } else if (cfg.workload == "warm_archive") {
    res = RunWarmArchive(cfg);
  } else if (cfg.workload == "service_lookup") {
    res = RunServiceLookup(cfg);
  } else {
    Usage("unknown workload");
  }

  const Tally& t = res.tally;
  const uint64_t bad = t.failed + t.mismatched;
  if (!cfg.trace) {
    res.report.Set("success_ratio",
                   t.attempted > 0 ? static_cast<double>(t.attempted - bad) /
                                         static_cast<double>(t.attempted)
                                   : 0.0,
                   "ratio");
    res.report.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    res.notes.push_back("spans written to " + cfg.trace_out);
  }
  for (const std::string& n : res.notes) std::printf("note %s\n", n.c_str());
  std::printf("requests attempted=%llu failed=%llu mismatched=%llu "
              "failed_ratio=%.6f\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.mismatched),
              t.attempted > 0 ? static_cast<double>(bad) /
                                    static_cast<double>(t.attempted)
                              : 0.0);
  std::string metrics;
  for (const auto& [name, vu] : res.report.metrics()) {
    if (!std::isfinite(vu.first)) Die("metric " + name + " is not finite");
    std::printf("metric %-32s %.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), vu.first,
                  vu.second.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              t.mismatched == 0 ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(bad), metrics.c_str());
  std::fflush(stdout);
  return t.mismatched == 0 ? 0 : 1;
}
