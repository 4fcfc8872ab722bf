#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Small helpers shared by the workloads: clocks, order statistics,
// seeded random numbers, answer canonicalization, scratch directories
// and the metric report.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "json/item.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Arithmetic mean of `v` (0 when empty).
double Mean(const std::vector<double>& v);

/// Median of `v` (0 when empty). Averages the two middle values.
double Median(std::vector<double> v);

/// The tail statistic reported as `latency_ms_p99`: the 99th percentile
/// when at least 10 samples lie beyond it, otherwise the highest
/// percentile that still has 10 samples beyond it (the maximum below 11
/// samples). `percentile_used` receives the percentile reported
/// (0..100).
double TailLatency(std::vector<double> v, double* percentile_used);

/// splitmix64-based generator: identical sequences on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Canonical text of a query answer: every item serialized to compact
/// JSON, one per line, lines sorted. Partitioned execution emits items
/// in partition order, so answers are compared as sorted multisets.
std::string CanonicalAnswer(const std::vector<jpar::Item>& items);

/// Peak resident set size (VmHWM) of this process in MiB.
double PeakRssMb();

/// Writes `bytes` to `path` atomically (temp file + rename), the way a
/// delivery tool replaces a file. Aborts the process on I/O failure.
void WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Re-delivers `path` with `bytes` through WriteFileAtomic and makes
/// sure its mtime changes, even on a file system with a coarse clock.
void Redeliver(const std::string& path, const std::string& bytes);

/// A directory removed (recursively) when the object dies.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Runs `fn` in a forked child and returns its strings, so memory the
/// child peaks at never counts toward this process's peak RSS. Call
/// only while this process runs no other thread. `scratch_file` carries
/// the strings back. Exits when the child fails.
std::vector<std::string> RunInChild(
    const std::string& scratch_file,
    const std::function<std::vector<std::string>()>& fn);

/// Runs `set_up(i)` for i = 0..repeats-1 and returns each run's seconds.
/// All but the last run in forked children, which call `tear_down` to
/// delete their files before exiting: only the kept set-up counts toward
/// this process's peak RSS. Same threading rule as RunInChild.
std::vector<double> TimeSetUps(int repeats, const std::string& scratch_file,
                               const std::function<void(int)>& set_up,
                               const std::function<void()>& tear_down);

/// Prints `what` and exits nonzero: setup failures are not results.
[[noreturn]] void Die(const std::string& what);

/// Ordered metric name -> (value, unit), printed as the result line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Tallies of one run's requests.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // errors and rejections
  uint64_t mismatched = 0;  // answers that differ from the reference
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
