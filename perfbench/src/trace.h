#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into jpar's public API (nothing inside the
// library is instrumented), kept in memory, and written out at exit.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct SpanRecord {
  std::string name;  // "<layer>.<what>", e.g. "core.compile"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index of the enclosing span, -1 for roots
  uint64_t request = 0;
};

/// Thread-safe span store. When disabled every call is a no-op, so the
/// untraced phases pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records a finished span; returns its id (-1 when disabled).
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t request);

  /// Opens a span whose end is filled in by Close (for parents, which
  /// end after their children).
  int64_t Open(const std::string& name, Clock::time_point start,
               int64_t parent, uint64_t request);
  void Close(int64_t id, Clock::time_point end);

  /// Self time per layer (the name's prefix before the first '.'), in
  /// ms: each span's duration minus the part of it its children cover.
  std::map<std::string, double> SelfMsByLayer() const;

  size_t size() const;

  /// Writes one JSON object per span to `path`.
  void WriteJsonLines(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  std::atomic<bool> enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
