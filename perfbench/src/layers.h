#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer measurements for the traced run, all taken from outside the
// library: the ExecStats / PhysicalPlan each call returns, spans around
// public calls, and direct calls into the json layer.

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "json/projecting_reader.h"
#include "runtime/stats.h"
#include "service/query_service.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

/// Accumulates the runtime, storage and stats counters of every query a
/// traced run executes. Thread-safe; Add is a no-op while disabled.
class LayerAgg {
 public:
  explicit LayerAgg(int partitions) : partitions_(partitions) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Folds one query's stats. `files_per_scan` is how many files each
  /// DATASCAN of the query reads (the base of storage.column_hit_ratio).
  void Add(const jpar::ExecStats& stats, uint64_t files_per_scan);
  /// One cost-model estimate beside the rows the query really returned
  /// (skipped when the plan has no estimate).
  void AddEstimate(double est_rows, uint64_t actual_rows);
  void AddCompileMs(double ms);

  /// Writes the core.*, json.bytes_scanned, runtime.*, storage.* and
  /// stats.* metrics.
  void Fill(Report* report) const;

 private:
  const int partitions_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  // Everything below is guarded by mu_.
  uint64_t queries_ = 0;
  double scan_ms_ = 0, scan_busy_ms_ = 0, groupby_ms_ = 0, join_ms_ = 0,
         post_join_ms_ = 0, exchange_ms_ = 0;
  double busy_ms_ = 0, real_ms_ = 0, makespan_ms_ = 0;
  uint64_t exchange_bytes_ = 0, batches_ = 0, pipeline_bytes_ = 0,
           peak_retained_ = 0, bytes_scanned_ = 0;
  uint64_t tape_hits_ = 0, tape_builds_ = 0, columns_read_ = 0,
           blocks_pruned_ = 0, file_scans_ = 0, stats_paths_built_ = 0;
  double est_rows_ = 0, actual_rows_ = 0;
  std::vector<double> compile_ms_;
};

/// Times StructuralIndex::Build and ProjectJsonStream over `texts` (one
/// stage-1 pass per file, one projecting pass per path) and writes
/// json.stage1_gbps and json.project_gbps.
void ProbeJsonLayer(
    const std::vector<std::shared_ptr<const std::string>>& texts,
    const std::vector<std::vector<jpar::PathStep>>& paths, Tracer* tracer,
    Report* report);

/// Matches QueryService's on_query_start hook to the submission that
/// caused it, so queue wait and execution time can be split. The hook
/// only sees the query text, so equal texts are matched in submission
/// order (the worker pool is FIFO).
class StartHook {
 public:
  struct Pending {
    Clock::time_point started{};  // written by the hook, before completion
    bool has_started = false;
  };

  /// Registers a submission; call right before Session::Submit.
  std::shared_ptr<Pending> Expect(const std::string& query);
  /// Drops a submission that never started (rejected at admission).
  void Forget(const std::string& query, const std::shared_ptr<Pending>& p);
  /// The on_query_start callback.
  void Started(std::string_view query);

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::deque<std::shared_ptr<Pending>>>
      waiting_;  // guarded by mu_
};

/// Service-layer samples of one traced phase.
struct ServiceSamples {
  std::vector<double> queue_wait_ms, exec_ms, overhead_ms;

  void Append(const ServiceSamples& other);
  /// Writes the service.* metrics; the plan-cache ratio and admission
  /// counters are the difference between two metric snapshots.
  void Fill(const jpar::ServiceMetrics& before,
            const jpar::ServiceMetrics& after, Report* report) const;
};

/// Submits `query` on `session` and waits for it: records the request
/// span with its queue and execution children, and (when the query ran)
/// one ServiceSamples entry per field.
struct Submitted {
  jpar::QueryTicket ticket;
  double latency_ms = 0;
};
Submitted SubmitAndWait(jpar::Session* session, const std::string& query,
                        StartHook* hook, Tracer* tracer, uint64_t request,
                        ServiceSamples* samples);

/// Spans' self time per layer plus the span count, as metrics.
void FillTraceMetrics(const Tracer& tracer, Report* report);

/// DATASCAN paths of the queries the workloads run.
std::vector<jpar::PathStep> ResultsPath();      // root()results()
std::vector<jpar::PathStep> ResultsDatePath();  // root()results()date

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
