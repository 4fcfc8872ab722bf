#ifndef JPAR_RUNTIME_STATS_H_
#define JPAR_RUNTIME_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace jpar {

/// How two values of one counter combine when partial measurements
/// (tasks, fragments, queries) fold into a total.
enum class CounterMerge { kSum, kMax };

template <CounterMerge kMerge, typename T>
void MergeCounter(T* into, T value) {
  if constexpr (kMerge == CounterMerge::kSum) {
    *into += value;
  } else {
    *into = std::max(*into, value);
  }
}

/// Expands to one `type name = 0;` field per registry entry.
#define JPAR_COUNTER_FIELD(type, name, merge) type name = 0;
/// Expands to one visitor call `f("name", name)` per registry entry.
#define JPAR_COUNTER_VISIT(type, name, merge) f(#name, name);
/// Calls f(name, field) for each counter of `list`, in list order.
#define JPAR_COUNTER_FOR_EACH(list)                                            \
  template <typename F>                                                        \
  void ForEachCounter(F&& f) {                                                 \
    list(JPAR_COUNTER_VISIT)                                                   \
  }                                                                            \
  template <typename F>                                                        \
  void ForEachCounter(F&& f) const {                                           \
    list(JPAR_COUNTER_VISIT)                                                   \
  }

/// The per-stage counters: X(type, name, merge), in wire order. A
/// stage's tasks fold into these by the listed merge.
#define JPAR_STAGE_COUNTERS(X)                                                 \
  X(uint64_t, exchange_bytes, kSum)                                            \
  X(uint64_t, exchange_frames, kSum)                                           \
  X(uint64_t, exchange_tuples, kSum)                                           \
  /* Largest single serialized tuple seen at an operator boundary or           \
     exchange (shows how the rewrite rules shrink tuple granularity). */       \
  X(uint64_t, max_tuple_bytes, kMax)                                           \
  /* Total bytes materialized into frames at intra-pipeline operator           \
     boundaries (the "buffer size between operators" of paper §4.1). */        \
  X(uint64_t, pipeline_bytes, kSum)                                            \
  /* Frames larger than the configured frame size (tuple > frame). */          \
  X(uint64_t, oversized_frames, kSum)

/// Per-stage measurements. A "stage" is a Hyracks-style superstep: all
/// partitions of one pipeline (or one exchange + blocking operator) run
/// to completion before the next stage starts.
struct StageStats {
  std::string name;
  /// Wall-clock milliseconds per partition task (per scan worker in a
  /// threaded DATASCAN). Tasks run one after another unless
  /// ExecOptions::use_threads, so each time is undisturbed by the
  /// others; the makespan model LPT-schedules them onto the modeled
  /// cores.
  std::vector<double> partition_ms;
  /// Real wall-clock time of the stage's exchange: sender tasks, serial
  /// routing and receiver tasks (threaded under use_threads); for a
  /// sort, its gather merge.
  double exchange_ms = 0;
  /// Per-task exchange times for the makespan model: one vector per
  /// exchange phase (sender-side encode tasks, receiver-side decode
  /// tasks), each LPT-scheduled onto the modeled cores like ordinary
  /// partition tasks.
  std::vector<std::vector<double>> exchange_task_ms;
  /// Simulated cross-node network time for this stage's exchange.
  double network_ms = 0;
  JPAR_STAGE_COUNTERS(JPAR_COUNTER_FIELD)

  JPAR_COUNTER_FOR_EACH(JPAR_STAGE_COUNTERS)

  double MaxPartitionMs() const {
    double m = 0;
    for (double v : partition_ms) m = v > m ? v : m;
    return m;
  }
  double SumPartitionMs() const {
    double s = 0;
    for (double v : partition_ms) s += v;
    return s;
  }
};

/// The registry of per-query execution counters, the only list of
/// them: X(type, name, merge), in wire order. `type` is uint64_t or
/// double; `merge` says how partial values fold (CounterMerge). The
/// ExecCounters fields, their merge, the dist wire encoding and the
/// QueryService aggregate are all generated from this list, so a new
/// counter is one entry here.
#define JPAR_EXEC_COUNTERS(X)                                                  \
  /* Modeled cross-node network time included in makespan_ms. */               \
  X(double, network_ms, kSum)                                                  \
  X(uint64_t, bytes_scanned, kSum)                                             \
  X(uint64_t, items_scanned, kSum)                                             \
  X(uint64_t, result_rows, kSum)                                               \
  X(uint64_t, peak_retained_bytes, kMax)                                       \
  /* Malformed records skipped by degraded scans                               \
     (ExecOptions::on_parse_error == kSkipAndCount); 0 in strict mode. */      \
  X(uint64_t, skipped_records, kSum)                                           \
  /* Scan tasks executed by morsel-driven DATASCANs (threaded runs             \
     split files into newline-aligned ~morsel_bytes chunks); 0 when            \
     scans ran sequentially. */                                                \
  X(uint64_t, morsels_scanned, kSum)                                           \
  /* Memory-governed spilling (ExecOptions::spill == kEnabled,                 \
     DESIGN.md §10). Run files written by group-by/sort operators that         \
     exceeded their budget share; all 0 when nothing spilled. */               \
  X(uint64_t, spill_runs, kSum)                                                \
  X(uint64_t, spill_bytes_written, kSum)                                       \
  /* Bucket merge passes, counting recursive repartitions of                   \
     hash-collision-heavy buckets. */                                          \
  X(uint64_t, spill_merge_passes, kSum)                                        \
  /* Distributed execution (src/dist, DESIGN.md §11); all 0 for                \
     single-process runs. */                                                   \
  X(uint64_t, dist_workers, kSum) /* worker processes that ran fragments */    \
  X(uint64_t, dist_rounds, kSum)  /* fragment rounds (attempts) dispatched */  \
  X(uint64_t, dist_frames, kSum)  /* data frames routed by the dispatcher */   \
  X(uint64_t, dist_bytes, kSum)   /* payload bytes of those frames */          \
  /* Failure recovery (DESIGN.md §12); all 0 when no worker was lost. */       \
  X(uint64_t, fragment_retries, kSum)   /* re-sent after kWorkerLost */        \
  X(uint64_t, workers_respawned, kSum)  /* respawned mid-query */              \
  X(uint64_t, frames_replayed, kSum)    /* re-sent to retried fragments */     \
  X(uint64_t, replay_spill_bytes, kSum) /* replay buffer spilled to disk */    \
  /* Wall clock from first loss detection until the affected stages            \
     completed (includes backoff, respawn, and re-execution time). */          \
  X(double, recovery_ms, kSum)                                                 \
  /* Vectorized execution (DESIGN.md §13); both 0 under the legacy             \
     tuple-at-a-time path (ExprMode::kTree, JPAR_DISABLE_EXPR_BYTECODE). */    \
  X(uint64_t, batches_emitted, kSum) /* TupleBatches flushed */                \
  X(uint64_t, exprs_compiled, kSum)  /* ASSIGN/SELECT exprs as bytecode */     \
  /* Warm storage tier (DESIGN.md §14); all 0 when the cache is off or         \
     every scanned file is in-memory/binary. */                                \
  X(uint64_t, tape_hits, kSum)     /* scans served a cached tape */            \
  X(uint64_t, tape_builds, kSum)   /* tapes built (and cached) */              \
  X(uint64_t, columns_read, kSum)  /* files served from column cache */        \
  X(uint64_t, blocks_pruned, kSum) /* blocks skipped via zone maps */          \
  /* Sampled statistics (DESIGN.md §15): (file, path) samples this             \
     query contributed to the StatsStore; 0 when stats are off or every        \
     sample was already fresh. */                                              \
  X(uint64_t, stats_paths_built, kSum)

/// One value per JPAR_EXEC_COUNTERS entry.
struct ExecCounters {
  JPAR_EXEC_COUNTERS(JPAR_COUNTER_FIELD)

  /// Folds `other` in: kSum counters add, kMax counters keep the larger.
  void Add(const ExecCounters& other) {
#define JPAR_COUNTER_ADD(type, name, merge)                                    \
  MergeCounter<CounterMerge::merge>(&name, other.name);
    JPAR_EXEC_COUNTERS(JPAR_COUNTER_ADD)
#undef JPAR_COUNTER_ADD
  }

  JPAR_COUNTER_FOR_EACH(JPAR_EXEC_COUNTERS)
};

/// End-to-end execution statistics returned with every query result:
/// the registry counters plus what only the coordinator sets.
struct ExecStats : ExecCounters {
  std::vector<StageStats> stages;

  /// Real wall-clock time of the whole job on this host.
  double real_ms = 0;
  /// Simulated parallel time: sum over stages of
  /// max(partition_ms) + exchange_ms (+ modeled network cost). This is
  /// the quantity the paper's speed-up/scale-up figures plot.
  double makespan_ms = 0;

  void Merge(const StageStats& stage) { stages.push_back(stage); }

  /// Folds a worker-side fragment's stats into this (dispatcher-side)
  /// aggregate: stages are appended, counters merged by their registry
  /// kind. Timing aggregates (real_ms/makespan_ms) are left to the
  /// caller — in a distributed run they are genuine wall-clock, not
  /// sums. A fragment never sets result_rows, dist_workers or
  /// dist_rounds; the dispatcher sets those itself.
  void MergeFrom(const ExecStats& other) {
    for (const StageStats& s : other.stages) stages.push_back(s);
    Add(other);
  }
};

}  // namespace jpar

#endif  // JPAR_RUNTIME_STATS_H_
