#include "runtime/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstring>
#include <functional>
#include <iterator>
#include <thread>
#include <unordered_map>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "json/binary_serde.h"
#include "json/parser.h"
#include "runtime/frame.h"
#include "runtime/spill.h"

namespace jpar {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string IndentStr(int n) { return std::string(static_cast<size_t>(n), ' '); }

/// Which warm-storage access paths this query may use (DESIGN.md §14).
/// The JPAR_DISABLE_STORAGE_CACHE kill-switch overrides every mode.
struct StoragePolicy {
  bool tapes = false;
  bool columns = false;
};

StoragePolicy ResolveStoragePolicy(const ExecOptions& options) {
  if (StorageCacheDisabledByEnv()) return {};
  switch (options.storage_mode) {
    case StorageMode::kOff:
      return {};
    case StorageMode::kTape:
      return {true, false};
    case StorageMode::kAuto:
    case StorageMode::kColumnar:
      return {true, true};
  }
  return {};
}

/// Only path-backed text files participate in the storage tier:
/// in-memory and binary files have no (path, size, mtime) identity.
bool FileCacheable(const JsonFile& file) {
  return !file.is_binary() && !file.in_memory() && !file.path().empty();
}

/// Narrows the resolved storage policy by the plan's access hint
/// (DESIGN.md §15). Hints can only subtract levels — a disabled cache
/// stays disabled regardless of what the planner believed.
StoragePolicy ApplyAccessHint(StoragePolicy base, AccessHint hint) {
  switch (hint) {
    case AccessHint::kAny:
    case AccessHint::kColumnar:  // columnar is already the first choice
      return base;
    case AccessHint::kTape:
      return {base.tapes, false};
    case AccessHint::kCold:
      return {};
  }
  return base;
}

/// Whether scans under these options sample PathStats as they parse.
bool StatsBuildEnabled(const ExecOptions& options) {
  return StatsEnabled(options.stats_mode);
}

StatsConfig ResolveStatsConfig(const ExecOptions& options) {
  StatsConfig cfg;
  cfg.cache_dir = options.storage_cache_dir;
  return cfg;
}

/// Serves one file's scan from a cached column: decodes each block's
/// values in the original emit order, skipping blocks the zone map
/// proves cannot satisfy the scan's annotated SELECT predicate. The
/// SELECT itself still runs over every emitted row downstream.
Status EmitColumn(const ColumnData& column, const ScanDesc& scan,
                  const std::function<Status(Item)>& emit,
                  uint64_t* blocks_pruned) {
  for (const ColumnBlock& block : column.blocks) {
    if (scan.zone_op != ZoneCompare::kNone &&
        !ZoneMayMatch(block, scan.zone_op, scan.zone_value)) {
      ++*blocks_pruned;
      continue;
    }
    ItemReader reader(block.values);
    while (!reader.AtEnd()) {
      JPAR_ASSIGN_OR_RETURN(Item item, reader.Read());
      JPAR_RETURN_NOT_OK(emit(std::move(item)));
    }
  }
  return Status::OK();
}

/// Decides a probed record for the scan prefilter (DESIGN.md §9): runs
/// the prefilter's ops over `probe` in pipeline order on the tree
/// interpreter, appending each ASSIGN's value. False (drop the record)
/// only when every op evaluated cleanly and a SELECT came out false:
/// exactly when the pipeline's own SELECT would drop the record without
/// an error. Any evaluation error keeps the record, so the pipeline
/// raises (or, leniently, skips) it as it always did.
bool PrefilterKeeps(const ScanPrefilter& prefilter, Tuple* probe,
                    EvalContext* ctx) {
  for (const UnaryOpDesc& op : prefilter.ops) {
    Result<Item> value = op.eval->Eval(*probe, ctx);
    if (!value.ok()) return true;
    if (op.kind == UnaryOpDesc::Kind::kAssign) {
      probe->push_back(*std::move(value));
      continue;
    }
    Result<bool> pass = value->EffectiveBooleanValue();
    if (!pass.ok()) return true;
    if (!*pass) return false;
  }
  return true;
}

/// Batch-at-a-time pipeline driver (DESIGN.md §13): accumulates scan
/// items / input tuples into a TupleBatch and runs the whole op chain
/// per batch via RunBatchChain. Survivors are materialized once at the
/// pipeline boundary, where one frame serialization per emitted tuple
/// is charged (the pipeline's real output write) — the per-operator
/// boundary charges of the tuple path are exactly the work
/// vectorization removes, so the driver's EvalContext runs with
/// charge_boundaries off.
class BatchPipe {
 public:
  BatchPipe(const std::vector<UnaryOpDesc>* ops, EvalContext* ctx,
            size_t capacity, std::function<Status()> check_fn,
            std::vector<Tuple>* out, uint64_t* batches)
      : ops_(ops),
        ctx_(ctx),
        out_(out),
        batches_(batches),
        check_(std::move(check_fn)),
        batch_(capacity) {
    sink_ = [this](TupleBatch& b) -> Status { return Emit(b); };
  }

  Status PushItem(Item item) {
    EnsureWidth(1);
    batch_.AppendRow(std::move(item));
    return batch_.full() ? Flush() : Status::OK();
  }

  Status PushTuple(Tuple t) {
    EnsureWidth(t.size());
    batch_.AppendTuple(std::move(t));
    return batch_.full() ? Flush() : Status::OK();
  }

  Status Finish() { return batch_.empty() ? Status::OK() : Flush(); }

 private:
  void EnsureWidth(size_t width) {
    if (width_ != width) {
      width_ = width;
      batch_.Reset(width);
    }
  }

  Status Flush() {
    JPAR_RETURN_NOT_OK(RunBatchChain(*ops_, &batch_, ctx_,
                                     /*use_bytecode=*/true, &check_, sink_));
    batch_.Reset(width_);
    return Status::OK();
  }

  Status Emit(TupleBatch& b) {
    for (uint32_t row : b.selection()) {
      Tuple t = b.MaterializeRow(row);
      // The boundary counters need only the frame size, not the bytes.
      size_t encoded = EncodedTupleSize(t);
      ctx_->boundary_bytes += encoded;
      ++ctx_->boundary_tuples;
      if (encoded > ctx_->max_tuple_bytes) ctx_->max_tuple_bytes = encoded;
      out_->push_back(std::move(t));
    }
    ++*batches_;
    return Status::OK();
  }

  const std::vector<UnaryOpDesc>* ops_;
  EvalContext* ctx_;
  std::vector<Tuple>* out_;
  uint64_t* batches_;
  EvalCheck check_;
  TupleBatch batch_;
  size_t width_ = 0;
  BatchSink sink_;
};

/// Moves the tuples of `part` onto the end of `out`.
void AppendTuples(std::vector<Tuple>* out, std::vector<Tuple>* part) {
  if (out->empty()) {
    *out = std::move(*part);
  } else {
    out->insert(out->end(), std::make_move_iterator(part->begin()),
                std::make_move_iterator(part->end()));
  }
}

/// Runs fn(0) .. fn(n - 1): on n threads when `threaded` and n > 1,
/// otherwise one after another on the calling thread.
void RunTasks(size_t n, bool threaded, const std::function<void(size_t)>& fn) {
  if (!threaded || n < 2) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

/// Runs fn(0) .. fn(n - 1) through RunTasks and returns the first
/// failure in task order. A task not yet started when another fails is
/// skipped, so the sequential schedule stops where it fails.
Status RunPartitionTasks(size_t n, bool threaded,
                         const std::function<Status(size_t)>& fn) {
  std::vector<Status> status(n);
  std::atomic<bool> failed{false};
  RunTasks(n, threaded, [&](size_t i) {
    if (failed.load(std::memory_order_relaxed)) return;
    status[i] = fn(i);
    if (!status[i].ok()) failed.store(true, std::memory_order_relaxed);
  });
  for (const Status& st : status) JPAR_RETURN_NOT_OK(st);
  return Status::OK();
}

/// Folds an operator's tracked peak and spill activity into the query.
void NoteOperatorStats(uint64_t peak_bytes, const SpillManager* spill,
                       uint64_t merge_passes, ExecStats* stats) {
  stats->peak_retained_bytes =
      std::max(stats->peak_retained_bytes, peak_bytes);
  if (spill != nullptr) {
    stats->spill_runs += spill->runs_created();
    stats->spill_bytes_written += spill->bytes_written();
    stats->spill_merge_passes += merge_passes;
  }
}

/// The memory tracker of one blocking operator (or one of its tasks):
/// the limit is hard unless spilling makes it a budget (DESIGN.md §10).
std::unique_ptr<MemoryTracker> OperatorTracker(const ExecOptions& options) {
  return std::make_unique<MemoryTracker>(
      options.memory_limit_bytes, options.spill == SpillMode::kEnabled);
}

/// The run-file manager of one blocking operator; null unless spilling.
Result<std::unique_ptr<SpillManager>> MaybeSpillManager(
    const ExecOptions& options, QueryContext* ctx) {
  if (options.spill != SpillMode::kEnabled) {
    return std::unique_ptr<SpillManager>();
  }
  return SpillManager::Create(options.spill_dir, ctx);
}

/// What one partition task of a group-by or join owns, so no two
/// threads charge one tracker or write through one spill manager
/// (DESIGN.md §10). `memory` stays null when the stage charges a
/// shared tracker instead.
struct OperatorTask {
  std::unique_ptr<MemoryTracker> memory;
  std::unique_ptr<SpillManager> spill;
  uint64_t merge_passes = 0;
};

/// Folds a stage's tasks into the query in task order.
void NoteOperatorTasks(const std::vector<OperatorTask>& tasks,
                       ExecStats* stats) {
  for (const OperatorTask& t : tasks) {
    NoteOperatorStats(t.memory != nullptr ? t.memory->peak_bytes() : 0,
                      t.spill.get(), t.merge_passes, stats);
  }
}

/// Group-by key evaluators: node.keys over raw tuples, or the leading
/// key columns of two-step partials.
std::vector<ScalarEvalPtr> GroupKeyEvals(const PNode& node,
                                         bool from_partials) {
  if (!from_partials) return node.keys;
  std::vector<ScalarEvalPtr> keys;
  for (size_t i = 0; i < node.keys.size(); ++i) {
    keys.push_back(MakeColumnEval(static_cast<int>(i)));
  }
  return keys;
}

const char* GroupByStageName(AggStep step) {
  switch (step) {
    case AggStep::kLocal:
      return "group-by (local)";
    case AggStep::kGlobal:
      return "group-by (global merge)";
    case AggStep::kComplete:
      break;
  }
  return "group-by (hash)";
}

/// Encodes the grouping/join key of a tuple under `key_evals`.
Status EncodeKey(const std::vector<ScalarEvalPtr>& key_evals,
                 const Tuple& tuple, EvalContext* ctx, std::string* encoded,
                 Tuple* key_items) {
  encoded->clear();
  if (key_items != nullptr) key_items->clear();
  for (const ScalarEvalPtr& eval : key_evals) {
    JPAR_ASSIGN_OR_RETURN(Item k, eval->Eval(tuple, ctx));
    k.AppendGroupKeyTo(encoded);
    encoded->push_back('\0');
    if (key_items != nullptr) key_items->push_back(std::move(k));
  }
  return Status::OK();
}

struct GroupState {
  Tuple key_items;
  std::vector<std::unique_ptr<Aggregator>> aggs;
};

/// Salted FNV-1a over the encoded group key. Bucket routing must NOT
/// reuse the exchange's std::hash: flushes partition by SpillHash(key,
/// 0) and each recursive repartition re-splits a skewed bucket with the
/// next salt, so collisions at one level separate at the next.
uint64_t SpillHash(std::string_view key, uint32_t salt) {
  uint64_t h = 14695981039346656037ull ^
               (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(salt) + 1));
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// How many salted repartition levels a pathologically skewed bucket
/// may recurse before the merge simply overruns its budget softly.
/// fanout^6 sub-buckets is far beyond any realistic collision pile-up.
constexpr int kMaxSpillDepth = 6;

/// Hash-aggregation table for one group-by partition task. With
/// `spill` null it reproduces the pre-spilling fail-fast behavior
/// exactly (same Fault/Allocate points, same charges). With a
/// SpillManager it is memory-governed: when the partition's tracked
/// bytes exceed `budget`, the table is hash-partitioned into `fanout`
/// run files and cleared; Emit() then merges the runs bucket by bucket,
/// recursively re-splitting any bucket whose merged groups overflow the
/// budget again (hash-collision-heavy skew). See DESIGN.md §10.
class SpillableGroupTable {
 public:
  SpillableGroupTable(const std::vector<AggSpec>& specs, AggStep step,
                      MemoryTracker* memory, bool track_growth,
                      QueryContext* ctx, SpillManager* spill, int fanout,
                      uint64_t budget, uint64_t* merge_passes)
      : specs_(specs),
        step_(step),
        memory_(memory),
        track_growth_(track_growth),
        ctx_(ctx),
        spill_(spill),
        fanout_(fanout < 2 ? 2 : fanout),
        budget_(budget),
        merge_passes_(merge_passes) {}

  /// Folds one input tuple into the group keyed by `encoded`.
  /// `value_of(i)` produces the Step input for aggregator i.
  Status Add(const std::string& encoded, const Tuple& key_items,
             const std::function<Result<Item>(size_t)>& value_of) {
    auto [it, inserted] = table_.try_emplace(encoded);
    if (inserted) {
      it->second.key_items = key_items;
      JPAR_RETURN_NOT_OK(FaultAt(FaultInjector::kAllocFail));
      uint64_t charge = encoded.size() + 64;
      JPAR_RETURN_NOT_OK(memory_->Allocate(charge));
      allocated_ += charge;
      for (const AggSpec& spec : specs_) {
        JPAR_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> agg,
                              MakeAggregator(spec.kind, step_));
        it->second.aggs.push_back(std::move(agg));
      }
    }
    for (size_t i = 0; i < specs_.size(); ++i) {
      JPAR_ASSIGN_OR_RETURN(Item v, value_of(i));
      if (track_growth_) {
        size_t before = it->second.aggs[i]->RetainedBytes();
        JPAR_RETURN_NOT_OK(it->second.aggs[i]->Step(v));
        size_t after = it->second.aggs[i]->RetainedBytes();
        if (after > before) {
          JPAR_RETURN_NOT_OK(memory_->Allocate(after - before));
          allocated_ += after - before;
        }
      } else {
        JPAR_RETURN_NOT_OK(it->second.aggs[i]->Step(v));
      }
    }
    if (spill_ != nullptr && budget_ > 0 && allocated_ > budget_) {
      JPAR_RETURN_NOT_OK(Flush());
    }
    return Status::OK();
  }

  /// Finishes every group into `*out` (key items ++ finished
  /// aggregates). When nothing spilled this is the plain in-memory
  /// emit; otherwise the live table is flushed too and the runs are
  /// merged bucket by bucket.
  Status Emit(std::vector<Tuple>* out) {
    if (writers_.empty()) {
      for (auto& [key, state] : table_) {
        Tuple t = std::move(state.key_items);
        for (std::unique_ptr<Aggregator>& agg : state.aggs) {
          JPAR_ASSIGN_OR_RETURN(Item v, agg->Finish());
          t.push_back(std::move(v));
        }
        out->push_back(std::move(t));
      }
      table_.clear();
      return Status::OK();
    }
    JPAR_RETURN_NOT_OK(Flush());
    std::vector<std::string> paths;
    paths.reserve(writers_.size());
    for (std::unique_ptr<SpillRunWriter>& w : writers_) {
      JPAR_RETURN_NOT_OK(w->Finish());
      paths.push_back(w->path());
    }
    writers_.clear();
    std::vector<KeyedTuple> keyed;
    for (const std::string& path : paths) {
      JPAR_RETURN_NOT_OK(MergeBucket(path, 0, &keyed));
    }
    // Canonical spilled emit order, independent of the fanout: groups
    // come back bucket by bucket, and bucket boundaries move with the
    // fanout (which the cost model may hint), so raw bucket order
    // would leak a pure performance knob into the answer. Encoded
    // group keys are unique, so the sort is total and tie-free.
    std::sort(keyed.begin(), keyed.end(),
              [](const KeyedTuple& a, const KeyedTuple& b) {
                return a.key < b.key;
              });
    out->reserve(out->size() + keyed.size());
    for (KeyedTuple& kt : keyed) out->push_back(std::move(kt.tuple));
    return Status::OK();
  }

  bool spilled() const { return !writers_.empty() || spilled_once_; }

 private:
  /// A finished group plus the encoded key it merged under; the key
  /// survives to Emit() so the final order can be canonicalized.
  struct KeyedTuple {
    std::string key;
    Tuple tuple;
  };
  Status Check(const char* stage) const {
    return ctx_ != nullptr ? ctx_->Check(stage) : Status::OK();
  }
  Status FaultAt(std::string_view point) const {
    return ctx_ != nullptr ? ctx_->Fault(point) : Status::OK();
  }

  /// Writes every live group to its hash bucket's run file (append;
  /// one file per bucket across all flushes) and clears the table.
  Status Flush() {
    if (table_.empty()) return Status::OK();
    if (writers_.empty()) {
      writers_.resize(static_cast<size_t>(fanout_));
      for (std::unique_ptr<SpillRunWriter>& w : writers_) {
        JPAR_ASSIGN_OR_RETURN(w, spill_->NewRun());
      }
      spilled_once_ = true;
    }
    std::string record;
    uint64_t n = 0;
    for (auto& [key, state] : table_) {
      if (++n % Executor::kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Check("group-by spill"));
      }
      record.clear();
      JPAR_RETURN_NOT_OK(
          EncodeGroupSpillRecord(key, state.key_items, state.aggs, &record));
      size_t b = SpillHash(key, 0) % static_cast<size_t>(fanout_);
      JPAR_RETURN_NOT_OK(writers_[b]->Append(record));
    }
    table_.clear();
    memory_->Release(allocated_);
    allocated_ = 0;
    return Status::OK();
  }

  Status MergeBucket(const std::string& path, int depth,
                     std::vector<KeyedTuple>* out) {
    if (merge_passes_ != nullptr) ++*merge_passes_;
    JPAR_ASSIGN_OR_RETURN(std::unique_ptr<SpillRunReader> reader,
                          spill_->OpenRun(path));
    std::unordered_map<std::string, GroupState> table;
    uint64_t allocated = 0;
    std::string record;
    uint64_t n = 0;
    while (true) {
      JPAR_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
      if (!more) break;
      if (++n % Executor::kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Check("group-by spill merge"));
      }
      JPAR_ASSIGN_OR_RETURN(GroupSpillRecord rec,
                            DecodeGroupSpillRecord(record));
      if (rec.partials.size() != specs_.size()) {
        return Status::Internal("group spill record arity mismatch");
      }
      auto [it, inserted] = table.try_emplace(rec.encoded_key);
      if (inserted) {
        it->second.key_items = std::move(rec.key_items);
        JPAR_RETURN_NOT_OK(FaultAt(FaultInjector::kAllocFail));
        uint64_t charge = rec.encoded_key.size() + 64;
        JPAR_RETURN_NOT_OK(memory_->Allocate(charge));
        allocated += charge;
        for (const AggSpec& spec : specs_) {
          JPAR_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> agg,
                                MakeAggregator(spec.kind, step_));
          it->second.aggs.push_back(std::move(agg));
        }
      }
      for (size_t i = 0; i < rec.partials.size(); ++i) {
        size_t before = it->second.aggs[i]->RetainedBytes();
        JPAR_RETURN_NOT_OK(it->second.aggs[i]->MergePartial(rec.partials[i]));
        size_t after = it->second.aggs[i]->RetainedBytes();
        if (after > before) {
          JPAR_RETURN_NOT_OK(memory_->Allocate(after - before));
          allocated += after - before;
        }
      }
      if (budget_ > 0 && allocated > budget_ && depth < kMaxSpillDepth) {
        return Repartition(std::move(reader), path, &table, allocated, depth,
                           out);
      }
      // Past kMaxSpillDepth the bucket overruns its budget softly —
      // with a sane hash that takes adversarial key collisions.
    }
    for (auto& [key, state] : table) {
      Tuple t = std::move(state.key_items);
      for (std::unique_ptr<Aggregator>& agg : state.aggs) {
        JPAR_ASSIGN_OR_RETURN(Item v, agg->Finish());
        t.push_back(std::move(v));
      }
      out->push_back({key, std::move(t)});
    }
    memory_->Release(allocated);
    spill_->Remove(path);
    return Status::OK();
  }

  /// A bucket's distinct groups alone blew the budget: re-split the
  /// partially merged table plus the rest of the bucket's stream into
  /// `fanout` sub-runs under the next salt and merge those instead.
  Status Repartition(std::unique_ptr<SpillRunReader> reader,
                     const std::string& path,
                     std::unordered_map<std::string, GroupState>* table,
                     uint64_t allocated, int depth,
                     std::vector<KeyedTuple>* out) {
    uint32_t salt = static_cast<uint32_t>(depth) + 1;
    std::vector<std::unique_ptr<SpillRunWriter>> subs(
        static_cast<size_t>(fanout_));
    for (std::unique_ptr<SpillRunWriter>& w : subs) {
      JPAR_ASSIGN_OR_RETURN(w, spill_->NewRun());
    }
    std::string record;
    uint64_t n = 0;
    for (auto& [key, state] : *table) {
      if (++n % Executor::kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Check("group-by spill repartition"));
      }
      record.clear();
      JPAR_RETURN_NOT_OK(
          EncodeGroupSpillRecord(key, state.key_items, state.aggs, &record));
      size_t b = SpillHash(key, salt) % static_cast<size_t>(fanout_);
      JPAR_RETURN_NOT_OK(subs[b]->Append(record));
    }
    table->clear();
    memory_->Release(allocated);
    // Route the unread remainder by key alone, without decoding
    // partials.
    while (true) {
      JPAR_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
      if (!more) break;
      if (++n % Executor::kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Check("group-by spill repartition"));
      }
      JPAR_ASSIGN_OR_RETURN(std::string key, PeekGroupSpillKey(record));
      size_t b = SpillHash(key, salt) % static_cast<size_t>(fanout_);
      JPAR_RETURN_NOT_OK(subs[b]->Append(record));
    }
    reader.reset();
    spill_->Remove(path);
    std::vector<std::string> paths;
    paths.reserve(subs.size());
    for (std::unique_ptr<SpillRunWriter>& w : subs) {
      JPAR_RETURN_NOT_OK(w->Finish());
      paths.push_back(w->path());
    }
    subs.clear();
    for (const std::string& sub : paths) {
      JPAR_RETURN_NOT_OK(MergeBucket(sub, depth + 1, out));
    }
    return Status::OK();
  }

  const std::vector<AggSpec>& specs_;
  AggStep step_;
  MemoryTracker* memory_;
  bool track_growth_;
  QueryContext* ctx_;    // null = no lifecycle checks
  SpillManager* spill_;  // null = fail-fast mode
  int fanout_;
  uint64_t budget_;
  uint64_t* merge_passes_;

  std::unordered_map<std::string, GroupState> table_;
  std::vector<std::unique_ptr<SpillRunWriter>> writers_;
  uint64_t allocated_ = 0;
  bool spilled_once_ = false;
};

}  // namespace

/// What one pipeline task — a sequential scan partition, a scan
/// morsel, or one input partition of a later pipeline — records while
/// it runs. Tasks never share one; the coordinator folds a stage's
/// tasks into the query's stats in task order, through MergeStage only.
struct Executor::TaskStats {
  Status status;
  /// The task's share of the query's registry counters (scan bytes and
  /// items, batches, morsels, storage-tier and stats activity).
  ExecCounters counters;
  uint64_t boundary_bytes = 0;  // StageStats::pipeline_bytes
  uint64_t max_tuple = 0;       // StageStats::max_tuple_bytes

  /// Merges `tasks` in task order (the first failed task's status
  /// wins) and the stage's tracked peak, then appends `stage`.
  static Status MergeStage(const std::vector<TaskStats>& tasks,
                           const MemoryTracker& memory, StageStats* stage,
                           ExecStats* stats) {
    for (const TaskStats& t : tasks) {
      JPAR_RETURN_NOT_OK(t.status);
      stats->Add(t.counters);
      stage->pipeline_bytes += t.boundary_bytes;
      stage->max_tuple_bytes = std::max(stage->max_tuple_bytes, t.max_tuple);
    }
    NoteOperatorStats(memory.peak_bytes(), nullptr, 0, stats);
    stats->Merge(*stage);
    return Status::OK();
  }
};

/// The op chain of one pipeline task: scan items or input tuples go
/// through `ops` batch-at-a-time (BatchPipe) or tuple-at-a-time
/// (RunChain) into `out`, with a lifecycle poll every
/// kCheckIntervalTuples pushes — so one huge NDJSON file is checked
/// mid-file, not only at file boundaries.
class Executor::PipelineTask {
 public:
  PipelineTask(const Executor& exec, const std::vector<UnaryOpDesc>& ops,
               bool batch_mode, MemoryTracker* memory,
               std::vector<Tuple>* out, TaskStats* stats)
      : exec_(exec),
        ops_(ops),
        stats_(stats),
        sink_([out](Tuple t) -> Status {
          out->push_back(std::move(t));
          return Status::OK();
        }) {
    ctx_.catalog = exec.catalog_;
    ctx_.memory = memory;
    ctx_.charge_boundaries = !batch_mode;
    if (batch_mode) {
      pipe_ = std::make_unique<BatchPipe>(
          &ops, &ctx_, exec.options_.batch_size,
          [&exec]() { return exec.Interrupted("pipeline"); }, out,
          &stats->counters.batches_emitted);
    }
  }
  PipelineTask(const PipelineTask&) = delete;
  PipelineTask& operator=(const PipelineTask&) = delete;

  /// One scanned item (counts toward items_scanned).
  Status PushItem(Item item) {
    JPAR_RETURN_NOT_OK(CountScanned());
    if (pipe_ != nullptr) return pipe_->PushItem(std::move(item));
    return RunChain(ops_, 0, Tuple{std::move(item)}, &ctx_, sink_);
  }

  /// Counts one scanned item toward items_scanned, polling the query's
  /// lifecycle every kCheckIntervalTuples. Records the scan prefilter
  /// drops are counted here without being pushed.
  Status CountScanned() {
    if (++stats_->counters.items_scanned % kCheckIntervalTuples == 0) {
      return exec_.Interrupted("pipeline");
    }
    return Status::OK();
  }

  /// One input tuple of a pipeline over an upstream operator.
  Status PushTuple(Tuple t) {
    if (++pushed_ % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(exec_.Interrupted("pipeline"));
    }
    if (pipe_ != nullptr) return pipe_->PushTuple(std::move(t));
    return RunChain(ops_, 0, std::move(t), &ctx_, sink_);
  }

  /// Flushes the last batch and records the task's evaluation counters.
  Status Finish() {
    Status st = pipe_ != nullptr ? pipe_->Finish() : Status::OK();
    stats_->counters.bytes_scanned += ctx_.bytes_parsed;
    stats_->boundary_bytes += ctx_.boundary_bytes;
    stats_->max_tuple = std::max(stats_->max_tuple, ctx_.max_tuple_bytes);
    return st;
  }

 private:
  const Executor& exec_;
  const std::vector<UnaryOpDesc>& ops_;
  TaskStats* stats_;
  TupleSink sink_;
  EvalContext ctx_;
  std::unique_ptr<BatchPipe> pipe_;
  uint64_t pushed_ = 0;
};

std::string PNode::ToString(int indent) const {
  std::string out;
  switch (kind) {
    case Kind::kPipeline: {
      for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
        out += IndentStr(indent) + it->ToString() + "\n";
      }
      if (input != nullptr) {
        out += input->ToString(indent);
      } else {
        out += IndentStr(indent) + scan.ToString() + "\n";
      }
      return out;
    }
    case Kind::kGroupBy: {
      out += IndentStr(indent) + std::string("GROUP-BY");
      out += two_step ? " [two-step] {" : " {";
      for (size_t i = 0; i < keys.size(); ++i) {
        out += (i ? ", " : "keys: ") + keys[i]->ToString();
      }
      out += "; aggs: ";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i) out += ", ";
        out += aggs[i].ToString();
      }
      out += "}\n";
      out += input->ToString(indent + 2);
      return out;
    }
    case Kind::kSort: {
      out += IndentStr(indent) + "SORT [";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i) out += ", ";
        out += sort_keys[i]->ToString();
        if (i < sort_descending.size() && sort_descending[i]) {
          out += " desc";
        }
      }
      out += "]\n";
      out += input->ToString(indent + 2);
      return out;
    }
    case Kind::kJoin: {
      out += IndentStr(indent) + "JOIN [";
      for (size_t i = 0; i < left_keys.size(); ++i) {
        if (i) out += " and ";
        out += left_keys[i]->ToString() + " == " + right_keys[i]->ToString();
      }
      out += "]";
      if (build_left) out += " [build: left]";
      out += "\n";
      out += left->ToString(indent + 2);
      out += right->ToString(indent + 2);
      return out;
    }
  }
  return out;
}

std::string PhysicalPlan::ToString() const {
  std::string out = "DISTRIBUTE-RESULT $col" +
                    std::to_string(result_column) + "\n";
  if (root != nullptr) out += root->ToString(2);
  return out;
}

Result<Executor::PartitionSet> Executor::Exec(const PNode& node,
                                              ExecStats* stats) const {
  switch (node.kind) {
    case PNode::Kind::kPipeline:
      return ExecPipeline(node, stats);
    case PNode::Kind::kGroupBy:
      return ExecGroupBy(node, stats);
    case PNode::Kind::kJoin:
      return ExecJoin(node, stats);
    case PNode::Kind::kSort:
      return ExecSort(node, stats);
  }
  return Status::Internal("unknown physical node kind");
}

Result<Executor::PartitionSet> Executor::ExecPipeline(
    const PNode& node, ExecStats* stats) const {
  const bool leaf = node.input == nullptr;
  if (leaf && node.scan.kind == ScanDesc::Kind::kDataScan) {
    return ExecDataScanMorsels(node, stats);
  }
  // A pipeline runs over its input's partitions. An EMPTY-TUPLE-SOURCE
  // emits one seed tuple on a single partition (the paper's
  // pre-DATASCAN plans are serial until an exchange) and keeps the
  // tuple path, with its exact boundary accounting, in every mode.
  PartitionSet input;
  if (leaf) {
    input.parts.assign(1, std::vector<Tuple>(1));
  } else {
    JPAR_ASSIGN_OR_RETURN(input, Exec(*node.input, stats));
  }
  const size_t pcount = input.parts.size();
  const bool batch_mode = UseBatchMode() && !leaf;

  // With spilling enabled the limit is a soft budget: pipelines cannot
  // spill, so they track usage without failing (DESIGN.md §10).
  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  StageStats stage;
  stage.name = leaf ? node.scan.ToString() : "pipeline";
  stage.partition_ms.assign(pcount, 0.0);
  PartitionSet output;
  output.parts.assign(pcount, {});
  std::vector<TaskStats> tasks(pcount);
  RunTasks(pcount, options_.use_threads, [&](size_t p) {
    auto start = Clock::now();
    tasks[p].status = Fault(FaultInjector::kWorkerStall);
    if (tasks[p].status.ok()) {
      tasks[p].status =
          PipelinePartition(node.ops, batch_mode, std::move(input.parts[p]),
                            &memory, &output.parts[p], &tasks[p]);
    }
    stage.partition_ms[p] = ElapsedMs(start);
  });
  JPAR_RETURN_NOT_OK(TaskStats::MergeStage(tasks, memory, &stage, stats));
  return output;
}

Result<Executor::PartitionSet> Executor::ExecDataScanMorsels(
    const PNode& node, ExecStats* stats) const {
  const ScanDesc& scan = node.scan;
  const Collection* coll = nullptr;
  JPAR_ASSIGN_OR_RETURN(coll, catalog_->GetCollection(scan.collection));
  // With an index-assisted scan, only this subset of file ids is read
  // (null = all files). A missing index (e.g. dropped after
  // compilation) degrades to a full scan rather than failing the query.
  const std::vector<int>* file_filter =
      scan.use_index ? catalog_->LookupPathIndex(scan.collection,
                                                 scan.index_path,
                                                 scan.index_value)
                     : nullptr;
  const size_t file_count =
      file_filter != nullptr ? file_filter->size() : coll->files.size();
  // Files (or the index-pruned subset) are assigned to partitions
  // round-robin; there is no point in more scan partitions than files.
  size_t pcount = static_cast<size_t>(std::max(options_.partitions, 1));
  if (file_count > 0) pcount = std::min(pcount, file_count);

  const bool lenient =
      options_.on_parse_error == ParseErrorPolicy::kSkipAndCount;
  // Warm-storage access paths this scan may use (DESIGN.md §14). The
  // plan's cost-model access hint narrows, never widens, what the
  // options allow (DESIGN.md §15).
  const StoragePolicy storage =
      ApplyAccessHint(ResolveStoragePolicy(options_), scan.access_hint);
  const StorageConfig storage_cfg{options_.storage_budget_bytes,
                                  options_.storage_cache_dir};
  const std::string scan_path_str = PathToString(scan.steps);
  const bool stats_build = StatsBuildEnabled(options_);
  const StatsConfig stats_cfg = ResolveStatsConfig(options_);

  // One unit of scan work: a byte range of a loaded file, or a whole
  // binary or columnar-served file. A file's morsels go to its
  // round-robin partition, so both schedules emit the same order.
  struct Morsel {
    size_t partition = 0;
    const JsonFile* file = nullptr;
    std::shared_ptr<const std::string> text;  // null unless scanned as text
    size_t begin = 0;
    size_t end = 0;
    bool split_file = false;  // file produced more than one morsel
    // Warm-storage access path (DESIGN.md §14). A columnar-served file
    // is one task with `column` set; a tape-accelerated file's morsels
    // share the whole-file `tape` (indexed at absolute offsets, so
    // `begin` doubles as the index origin). An unsplit cacheable file
    // with `build_column` learns its column during the scan.
    std::shared_ptr<const ColumnData> column;
    std::shared_ptr<const StructuralIndex> tape;
    FileSignature sig;
    bool build_column = false;
    // Stats tee (DESIGN.md §15): sample PathStats once per (file, path)
    // while no fresh sample exists. Split files still sample — per-morsel
    // partials merge in task order, unlike columns.
    bool build_stats = false;
    FileSignature stats_sig;
  };

  // Per-file access-path resolution, always on the coordinating thread:
  // tape acquisition and column lookup are never raced by workers,
  // which only consume the resulting shared_ptrs. A columnar read
  // touches no JSON bytes; a tape-accelerated scan reuses the cached
  // file bytes and stage-1 index; anything else is scanned cold.
  auto resolve = [&](size_t i, Morsel* m, TaskStats* ts) -> Status {
    JPAR_RETURN_NOT_OK(Interrupted("pipeline scan"));
    JPAR_RETURN_NOT_OK(Fault(FaultInjector::kScanIOError));
    const JsonFile& file =
        file_filter != nullptr
            ? coll->files[static_cast<size_t>((*file_filter)[i])]
            : coll->files[i];
    m->partition = i % pcount;
    m->file = &file;
    if (file.is_binary()) return Status::OK();
    const bool cacheable =
        (storage.tapes || storage.columns) && FileCacheable(file);
    if (cacheable && storage.columns) {
      m->column = StorageManager::Instance().GetColumn(
          file.path(), scan_path_str, storage_cfg);
      // Strict scans refuse columns recorded with skipped records, so
      // the cold path can surface the file's parse error.
      if (m->column != nullptr && !lenient &&
          m->column->skipped_records > 0) {
        m->column = nullptr;
      }
    }
    bool have_sig = false;
    if (m->column != nullptr) {
      ++ts->counters.columns_read;
    } else {
      if (cacheable && storage.tapes &&
          options_.scan_mode == ScanMode::kIndexed) {
        // A storage failure (stat/read race) degrades to the cold path.
        auto tape =
            StorageManager::Instance().AcquireTape(file.path(), storage_cfg);
        if (tape.ok()) {
          m->text = tape->text;
          m->tape = tape->index;
          m->sig = tape->signature;
          have_sig = true;
          ++(tape->hit ? ts->counters.tape_hits : ts->counters.tape_builds);
        }
      }
      if (m->text == nullptr) {
        JPAR_ASSIGN_OR_RETURN(m->text, file.Load());
      }
      m->end = m->text->size();
      m->build_column = cacheable && storage.columns && have_sig;
    }
    // Zone pruning drops column blocks, which would bias a sample.
    if (stats_build && FileCacheable(file) &&
        (m->column == nullptr || scan.zone_op == ZoneCompare::kNone) &&
        StatsStore::Instance().Get(file.path(), scan_path_str, stats_cfg) ==
            nullptr) {
      m->stats_sig = m->sig;
      if (!have_sig) {
        auto fresh = StatFileSignature(file.path());
        if (!fresh.ok()) return Status::OK();
        m->stats_sig = *fresh;
      }
      m->build_stats = true;
    }
    return Status::OK();
  };

  const bool batch_mode = UseBatchMode();

  // Scans one morsel into `task`, teeing each item into `sample` when
  // the morsel samples stats and into a new column when it builds one.
  auto scan_morsel = [&](const Morsel& m, PipelineTask* task, TaskStats* ts,
                         PathStats* sample) -> Status {
    ExecCounters& counters = ts->counters;
    auto emit = [&](Item item) -> Status {
      if (m.build_stats) sample->Observe(item);
      return task->PushItem(std::move(item));
    };
    if (m.file->is_binary()) {
      // Pre-loaded internal-model document: deserialize, then navigate
      // the path steps in memory (no JSON parsing).
      counters.bytes_scanned += m.file->binary()->size();
      JPAR_ASSIGN_OR_RETURN(Item doc, DeserializeItem(*m.file->binary()));
      return NavigateItemPath(doc, scan.steps, 0, emit);
    }
    if (m.column != nullptr) {
      counters.bytes_scanned += m.column->bytes;
      if (lenient) counters.skipped_records += m.column->skipped_records;
      return EmitColumn(*m.column, scan, emit, &counters.blocks_pruned);
    }
    std::string_view view(*m.text);
    view = view.substr(m.begin, m.end - m.begin);
    counters.bytes_scanned += view.size();
    const uint64_t skipped_before = counters.skipped_records;
    std::unique_ptr<ColumnBuilder> column;
    if (m.build_column) column = std::make_unique<ColumnBuilder>();
    ProjectionStats pstats;
    // The scan prefilter (DESIGN.md §9) drops records its probe proves
    // the pipeline's SELECTs would drop. It is off in tree mode, which
    // stays the unfiltered oracle, and when a column or stats sample
    // must see every record.
    RecordProbe probe;
    EvalContext probe_ctx;  // pure builtins need no catalog or tracker
    const bool prefilter = scan.prefilter != nullptr && batch_mode &&
                           column == nullptr && !m.build_stats;
    if (prefilter) {
      probe.keys = scan.prefilter->keys;
      probe.keep = [&](std::vector<Item>* slots) -> Result<bool> {
        if (PrefilterKeeps(*scan.prefilter, slots, &probe_ctx)) return true;
        JPAR_RETURN_NOT_OK(task->CountScanned());
        return false;
      };
    }
    // Collection files are document streams: one document or many
    // (NDJSON / concatenated JSON); lenient scans skip and count
    // malformed records. A cached tape serves this morsel at absolute
    // offsets; without one, stage 1 is built over just this sub-view.
    JPAR_RETURN_NOT_OK(ProjectJsonStreamWithIndex(
        view, scan.steps, m.tape.get(), m.begin,
        [&](Item item) -> Status {
          if (column != nullptr) column->Add(item);
          return emit(std::move(item));
        },
        m.build_stats ? &pstats : nullptr,
        lenient ? &counters.skipped_records : nullptr, options_.scan_mode,
        prefilter ? &probe : nullptr));
    if (column != nullptr) {
      StorageManager::Instance().PutColumn(
          m.file->path(), scan_path_str,
          column->Finish(counters.skipped_records - skipped_before), m.sig,
          storage_cfg);
    }
    sample->documents = pstats.documents;
    return Status::OK();
  };

  auto put_stats = [&](const Morsel& m, PathStats* sample) {
    sample->file_bytes = m.stats_sig.size;
    StatsStore::Instance().Put(m.file->path(), scan_path_str, *sample,
                               m.stats_sig, stats_cfg);
  };

  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  StageStats stage;
  stage.name = scan.ToString();
  PartitionSet output;
  output.parts.assign(pcount, {});
  std::vector<TaskStats> tasks;

  if (!options_.use_threads) {
    // Sequential schedule: partition p resolves each of its round-robin
    // files just before scanning it, so one file's text and tape are
    // held at a time. Files are never split, so strict mode needs no
    // fallback, and morsels_scanned stays 0.
    tasks.resize(pcount);
    stage.partition_ms.assign(pcount, 0.0);
    for (size_t p = 0; p < pcount; ++p) {
      auto start = Clock::now();
      TaskStats& ts = tasks[p];
      PipelineTask task(*this, node.ops, batch_mode, &memory,
                        &output.parts[p], &ts);
      ts.status = Fault(FaultInjector::kWorkerStall);
      for (size_t i = p; ts.status.ok() && i < file_count; i += pcount) {
        Morsel m;
        PathStats sample;
        ts.status = resolve(i, &m, &ts);
        if (ts.status.ok()) ts.status = scan_morsel(m, &task, &ts, &sample);
        if (ts.status.ok() && m.build_stats) {
          put_stats(m, &sample);
          ++ts.counters.stats_paths_built;
        }
      }
      if (ts.status.ok()) ts.status = task.Finish();
      stage.partition_ms[p] = ElapsedMs(start);
    }
  } else {
    // Threaded schedule: every file is resolved up front and text files
    // are split into newline-aligned morsels that a pool of workers
    // pulls off a shared queue, so one huge file no longer serializes
    // the stage. Cost-model morsel sizing applies only while the user
    // left morsel_bytes at its default — an explicit knob always wins.
    size_t morsel_bytes = options_.morsel_bytes;
    if (scan.morsel_bytes_hint > 0 &&
        morsel_bytes == ExecOptions::kDefaultMorselBytes) {
      morsel_bytes = scan.morsel_bytes_hint;
    }
    TaskStats resolved;
    std::vector<Morsel> morsels;
    // File i owns morsels [file_first[i], file_first[i + 1]).
    std::vector<size_t> file_first(file_count + 1, 0);
    for (size_t i = 0; i < file_count; ++i) {
      file_first[i] = morsels.size();
      Morsel m;
      JPAR_RETURN_NOT_OK(resolve(i, &m, &resolved));
      // A kColumnar access hint pins a column-learnable file to a
      // single morsel so the column actually materializes this scan
      // (split morsels can't build columns); morsel boundaries never
      // change results, only scheduling, so the trade is pure
      // investment.
      const bool splittable =
          m.text != nullptr && morsel_bytes > 0 &&
          !(m.build_column && scan.access_hint == AccessHint::kColumnar);
      do {
        Morsel part = m;
        if (splittable && part.begin + morsel_bytes < m.end) {
          // Newline-aligned split: end after the first '\n' at or past
          // the size target (same raw-byte newlines the degraded scan
          // resyncs on).
          const char* base = m.text->data();
          size_t target = part.begin + morsel_bytes - 1;
          const void* nl = std::memchr(base + target, '\n', m.end - target);
          part.end = nl == nullptr
                         ? m.end
                         : static_cast<size_t>(
                               static_cast<const char*>(nl) - base) +
                               1;
        }
        morsels.push_back(part);
        m.begin = part.end;
      } while (m.begin < m.end);
      if (morsels.size() - file_first[i] > 1) {
        for (size_t t = file_first[i]; t < morsels.size(); ++t) {
          morsels[t].split_file = true;
          morsels[t].build_column = false;
        }
      }
    }
    file_first[file_count] = morsels.size();

    // Private per-morsel result slots; nothing is shared between
    // workers until the merge after the join.
    struct Slot {
      TaskStats stats;
      std::vector<Tuple> out;
      PathStats sample;
    };
    std::vector<Slot> slots(morsels.size());
    auto run_morsel = [&](const Morsel& m, Slot* slot) {
      slot->stats.counters.morsels_scanned = 1;
      slot->stats.status = Interrupted("pipeline scan");
      if (!slot->stats.status.ok()) return;
      PipelineTask task(*this, node.ops, batch_mode, &memory, &slot->out,
                        &slot->stats);
      Status st = scan_morsel(m, &task, &slot->stats, &slot->sample);
      slot->stats.status = st.ok() ? task.Finish() : st;
    };

    const size_t workers =
        morsels.empty() ? pcount : std::min(pcount, morsels.size());
    stage.partition_ms.assign(workers, 0.0);
    std::vector<Status> worker_status(workers);
    std::atomic<size_t> next_morsel{0};
    std::atomic<bool> abort{false};
    RunTasks(workers, /*threaded=*/true, [&](size_t w) {
      auto start = Clock::now();
      worker_status[w] = Fault(FaultInjector::kWorkerStall);
      if (!worker_status[w].ok()) abort.store(true, std::memory_order_relaxed);
      while (!abort.load(std::memory_order_relaxed)) {
        size_t t = next_morsel.fetch_add(1, std::memory_order_relaxed);
        if (t >= morsels.size()) break;
        run_morsel(morsels[t], &slots[t]);
        const Status& st = slots[t].stats.status;
        if (!st.ok() && !(st.code() == StatusCode::kParseError &&
                          morsels[t].split_file && !lenient)) {
          // Unrecoverable (cancel, deadline, fault, real parse error of
          // an unsplit file): stop handing out work. Split-file parse
          // errors are handled by the whole-file fallback below.
          abort.store(true, std::memory_order_relaxed);
        }
      }
      stage.partition_ms[w] = ElapsedMs(start);
    });

    // Strict-mode whole-file fallback. A record spanning a morsel
    // boundary (a document with newlines inside tokens or strings)
    // always makes some morsel fail to parse — no JSON value can end
    // cleanly at a mid-record newline — so rescanning the file as one
    // task restores exact sequential semantics. Genuinely malformed
    // files fail with the same error either way, at the cost of one
    // wasted scan.
    for (size_t i = 0; i < file_count && !lenient; ++i) {
      auto first = slots.begin() + static_cast<ptrdiff_t>(file_first[i]);
      auto last = slots.begin() + static_cast<ptrdiff_t>(file_first[i + 1]);
      if (last - first <= 1 ||
          std::none_of(first, last, [](const Slot& s) {
            return s.stats.status.code() == StatusCode::kParseError;
          })) {
        continue;
      }
      std::fill(first, last, Slot{});
      Morsel whole = morsels[file_first[i]];
      whole.begin = 0;
      whole.end = whole.text->size();
      whole.split_file = false;
      run_morsel(whole, &*first);
    }

    for (const Status& st : worker_status) JPAR_RETURN_NOT_OK(st);
    for (const Slot& slot : slots) JPAR_RETURN_NOT_OK(slot.stats.status);

    // Install sampled stats: per-morsel partials merge in task order
    // into one whole-file sample (the register-max sketch merge makes
    // the result independent of which worker ran which morsel). After a
    // strict-mode fallback only the whole-file slot carries a sample.
    for (size_t i = 0; i < file_count; ++i) {
      const size_t first = file_first[i];
      if (first == file_first[i + 1] || !morsels[first].build_stats) continue;
      PathStats merged;
      for (size_t t = first; t < file_first[i + 1]; ++t) {
        if (slots[t].stats.counters.morsels_scanned > 0) {
          merged.MergeFrom(slots[t].sample);
        }
      }
      put_stats(morsels[first], &merged);
      ++resolved.counters.stats_paths_built;
    }

    tasks.reserve(slots.size() + 1);
    for (size_t t = 0; t < morsels.size(); ++t) {
      AppendTuples(&output.parts[morsels[t].partition], &slots[t].out);
      tasks.push_back(std::move(slots[t].stats));
    }
    tasks.push_back(std::move(resolved));
  }

  JPAR_RETURN_NOT_OK(TaskStats::MergeStage(tasks, memory, &stage, stats));
  return output;
}

Result<Executor::PartitionSet> Executor::Exchange(
    PartitionSet* input, const std::vector<ScalarEvalPtr>& key_evals,
    StageStats* stage, ExecStats* stats) const {
  const size_t pcount = static_cast<size_t>(std::max(options_.partitions, 1));
  const size_t nsrc = input->parts.size();
  auto start = Clock::now();

  // Sender side: one task per source partition encodes and routes its
  // tuples into its own row of (source, destination) frame streams,
  // then frees the source partition.
  std::vector<std::vector<FrameBuilder>> builders(nsrc);
  std::vector<double> src_ms(nsrc, 0.0);
  JPAR_RETURN_NOT_OK(RunPartitionTasks(
      nsrc, options_.use_threads, [&](size_t src) -> Status {
        JPAR_RETURN_NOT_OK(Interrupted("exchange"));
        auto src_start = Clock::now();
        std::vector<FrameBuilder>& row = builders[src];
        row.reserve(pcount);
        for (size_t dst = 0; dst < pcount; ++dst) {
          row.emplace_back(options_.frame_bytes);
        }
        EvalContext ctx;
        ctx.catalog = catalog_;
        std::hash<std::string> hasher;
        std::string encoded;
        for (const Tuple& tuple : input->parts[src]) {
          JPAR_RETURN_NOT_OK(
              EncodeKey(key_evals, tuple, &ctx, &encoded, nullptr));
          row[hasher(encoded) % pcount].Append(tuple);
        }
        std::vector<Tuple>().swap(input->parts[src]);
        src_ms[src] = ElapsedMs(src_start);
        return Status::OK();
      }));

  // Route frames serially in (source, destination) order, tallying
  // bytes and modeled network time for frames that cross node
  // boundaries.
  std::vector<std::vector<std::vector<Frame>>> streams(nsrc);
  std::vector<size_t> dst_tuples(pcount, 0);
  uint64_t cross_bytes = 0;
  uint64_t critical_stream_frames = 0;  // frames on the slowest stream
  for (size_t src = 0; src < nsrc; ++src) {
    JPAR_RETURN_NOT_OK(Interrupted("exchange"));
    streams[src].resize(pcount);
    for (size_t dst = 0; dst < pcount; ++dst) {
      // Each (src, dst) frame stream is one network transfer in the
      // modeled cluster — the natural place to lose frames.
      JPAR_RETURN_NOT_OK(Fault(FaultInjector::kExchangeFrameDrop));
      FrameBuilder& b = builders[src][dst];
      stage->exchange_bytes += b.total_bytes();
      stage->exchange_tuples += b.tuple_count();
      stage->oversized_frames += b.oversized_frames();
      if (b.max_tuple_bytes() > stage->max_tuple_bytes) {
        stage->max_tuple_bytes = b.max_tuple_bytes();
      }
      dst_tuples[dst] += b.tuple_count();
      std::vector<Frame>& frames = streams[src][dst];
      frames = b.Finish();
      stage->exchange_frames += frames.size();
      if (NodeOfPartition(static_cast<int>(src)) !=
          NodeOfPartition(static_cast<int>(dst))) {
        for (const Frame& f : frames) cross_bytes += f.bytes.size();
        if (frames.size() > critical_stream_frames) {
          critical_stream_frames = frames.size();
        }
      }
    }
  }
  builders.clear();

  // Receiver side: one task per destination decodes its streams in
  // source order, freeing each stream once read.
  PartitionSet output;
  output.parts.assign(pcount, {});
  std::vector<double> dst_ms(pcount, 0.0);
  JPAR_RETURN_NOT_OK(RunPartitionTasks(
      pcount, options_.use_threads, [&](size_t dst) -> Status {
        auto dst_start = Clock::now();
        std::vector<Tuple>& out = output.parts[dst];
        out.reserve(dst_tuples[dst]);
        for (size_t src = 0; src < nsrc; ++src) {
          std::vector<Frame> frames = std::move(streams[src][dst]);
          FrameReader reader(frames);
          Tuple t;
          while (true) {
            JPAR_ASSIGN_OR_RETURN(bool more, reader.Next(&t));
            if (!more) break;
            out.push_back(std::move(t));
            t = Tuple();
          }
        }
        dst_ms[dst] = ElapsedMs(dst_start);
        return Status::OK();
      }));
  stage->exchange_task_ms.push_back(std::move(src_ms));
  stage->exchange_task_ms.push_back(std::move(dst_ms));

  stage->exchange_ms += ElapsedMs(start);
  // All point-to-point streams transfer concurrently: bandwidth is
  // charged on the total cross-node volume, latency only on the
  // longest single stream.
  double gbps = options_.network_gbps > 0 ? options_.network_gbps : 1.0;
  double net_ms = static_cast<double>(cross_bytes) * 8.0 / (gbps * 1e6) +
                  static_cast<double>(critical_stream_frames) *
                      options_.network_latency_ms_per_frame;
  stage->network_ms += net_ms;
  stats->network_ms += net_ms;
  return output;
}

Result<Executor::PartitionSet> Executor::ExecGroupBy(
    const PNode& node, ExecStats* stats) const {
  JPAR_ASSIGN_OR_RETURN(PartitionSet input, Exec(*node.input, stats));
  const bool two_step = GroupByUsesTwoStep(node);

  // ---- Optional local pre-aggregation stage -------------------------
  if (two_step) {
    StageStats local_stage;
    local_stage.name = GroupByStageName(AggStep::kLocal);
    JPAR_ASSIGN_OR_RETURN(PartitionSet partials,
                          GroupByStage(node, AggStep::kLocal, &input,
                                       nullptr, &local_stage, stats));
    stats->Merge(local_stage);
    input = std::move(partials);
  }

  // ---- Exchange by key, then global aggregation ---------------------
  const AggStep step = two_step ? AggStep::kGlobal : AggStep::kComplete;
  StageStats global_stage;
  global_stage.name = GroupByStageName(step);
  JPAR_ASSIGN_OR_RETURN(PartitionSet exchanged,
                        Exchange(&input, GroupKeyEvals(node, two_step),
                                 &global_stage, stats));
  // The hard-limit mode deliberately charges every global partition to
  // one tracker that is never released (it emulates all partitions
  // resident at once, which is what Table 3 measures); the budgeted
  // mode governs each partition task on its own tracker.
  MemoryTracker resident(options_.memory_limit_bytes);
  const bool spilling = options_.spill == SpillMode::kEnabled;
  JPAR_ASSIGN_OR_RETURN(
      PartitionSet output,
      GroupByStage(node, step, &exchanged, spilling ? nullptr : &resident,
                   &global_stage, stats));
  NoteOperatorStats(resident.peak_bytes(), nullptr, 0, stats);
  stats->Merge(global_stage);
  return output;
}

Result<Executor::PartitionSet> Executor::GroupByStage(
    const PNode& node, AggStep step, PartitionSet* input,
    MemoryTracker* resident, StageStats* stage, ExecStats* stats) const {
  const size_t pcount = input->parts.size();
  std::vector<OperatorTask> tasks(pcount);
  stage->partition_ms.assign(pcount, 0.0);
  PartitionSet output;
  output.parts.assign(pcount, {});
  JPAR_RETURN_NOT_OK(RunPartitionTasks(
      pcount, options_.use_threads, [&](size_t p) -> Status {
        auto start = Clock::now();
        OperatorTask& task = tasks[p];
        MemoryTracker* memory = resident;
        if (memory == nullptr) {
          task.memory = OperatorTracker(options_);
          memory = task.memory.get();
        }
        JPAR_ASSIGN_OR_RETURN(task.spill, MaybeSpillManager(options_, ctx_));
        JPAR_RETURN_NOT_OK(GroupByPartition(
            node, step, input->parts[p], &input->parts[p], memory,
            task.spill.get(), memory->ShareOf(pcount), &task.merge_passes,
            &output.parts[p]));
        stage->partition_ms[p] = ElapsedMs(start);
        return Status::OK();
      }));
  NoteOperatorTasks(tasks, stats);
  return output;
}

Status Executor::GroupByPartition(const PNode& node, AggStep step,
                                  const std::vector<Tuple>& input,
                                  std::vector<Tuple>* consumed,
                                  MemoryTracker* memory, SpillManager* spill,
                                  uint64_t budget, uint64_t* merge_passes,
                                  std::vector<Tuple>* out) const {
  const bool from_partials = step == AggStep::kGlobal;
  const std::vector<ScalarEvalPtr> keys = GroupKeyEvals(node, from_partials);
  const size_t nkeys = node.keys.size();
  EvalContext ctx;
  ctx.catalog = catalog_;
  ctx.memory = memory;
  // Pre-spilling semantics kept exactly when disabled: the local step
  // never tracked aggregate growth (incremental partials are O(1)); with
  // spilling on, growth counts against the budget too.
  SpillableGroupTable table(node.aggs, step, memory,
                            /*track_growth=*/step != AggStep::kLocal ||
                                spill != nullptr,
                            ctx_, spill, EffectiveSpillFanout(node), budget,
                            merge_passes);
  std::string encoded;
  Tuple key_items;
  uint64_t processed = 0;
  for (const Tuple& tuple : input) {
    if (++processed % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("group-by build"));
    }
    JPAR_RETURN_NOT_OK(EncodeKey(keys, tuple, &ctx, &encoded, &key_items));
    JPAR_RETURN_NOT_OK(
        table.Add(encoded, key_items, [&](size_t i) -> Result<Item> {
          // A two-step partial for agg i sits right after the keys.
          if (from_partials) return tuple[nkeys + i];
          return node.aggs[i].arg->Eval(tuple, &ctx);
        }));
  }
  if (consumed != nullptr) std::vector<Tuple>().swap(*consumed);
  return table.Emit(out);
}

Status Executor::JoinOnePartition(const PNode& node,
                                  const std::vector<Tuple>& left,
                                  const std::vector<Tuple>& right,
                                  MemoryTracker* memory,
                                  std::vector<Tuple>* out) const {
  EvalContext ctx;
  ctx.catalog = catalog_;
  ctx.memory = memory;
  std::unordered_map<std::string, std::vector<size_t>> table;
  std::string encoded;
  // Cost-model flip (DESIGN.md §15): hash the estimated-smaller side.
  // Output order must not depend on the choice — see the index-pair
  // sort below — because distributed workers may compile the same
  // query against different stats.
  const bool build_left = node.build_left;
  const std::vector<Tuple>& build = build_left ? left : right;
  const std::vector<ScalarEvalPtr>& build_keys =
      build_left ? node.left_keys : node.right_keys;
  for (size_t i = 0; i < build.size(); ++i) {
    if ((i + 1) % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("join build"));
    }
    JPAR_RETURN_NOT_OK(EncodeKey(build_keys, build[i], &ctx, &encoded,
                                 nullptr));
    table[encoded].push_back(i);
    JPAR_RETURN_NOT_OK(Fault(FaultInjector::kAllocFail));
    JPAR_RETURN_NOT_OK(
        memory->Allocate(TupleSizeBytes(build[i]) + encoded.size()));
  }
  auto emit = [&](const Tuple& l, const Tuple& r) -> Status {
    Tuple joined = l;
    joined.insert(joined.end(), r.begin(), r.end());
    if (node.residual != nullptr) {
      JPAR_ASSIGN_OR_RETURN(Item cond, node.residual->Eval(joined, &ctx));
      JPAR_ASSIGN_OR_RETURN(bool keep, cond.EffectiveBooleanValue());
      if (!keep) return Status::OK();
    }
    out->push_back(std::move(joined));
    return Status::OK();
  };
  uint64_t probed = 0;
  if (!build_left) {
    // Canonical: probe with the left side, in order.
    for (const Tuple& probe : left) {
      if (++probed % kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Interrupted("join probe"));
      }
      JPAR_RETURN_NOT_OK(
          EncodeKey(node.left_keys, probe, &ctx, &encoded, nullptr));
      auto it = table.find(encoded);
      if (it == table.end()) continue;
      for (size_t i : it->second) {
        JPAR_RETURN_NOT_OK(emit(probe, right[i]));
      }
    }
    return Status::OK();
  }
  // Flipped build: probe with the right side collecting (left, right)
  // index pairs, then sort them. The canonical loop emits pairs in
  // lexicographic (left index, right index) order — bucket vectors hold
  // ascending indices — so the sorted pairs materialize the exact same
  // output sequence with the hash table on the smaller side.
  std::vector<std::pair<size_t, size_t>> matches;
  for (size_t r = 0; r < right.size(); ++r) {
    if (++probed % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("join probe"));
    }
    JPAR_RETURN_NOT_OK(
        EncodeKey(node.right_keys, right[r], &ctx, &encoded, nullptr));
    auto it = table.find(encoded);
    if (it == table.end()) continue;
    for (size_t l : it->second) matches.emplace_back(l, r);
  }
  std::sort(matches.begin(), matches.end());
  uint64_t emitted = 0;
  for (const auto& [l, r] : matches) {
    if (++emitted % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("join emit"));
    }
    JPAR_RETURN_NOT_OK(emit(left[l], right[r]));
  }
  return Status::OK();
}

Result<Executor::PartitionSet> Executor::ExecJoin(const PNode& node,
                                                  ExecStats* stats) const {
  JPAR_ASSIGN_OR_RETURN(PartitionSet left, Exec(*node.left, stats));
  JPAR_ASSIGN_OR_RETURN(PartitionSet right, Exec(*node.right, stats));

  StageStats stage;
  stage.name = "hash-join";
  JPAR_ASSIGN_OR_RETURN(PartitionSet left_ex,
                        Exchange(&left, node.left_keys, &stage, stats));
  JPAR_ASSIGN_OR_RETURN(PartitionSet right_ex,
                        Exchange(&right, node.right_keys, &stage, stats));

  // Hash joins cannot spill yet; with spilling enabled the build side
  // overruns the budget softly instead of failing the query
  // (DESIGN.md §10 lists spillable joins as future work). Each
  // partition task charges its own tracker, so a hard limit applies
  // per partition.
  const size_t pcount = left_ex.parts.size();
  std::vector<OperatorTask> tasks(pcount);
  stage.partition_ms.assign(pcount, 0.0);
  PartitionSet output;
  output.parts.assign(pcount, {});
  JPAR_RETURN_NOT_OK(RunPartitionTasks(
      pcount, options_.use_threads, [&](size_t p) -> Status {
        auto start = Clock::now();
        tasks[p].memory = OperatorTracker(options_);
        // Keys were evaluated against pre-exchange column positions; the
        // exchanged tuples preserve layout, so re-evaluate the same evals.
        JPAR_RETURN_NOT_OK(JoinOnePartition(node, left_ex.parts[p],
                                            right_ex.parts[p],
                                            tasks[p].memory.get(),
                                            &output.parts[p]));
        std::vector<Tuple>().swap(left_ex.parts[p]);
        std::vector<Tuple>().swap(right_ex.parts[p]);
        stage.partition_ms[p] = ElapsedMs(start);
        return Status::OK();
      }));
  NoteOperatorTasks(tasks, stats);
  stats->Merge(stage);
  return output;
}

Result<Executor::PartitionSet> Executor::ExecSort(const PNode& node,
                                                  ExecStats* stats) const {
  JPAR_ASSIGN_OR_RETURN(PartitionSet input, Exec(*node.input, stats));
  const size_t pcount = input.parts.size();

  StageStats stage;
  stage.name = "sort";
  stage.partition_ms.assign(pcount, 0.0);

  // Memory governance (DESIGN.md §10): when spilling is enabled each
  // partition tracks its keyed rows against its budget share and, on
  // overflow, stable-sorts what it holds and writes it out as one
  // sorted run. The global merge then reads runs and the in-memory
  // remainders as ordered sources; because runs are emitted in input
  // order and the merge takes the *first* strictly-smaller source, the
  // output is byte-identical to the in-memory stable sort. When
  // disabled, sort is untracked, exactly as before.
  const bool spill_enabled = options_.spill == SpillMode::kEnabled;
  const bool spilling = spill_enabled && options_.memory_limit_bytes > 0;
  const uint64_t budget =
      MemoryTracker(options_.memory_limit_bytes).ShareOf(pcount);

  // Local phase: evaluate keys and sort each partition.
  struct Keyed {
    Tuple keys;
    Tuple row;
  };
  // Validated kind class per key column ('n'umeric, or the ItemKind).
  auto kind_class = [](const Item& item) -> int {
    if (item.is_numeric()) return -1;
    return static_cast<int>(item.kind());
  };
  // Records `cls` as key column i's class; false when it differs from
  // the class already recorded there.
  auto note_class = [](std::vector<int>* classes, size_t i, int cls) {
    int& known = (*classes)[i];
    if (known == INT_MIN) known = cls;
    return known == cls;
  };
  auto compare = [&](const Keyed& a, const Keyed& b) {
    for (size_t i = 0; i < a.keys.size(); ++i) {
      bool ea = a.keys[i].SequenceLength() == 0;
      bool eb = b.keys[i].SequenceLength() == 0;
      int c;
      if (ea || eb) {
        c = static_cast<int>(eb) - static_cast<int>(ea);  // empty first
      } else {
        c = a.keys[i].Compare(b.keys[i]).ValueOrDie();
      }
      if (i < node.sort_descending.size() && node.sort_descending[i]) {
        c = -c;
      }
      if (c != 0) return c < 0;
    }
    return false;
  };

  // One partition task's sorted rows and runs, spilled through its own
  // SpillManager.
  struct SortTask {
    std::vector<Keyed> rows;        // the sorted in-memory remainder
    std::vector<std::string> runs;  // sorted run files, in write order
    std::unique_ptr<SpillManager> spill;
    std::vector<int> key_classes;
    uint64_t peak = 0;       // most bytes the task held at once
    uint64_t resident = 0;   // bytes of its in-memory remainder
  };
  auto spill_rows = [&](SortTask* task) -> Status {
    std::stable_sort(task->rows.begin(), task->rows.end(), compare);
    JPAR_ASSIGN_OR_RETURN(std::unique_ptr<SpillRunWriter> writer,
                          task->spill->NewRun());
    std::string record;
    uint64_t n = 0;
    for (const Keyed& k : task->rows) {
      if (++n % kCheckIntervalTuples == 0) {
        JPAR_RETURN_NOT_OK(Interrupted("sort spill"));
      }
      record.clear();
      EncodeTupleTo(k.keys, &record);
      EncodeTupleTo(k.row, &record);
      JPAR_RETURN_NOT_OK(writer->Append(record));
    }
    JPAR_RETURN_NOT_OK(writer->Finish());
    task->runs.push_back(writer->path());
    task->rows.clear();
    return Status::OK();
  };

  std::vector<SortTask> tasks(pcount);
  JPAR_RETURN_NOT_OK(RunPartitionTasks(
      pcount, options_.use_threads, [&](size_t p) -> Status {
        JPAR_RETURN_NOT_OK(Interrupted("sort"));
        auto start = Clock::now();
        SortTask& task = tasks[p];
        task.key_classes.assign(node.sort_keys.size(), INT_MIN);
        JPAR_ASSIGN_OR_RETURN(task.spill, MaybeSpillManager(options_, ctx_));
        EvalContext ctx;
        ctx.catalog = catalog_;
        uint64_t keyed_rows = 0;
        uint64_t charged = 0;
        for (Tuple& t : input.parts[p]) {
          if (++keyed_rows % kCheckIntervalTuples == 0) {
            JPAR_RETURN_NOT_OK(Interrupted("sort"));
          }
          Keyed k;
          for (const ScalarEvalPtr& key : node.sort_keys) {
            JPAR_ASSIGN_OR_RETURN(Item v, key->Eval(t, &ctx));
            k.keys.push_back(std::move(v));
          }
          // Validate comparability up front so the sort comparator
          // cannot fail (empty sequences sort first and skip
          // validation); classes must also agree across tasks, which is
          // checked once all have run.
          for (size_t i = 0; i < k.keys.size(); ++i) {
            if (k.keys[i].SequenceLength() == 0) continue;
            if (!note_class(&task.key_classes, i, kind_class(k.keys[i]))) {
              return Status::TypeError(
                  "order by key mixes incomparable types");
            }
          }
          k.row = std::move(t);
          if (spilling) {
            charged += TupleSizeBytes(k.keys) + TupleSizeBytes(k.row);
            task.peak = std::max(task.peak, charged);
          }
          task.rows.push_back(std::move(k));
          if (spilling && charged > budget) {
            JPAR_RETURN_NOT_OK(spill_rows(&task));
            charged = 0;
          }
        }
        std::vector<Tuple>().swap(input.parts[p]);
        std::stable_sort(task.rows.begin(), task.rows.end(), compare);
        task.resident = charged;
        stage.partition_ms[p] = ElapsedMs(start);
        return Status::OK();
      }));

  // Fold the tasks in partition order. The reported peak is the
  // sequential schedule's: every finished partition's remainder stays
  // resident until the merge while the next one sorts, so the figure
  // does not depend on how the tasks interleaved.
  std::vector<int> key_classes(node.sort_keys.size(), INT_MIN);
  uint64_t peak = 0;
  uint64_t resident = 0;
  for (const SortTask& task : tasks) {
    for (size_t i = 0; i < key_classes.size(); ++i) {
      const int cls = task.key_classes[i];
      if (cls != INT_MIN && !note_class(&key_classes, i, cls)) {
        return Status::TypeError("order by key mixes incomparable types");
      }
    }
    peak = std::max(peak, resident + task.peak);
    resident += task.resident;
  }

  // Merge phase (the gather exchange): k-way merge into one partition.
  // Sources are ordered (partition, its runs in write order, its
  // in-memory remainder last); ties go to the earliest source, which
  // reproduces the stable in-memory merge exactly.
  auto merge_start = Clock::now();
  struct SortSource {
    std::unique_ptr<SpillRunReader> reader;  // null for in-memory rows
    SpillManager* spill = nullptr;           // the reader's manager
    std::string path;
    std::vector<Keyed>* mem = nullptr;
    size_t pos = 0;
    Keyed head;
    bool has_head = false;
  };
  std::string record;
  auto advance = [&](SortSource* s) -> Status {
    if (s->reader != nullptr) {
      JPAR_ASSIGN_OR_RETURN(bool more, s->reader->Next(&record));
      if (!more) {
        s->has_head = false;
        s->reader.reset();
        s->spill->Remove(s->path);
        return Status::OK();
      }
      ItemReader item_reader(record);
      JPAR_RETURN_NOT_OK(DecodeTupleFrom(&item_reader, &s->head.keys));
      JPAR_RETURN_NOT_OK(DecodeTupleFrom(&item_reader, &s->head.row));
      s->has_head = true;
      return Status::OK();
    }
    if (s->pos >= s->mem->size()) {
      s->has_head = false;
      return Status::OK();
    }
    s->head = std::move((*s->mem)[s->pos++]);
    s->has_head = true;
    return Status::OK();
  };
  std::vector<SortSource> sources;
  for (SortTask& task : tasks) {
    for (const std::string& path : task.runs) {
      SortSource s;
      JPAR_ASSIGN_OR_RETURN(s.reader, task.spill->OpenRun(path));
      s.spill = task.spill.get();
      s.path = path;
      sources.push_back(std::move(s));
    }
    SortSource s;
    s.mem = &task.rows;
    sources.push_back(std::move(s));
  }
  for (SortSource& s : sources) {
    JPAR_RETURN_NOT_OK(advance(&s));
  }

  PartitionSet output;
  output.parts.assign(1, {});
  uint64_t merged = 0;
  while (true) {
    if (++merged % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("sort merge"));
    }
    int best = -1;
    for (size_t s = 0; s < sources.size(); ++s) {
      if (!sources[s].has_head) continue;
      if (best < 0 ||
          compare(sources[s].head, sources[static_cast<size_t>(best)].head)) {
        best = static_cast<int>(s);
      }
    }
    if (best < 0) break;
    SortSource& win = sources[static_cast<size_t>(best)];
    output.parts[0].push_back(std::move(win.head.row));
    JPAR_RETURN_NOT_OK(advance(&win));
  }
  stage.exchange_ms += ElapsedMs(merge_start);
  // Sort memory is tracked only for spill budgeting; without spilling
  // it stays out of peak_retained_bytes.
  if (spill_enabled) {
    NoteOperatorStats(peak, nullptr, 0, stats);
    for (const SortTask& task : tasks) {
      NoteOperatorStats(0, task.spill.get(), 0, stats);
    }
  }
  stats->Merge(stage);
  return output;
}

// ---------------------------------------------------------------------
// Fragment execution API (src/dist, DESIGN.md §11). Each function is
// the body of one in-process per-partition loop, factored so a worker
// process can run a single partition's share of an operator.

bool Executor::GroupByUsesTwoStep(const PNode& node) {
  bool can_two_step = node.two_step;
  for (const AggSpec& a : node.aggs) {
    if (a.kind == AggKind::kSequence) can_two_step = false;
  }
  return can_two_step;
}

Result<std::vector<Tuple>> Executor::RunSubtree(const PNode& node,
                                                ExecStats* stats) const {
  JPAR_RETURN_NOT_OK(ValidateExecOptions(options_));
  JPAR_ASSIGN_OR_RETURN(PartitionSet result, Exec(node, stats));
  std::vector<Tuple> out;
  for (std::vector<Tuple>& part : result.parts) AppendTuples(&out, &part);
  return out;
}

Result<std::vector<Tuple>> Executor::GroupByLocal(
    const PNode& node, const std::vector<Tuple>& input,
    ExecStats* stats) const {
  return GroupByFragment(node, AggStep::kLocal, input, stats);
}

Result<std::vector<Tuple>> Executor::GroupByGlobal(
    const PNode& node, const std::vector<Tuple>& input, bool from_partials,
    ExecStats* stats) const {
  return GroupByFragment(
      node, from_partials ? AggStep::kGlobal : AggStep::kComplete, input,
      stats);
}

Result<std::vector<Tuple>> Executor::GroupByFragment(
    const PNode& node, AggStep step, const std::vector<Tuple>& input,
    ExecStats* stats) const {
  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  JPAR_ASSIGN_OR_RETURN(std::unique_ptr<SpillManager> spill_mgr,
                        MaybeSpillManager(options_, ctx_));
  uint64_t merge_passes = 0;
  StageStats stage;
  stage.name = GroupByStageName(step);
  auto start = Clock::now();
  std::vector<Tuple> out;
  JPAR_RETURN_NOT_OK(GroupByPartition(node, step, input, nullptr, &memory,
                                      spill_mgr.get(), memory.ShareOf(1),
                                      &merge_passes, &out));
  NoteOperatorStats(memory.peak_bytes(), spill_mgr.get(), merge_passes, stats);
  stage.partition_ms.assign(1, ElapsedMs(start));
  stats->Merge(stage);
  return out;
}

Result<std::vector<Tuple>> Executor::JoinPartition(
    const PNode& node, const std::vector<Tuple>& left,
    const std::vector<Tuple>& right, ExecStats* stats) const {
  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  StageStats stage;
  stage.name = "hash-join";
  auto start = Clock::now();
  std::vector<Tuple> out;
  JPAR_RETURN_NOT_OK(JoinOnePartition(node, left, right, &memory, &out));
  NoteOperatorStats(memory.peak_bytes(), nullptr, 0, stats);
  stage.partition_ms.assign(1, ElapsedMs(start));
  stats->Merge(stage);
  return out;
}

Result<std::vector<Tuple>> Executor::RunOps(
    const std::vector<UnaryOpDesc>& ops, std::vector<Tuple> input,
    ExecStats* stats) const {
  if (ops.empty()) return input;
  MemoryTracker memory(options_.memory_limit_bytes,
                       options_.spill == SpillMode::kEnabled);
  StageStats stage;
  stage.name = "pipeline";
  auto start = Clock::now();
  std::vector<Tuple> out;
  std::vector<TaskStats> task(1);
  JPAR_RETURN_NOT_OK(PipelinePartition(ops, UseBatchMode(), std::move(input),
                                       &memory, &out, &task[0]));
  stage.partition_ms.assign(1, ElapsedMs(start));
  JPAR_RETURN_NOT_OK(TaskStats::MergeStage(task, memory, &stage, stats));
  return out;
}

Status Executor::PipelinePartition(const std::vector<UnaryOpDesc>& ops,
                                   bool batch_mode, std::vector<Tuple> input,
                                   MemoryTracker* memory,
                                   std::vector<Tuple>* out,
                                   TaskStats* task) const {
  PipelineTask pipeline(*this, ops, batch_mode, memory, out, task);
  for (Tuple& t : input) {
    JPAR_RETURN_NOT_OK(pipeline.PushTuple(std::move(t)));
  }
  return pipeline.Finish();
}

Result<std::vector<std::vector<Tuple>>> Executor::HashPartition(
    const std::vector<Tuple>& input,
    const std::vector<ScalarEvalPtr>& key_evals, int fanout) const {
  if (fanout < 1) fanout = 1;
  EvalContext ctx;
  ctx.catalog = catalog_;
  std::hash<std::string> hasher;
  std::string encoded;
  std::vector<std::vector<Tuple>> buckets(static_cast<size_t>(fanout));
  uint64_t processed = 0;
  for (const Tuple& tuple : input) {
    if (++processed % kCheckIntervalTuples == 0) {
      JPAR_RETURN_NOT_OK(Interrupted("exchange"));
    }
    JPAR_RETURN_NOT_OK(EncodeKey(key_evals, tuple, &ctx, &encoded, nullptr));
    size_t dst = hasher(encoded) % static_cast<size_t>(fanout);
    buckets[dst].push_back(tuple);
  }
  return buckets;
}

Status ValidateExecOptions(const ExecOptions& options) {
  if (options.partitions < 1) {
    return Status::InvalidArgument(
        "partitions must be >= 1, got " + std::to_string(options.partitions));
  }
  if (options.partitions_per_node < 1) {
    return Status::InvalidArgument(
        "partitions_per_node must be >= 1, got " +
        std::to_string(options.partitions_per_node));
  }
  if (options.cores_per_node < 1) {
    return Status::InvalidArgument(
        "cores_per_node must be >= 1, got " +
        std::to_string(options.cores_per_node));
  }
  if (options.frame_bytes == 0) {
    return Status::InvalidArgument("frame_bytes must be > 0");
  }
  if (options.deadline_ms < 0) {
    return Status::InvalidArgument(
        "deadline_ms must be >= 0 (0 = no deadline), got " +
        std::to_string(options.deadline_ms));
  }
  if (options.on_parse_error != ParseErrorPolicy::kFail &&
      options.on_parse_error != ParseErrorPolicy::kSkipAndCount) {
    return Status::InvalidArgument(
        "unknown on_parse_error policy: " +
        std::to_string(static_cast<int>(options.on_parse_error)));
  }
  if (options.scan_mode != ScanMode::kScalar &&
      options.scan_mode != ScanMode::kIndexed) {
    return Status::InvalidArgument(
        "unknown scan_mode: " +
        std::to_string(static_cast<int>(options.scan_mode)));
  }
  if (options.spill != SpillMode::kDisabled &&
      options.spill != SpillMode::kEnabled) {
    return Status::InvalidArgument(
        "unknown spill mode: " +
        std::to_string(static_cast<int>(options.spill)));
  }
  if (options.expr_mode != ExprMode::kAuto &&
      options.expr_mode != ExprMode::kTree &&
      options.expr_mode != ExprMode::kBytecode) {
    return Status::InvalidArgument(
        "unknown expr_mode: " +
        std::to_string(static_cast<int>(options.expr_mode)));
  }
  if (options.storage_mode != StorageMode::kAuto &&
      options.storage_mode != StorageMode::kOff &&
      options.storage_mode != StorageMode::kTape &&
      options.storage_mode != StorageMode::kColumnar) {
    return Status::InvalidArgument(
        "unknown storage_mode: " +
        std::to_string(static_cast<int>(options.storage_mode)));
  }
  if (options.stats_mode != StatsMode::kAuto &&
      options.stats_mode != StatsMode::kOff &&
      options.stats_mode != StatsMode::kForced) {
    return Status::InvalidArgument(
        "unknown stats_mode: " +
        std::to_string(static_cast<int>(options.stats_mode)));
  }
  if (options.batch_size < 1 || options.batch_size > 65536) {
    // Batches above 64Ki tuples gain nothing (cancellation checks tick
    // every 256 lanes regardless) and risk oversized scratch columns.
    return Status::InvalidArgument(
        "batch_size must be in [1, 65536], got " +
        std::to_string(options.batch_size));
  }
  if (options.spill == SpillMode::kEnabled) {
    if (options.spill_fanout < 2) {
      return Status::InvalidArgument(
          "spill_fanout must be >= 2 when spilling is enabled, got " +
          std::to_string(options.spill_fanout));
    }
    if (!options.spill_dir.empty()) {
      // Fail at validation (admission time through the service), not
      // deep inside a half-finished aggregation.
      Result<std::string> dir = ResolveSpillDir(options.spill_dir);
      if (!dir.ok()) return dir.status();
    }
  }
  return Status::OK();
}

Result<QueryOutput> Executor::Run(const PhysicalPlan& plan) const {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("physical plan has no root");
  }
  JPAR_RETURN_NOT_OK(ValidateExecOptions(options_));
  // A query cancelled (or past its deadline) before execution starts
  // never touches the catalog.
  JPAR_RETURN_NOT_OK(Interrupted("startup"));
  auto start = Clock::now();
  QueryOutput out;
  {
    JPAR_ASSIGN_OR_RETURN(PartitionSet result, Exec(*plan.root, &out.stats));
    for (const std::vector<Tuple>& part : result.parts) {
      for (const Tuple& tuple : part) {
        if (plan.result_column < 0 ||
            static_cast<size_t>(plan.result_column) >= tuple.size()) {
          return Status::Internal("result column out of range");
        }
        out.items.push_back(tuple[static_cast<size_t>(plan.result_column)]);
      }
    }
  }
  out.stats.result_rows = out.items.size();
  out.stats.exprs_compiled = UseBatchMode() ? plan.exprs_compiled : 0;
  out.stats.real_ms = ElapsedMs(start);
  int nodes = (options_.partitions + options_.partitions_per_node - 1) /
              (options_.partitions_per_node > 0 ? options_.partitions_per_node
                                                : 1);
  if (nodes < 1) nodes = 1;
  int cores = nodes * (options_.cores_per_node > 0 ? options_.cores_per_node
                                                   : 1);
  double makespan = 0;
  for (const StageStats& s : out.stats.stages) {
    makespan += LptMakespanMs(s.partition_ms, cores) + s.network_ms;
    for (const std::vector<double>& phase : s.exchange_task_ms) {
      makespan += LptMakespanMs(phase, cores);
    }
  }
  out.stats.makespan_ms = makespan;
#if defined(__GLIBC__)
  // Threaded stages free their partitions on worker threads, and glibc
  // keeps the freed pages in each thread's arena. Handing them back once
  // per query keeps a long-lived process from holding every arena's
  // high-water mark (DESIGN.md §10).
  if (options_.use_threads && options_.partitions > 1) malloc_trim(0);
#endif
  return out;
}

double LptMakespanMs(const std::vector<double>& task_ms, int cores) {
  if (cores < 1) cores = 1;
  std::vector<double> sorted = task_ms;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  std::vector<double> bins(static_cast<size_t>(cores), 0.0);
  for (double t : sorted) {
    // Assign to the least-loaded core.
    size_t best = 0;
    for (size_t b = 1; b < bins.size(); ++b) {
      if (bins[b] < bins[best]) best = b;
    }
    bins[best] += t;
  }
  double max_bin = 0;
  for (double b : bins) max_bin = b > max_bin ? b : max_bin;
  return max_bin;
}

}  // namespace jpar
