#include "layers.h"

#include <algorithm>

#include "json/structural_index.h"

namespace perfbench {

void LayerAgg::Add(const jpar::ExecStats& stats, uint64_t files_per_scan) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++queries_;
  bool after_join = false;
  for (const jpar::StageStats& s : stats.stages) {
    const std::string& n = s.name;
    if (n.rfind("DATASCAN", 0) == 0) {
      scan_ms_ += s.MaxPartitionMs();
      scan_busy_ms_ += s.SumPartitionMs();
      file_scans_ += files_per_scan;
    } else if (n.rfind("group-by", 0) == 0) {
      groupby_ms_ += s.MaxPartitionMs();
    } else if (n == "hash-join") {
      join_ms_ += s.MaxPartitionMs();
      after_join = true;
    } else if (n == "pipeline" && after_join) {
      post_join_ms_ += s.MaxPartitionMs();
    }
    exchange_ms_ += s.exchange_ms;
    exchange_bytes_ += s.exchange_bytes;
    pipeline_bytes_ += s.pipeline_bytes;
    busy_ms_ += s.SumPartitionMs();
  }
  real_ms_ += stats.real_ms;
  makespan_ms_ += stats.makespan_ms;
  batches_ += stats.batches_emitted;
  peak_retained_ = std::max(peak_retained_, stats.peak_retained_bytes);
  bytes_scanned_ += stats.bytes_scanned;
  tape_hits_ += stats.tape_hits;
  tape_builds_ += stats.tape_builds;
  columns_read_ += stats.columns_read;
  blocks_pruned_ += stats.blocks_pruned;
  stats_paths_built_ += stats.stats_paths_built;
}

void LayerAgg::AddEstimate(double est_rows, uint64_t actual_rows) {
  if (!enabled_ || est_rows < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  est_rows_ += est_rows;
  actual_rows_ += static_cast<double>(actual_rows);
}

void LayerAgg::AddCompileMs(double ms) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  compile_ms_.push_back(ms);
}

void LayerAgg::Fill(Report* r) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double q = queries_ > 0 ? static_cast<double>(queries_) : 1.0;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r->Set("core.compile_ms", Median(compile_ms_), "ms");
  // Per-query means over every query the traced run executed.
  r->Set("json.bytes_scanned", static_cast<double>(bytes_scanned_) / q,
         "bytes");
  r->Set("runtime.scan_ms", scan_ms_ / q, "ms");
  r->Set("runtime.scan_busy_ms", scan_busy_ms_ / q, "ms");
  r->Set("runtime.groupby_ms", groupby_ms_ / q, "ms");
  r->Set("runtime.join_ms", join_ms_ / q, "ms");
  r->Set("runtime.post_join_ms", post_join_ms_ / q, "ms");
  r->Set("runtime.exchange_ms", exchange_ms_ / q, "ms");
  r->Set("runtime.exchange_bytes", static_cast<double>(exchange_bytes_) / q,
         "bytes");
  r->Set("runtime.batches_emitted", static_cast<double>(batches_) / q,
         "count");
  r->Set("runtime.pipeline_bytes", static_cast<double>(pipeline_bytes_) / q,
         "bytes");
  r->Set("runtime.peak_retained_bytes", static_cast<double>(peak_retained_),
         "bytes");
  r->Set("runtime.parallel_efficiency",
         ratio(busy_ms_, real_ms_ * partitions_), "ratio");
  r->Set("runtime.makespan_ratio", ratio(makespan_ms_, real_ms_), "ratio");
  // Totals over the traced run.
  r->Set("storage.tape_hits", static_cast<double>(tape_hits_), "count");
  r->Set("storage.tape_builds", static_cast<double>(tape_builds_), "count");
  r->Set("storage.columns_read", static_cast<double>(columns_read_), "count");
  r->Set("storage.blocks_pruned", static_cast<double>(blocks_pruned_),
         "count");
  r->Set("storage.column_hit_ratio",
         ratio(static_cast<double>(columns_read_),
               static_cast<double>(file_scans_)),
         "ratio");
  r->Set("stats.paths_built", static_cast<double>(stats_paths_built_),
         "count");
  r->Set("stats.est_rows_ratio", ratio(est_rows_, actual_rows_), "ratio");
}

void ProbeJsonLayer(
    const std::vector<std::shared_ptr<const std::string>>& texts,
    const std::vector<std::vector<jpar::PathStep>>& paths, Tracer* tracer,
    Report* report) {
  uint64_t bytes = 0;
  for (const auto& t : texts) bytes += t->size();
  const auto probe_start = Clock::now();
  const int64_t root = tracer->Open("bench.probe", probe_start, -1, 0);

  auto start = Clock::now();
  size_t sink = 0;
  for (const auto& t : texts) sink += jpar::StructuralIndex::Build(*t).size();
  auto end = Clock::now();
  tracer->Add("json.stage1", start, end, root, 0);
  const double stage1_s = std::chrono::duration<double>(end - start).count();
  if (sink != bytes) Die("stage-1 index size mismatch");

  uint64_t items = 0;
  auto count = [&items](jpar::Item) {
    ++items;
    return jpar::Status::OK();
  };
  start = Clock::now();
  for (const auto& path : paths) {
    for (const auto& t : texts) {
      jpar::Status st = jpar::ProjectJsonStream(*t, path, count);
      if (!st.ok()) Die("projecting scan failed: " + st.ToString());
    }
  }
  end = Clock::now();
  tracer->Add("json.project", start, end, root, 0);
  tracer->Close(root, end);
  const double project_s = std::chrono::duration<double>(end - start).count();
  if (items == 0) Die("projecting scan selected nothing");

  auto gbps = [](double b, double s) { return s > 0 ? b / s / 1e9 : 0.0; };
  report->Set("json.stage1_gbps", gbps(static_cast<double>(bytes), stage1_s),
              "GB/s");
  report->Set("json.project_gbps",
              gbps(static_cast<double>(bytes * paths.size()), project_s),
              "GB/s");
}

std::shared_ptr<StartHook::Pending> StartHook::Expect(
    const std::string& query) {
  auto p = std::make_shared<Pending>();
  std::lock_guard<std::mutex> lock(mu_);
  waiting_[query].push_back(p);
  return p;
}

void StartHook::Forget(const std::string& query,
                       const std::shared_ptr<Pending>& p) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = waiting_.find(query);
  if (it == waiting_.end()) return;
  auto& q = it->second;
  q.erase(std::remove(q.begin(), q.end(), p), q.end());
  if (q.empty()) waiting_.erase(it);
}

void StartHook::Started(std::string_view query) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = waiting_.find(std::string(query));
  if (it == waiting_.end()) return;
  std::shared_ptr<Pending> p = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) waiting_.erase(it);
  p->started = now;
  p->has_started = true;
}

void ServiceSamples::Append(const ServiceSamples& other) {
  queue_wait_ms.insert(queue_wait_ms.end(), other.queue_wait_ms.begin(),
                       other.queue_wait_ms.end());
  exec_ms.insert(exec_ms.end(), other.exec_ms.begin(), other.exec_ms.end());
  overhead_ms.insert(overhead_ms.end(), other.overhead_ms.begin(),
                     other.overhead_ms.end());
}

void ServiceSamples::Fill(const jpar::ServiceMetrics& before,
                          const jpar::ServiceMetrics& after,
                          Report* r) const {
  r->Set("service.queue_wait_ms", Median(queue_wait_ms), "ms");
  r->Set("service.exec_ms", Median(exec_ms), "ms");
  r->Set("service.overhead_ms", Median(overhead_ms), "ms");
  const double hits =
      static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  const double misses =
      static_cast<double>(after.plan_cache.misses - before.plan_cache.misses);
  r->Set("service.plan_cache_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  r->Set("service.rejected",
         static_cast<double>(after.rejected - before.rejected), "count");
  r->Set("service.queued_peak",
         static_cast<double>(after.admission.queued_peak), "count");
}

Submitted SubmitAndWait(jpar::Session* session, const std::string& query,
                        StartHook* hook, Tracer* tracer, uint64_t request,
                        ServiceSamples* samples) {
  std::shared_ptr<StartHook::Pending> pending = hook->Expect(query);
  const auto t0 = Clock::now();
  Submitted s{session->Submit(query), 0};
  s.ticket.Wait();
  const auto t1 = Clock::now();
  s.latency_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (!pending->has_started) {
    hook->Forget(query, pending);
    tracer->Add("bench.request", t0, t1, -1, request);
    return s;
  }
  const int64_t root = tracer->Add("bench.request", t0, t1, -1, request);
  tracer->Add("service.queue", t0, pending->started, root, request);
  tracer->Add("service.exec", pending->started, t1, root, request);
  const double wait_ms =
      std::chrono::duration<double, std::milli>(pending->started - t0).count();
  samples->queue_wait_ms.push_back(wait_ms);
  samples->exec_ms.push_back(s.latency_ms - wait_ms);
  if (s.ticket.status().ok()) {
    samples->overhead_ms.push_back(s.latency_ms -
                                   s.ticket.output().stats.real_ms);
  }
  return s;
}

void FillTraceMetrics(const Tracer& tracer, Report* report) {
  std::map<std::string, double> self = tracer.SelfMsByLayer();
  for (const char* layer : {"bench", "core", "runtime", "service", "json"}) {
    report->Set(std::string(layer) + ".self_ms", self[layer], "ms");
  }
  report->Set("trace.spans", static_cast<double>(tracer.size()), "count");
}

std::vector<jpar::PathStep> ResultsPath() {
  return {jpar::PathStep::Key("root"), jpar::PathStep::KeysOrMembers(),
          jpar::PathStep::Key("results"), jpar::PathStep::KeysOrMembers()};
}

std::vector<jpar::PathStep> ResultsDatePath() {
  std::vector<jpar::PathStep> p = ResultsPath();
  p.push_back(jpar::PathStep::Key("date"));
  return p;
}

}  // namespace perfbench
