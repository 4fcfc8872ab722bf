// cold_paper and warm_archive: one closed-loop client running the
// paper's Q0, Q0b, Q1, Q2 in rotation through Engine::Compile/Execute,
// over an in-memory collection (cold) or files answered by the warm
// storage tier (warm). Before every other rotation one seeded file is
// re-delivered with identical bytes and Q0b runs once as the refresh
// probe.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>

#include "layers.h"
#include "stats/collection_stats.h"
#include "storage/storage_tier.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kCollectionBytes = 24ull << 20;
constexpr uint64_t kSmokeBytes = 1ull << 20;
constexpr int kSetupRepeats = 3;
constexpr int kQ0b = 1;  // index of the refresh probe in kPaperQueries

struct PaperSetup {
  std::unique_ptr<ScratchDir> dir;  // warm: data files and sidecars
  std::vector<std::string> paths;   // warm: one per collection file
  jpar::EngineOptions options;
  jpar::Collection collection;
  std::unique_ptr<jpar::Engine> engine;
};

/// Latencies of one timed phase.
struct Phase {
  std::vector<double> per_query[4];
  std::vector<double> refresh;
  std::vector<double> all;  // every request, probes included
  /// Q0+Q0b+Q1+Q2 of each rotation. The latency metrics use these:
  /// per-query latencies form four clusters, and a percentile near a
  /// cluster boundary jumps between clusters from run to run.
  std::vector<double> rotation;
  double wall_s = 0;
};

class PaperWorkload {
 public:
  PaperWorkload(const RunConfig& cfg, bool warm)
      : cfg_(cfg), warm_(warm), agg_(kParallelism), tracer_(false) {}

  WorkloadResult Run();

 private:
  /// Replaces setup_ with a fresh set-up.
  void SetUp(int iteration);
  /// Compiles and executes one query; returns its latency in ms (-1 when
  /// it failed). The answer is checked after the clock stops.
  double Request(int q);
  void Redeliver();
  Phase RunPhase(double seconds);
  void ServiceProbe(Report* report);

  const RunConfig& cfg_;
  const bool warm_;
  jpar::SensorDataSpec spec_;
  uint64_t target_bytes_ = 0;
  uint64_t collection_bytes_ = 0;
  std::string reference_[4];
  std::unique_ptr<PaperSetup> setup_;
  Rng redeliver_rng_{0};
  std::atomic<uint64_t> next_request_{1};
  LayerAgg agg_;
  Tracer tracer_;
  WorkloadResult result_;
};

void PaperWorkload::SetUp(int iteration) {
  // Every set-up starts from a cold process-global tier.
  jpar::StorageManager::Instance().Clear();
  jpar::StatsStore::Instance().Clear();
  auto s = std::make_unique<PaperSetup>();
  s->options.exec.partitions = kParallelism;
  s->options.exec.use_threads = true;
  Corpus corpus = GenerateCorpus(spec_);
  if (!warm_) {
    s->collection = InMemoryCollection(corpus);
  } else {
    s->dir = std::make_unique<ScratchDir>(cfg_.tmp_dir + "/warm-" +
                                          std::to_string(iteration));
    const std::string data = s->dir->path() + "/data";
    const std::string sidecars = s->dir->path() + "/sidecars";
    std::filesystem::create_directories(data);
    std::filesystem::create_directories(sidecars);
    s->paths = WriteCorpus(corpus, data);
    for (const std::string& p : s->paths) {
      s->collection.files.push_back(jpar::JsonFile::FromPath(p));
    }
    s->options.exec.storage_mode = jpar::StorageMode::kAuto;
    s->options.exec.storage_cache_dir = sidecars;
  }
  s->engine = std::make_unique<jpar::Engine>(s->options);
  s->engine->catalog()->RegisterCollection("/sensors", s->collection);
  setup_ = std::move(s);
  // Warm: build tapes, columns and .jstats by running each query once.
  if (warm_) {
    for (int q = 0; q < 4; ++q) Request(q);
  }
}

double PaperWorkload::Request(int q) {
  const uint64_t id = next_request_++;
  const char* text = kPaperQueries[q].text;
  const auto t0 = Clock::now();
  auto compiled = setup_->engine->Compile(text);
  const auto t1 = Clock::now();
  jpar::Status status = compiled.status();
  std::optional<jpar::Result<jpar::QueryOutput>> out;
  if (status.ok()) {
    out.emplace(setup_->engine->Execute(*compiled));
    status = out->status();
  }
  const auto t2 = Clock::now();
  const int64_t root = tracer_.Add("bench.request", t0, t2, -1, id);
  tracer_.Add("core.compile", t0, t1, root, id);
  tracer_.Add("runtime.execute", t1, t2, root, id);

  const auto c0 = Clock::now();
  CheckAnswer(status, status.ok() ? &(*out)->items : nullptr, reference_[q],
              kPaperQueries[q].metric, &result_.tally);
  tracer_.Add("bench.check", c0, Clock::now(), -1, id);
  if (!status.ok()) return -1;
  agg_.AddCompileMs(std::chrono::duration<double, std::milli>(t1 - t0).count());
  const jpar::ExecStats& stats = (*out)->stats;
  agg_.Add(stats, setup_->collection.files.size());
  agg_.AddEstimate(compiled->physical.est_result_rows, stats.result_rows);
  return std::chrono::duration<double, std::milli>(t2 - t0).count();
}

void PaperWorkload::Redeliver() {
  const auto t0 = Clock::now();
  const int k = static_cast<int>(
      redeliver_rng_.Below(static_cast<uint64_t>(spec_.num_files)));
  std::string bytes = jpar::GenerateSensorFile(spec_, k);
  if (!warm_) {
    // An in-memory delivery replaces the file in the catalog.
    setup_->collection.files[static_cast<size_t>(k)] =
        jpar::JsonFile::FromText(std::move(bytes));
    setup_->engine->catalog()->RegisterCollection("/sensors",
                                                  setup_->collection);
  } else {
    perfbench::Redeliver(setup_->paths[static_cast<size_t>(k)], bytes);
  }
  tracer_.Add("bench.redeliver", t0, Clock::now(), -1, 0);
}

Phase PaperWorkload::RunPhase(double seconds) {
  Phase phase;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int rotation = 0;; ++rotation) {
    if (rotation % 2 == 0) {
      Redeliver();
      double ms = Request(kQ0b);
      if (ms >= 0) {
        phase.refresh.push_back(ms);
        phase.all.push_back(ms);
      }
    }
    double rotation_ms = 0;
    bool rotation_ok = true;  // a failed query voids the rotation
    for (int q = 0; q < 4; ++q) {
      double ms = Request(q);
      rotation_ok = rotation_ok && ms >= 0;
      if (ms < 0) continue;
      phase.per_query[q].push_back(ms);
      phase.all.push_back(ms);
      rotation_ms += ms;
    }
    if (rotation_ok) phase.rotation.push_back(rotation_ms);
    if (cfg_.smoke || Clock::now() >= deadline) break;
  }
  phase.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return phase;
}

void PaperWorkload::ServiceProbe(Report* report) {
  StartHook hook;
  jpar::ServiceOptions so;
  so.engine = setup_->options;
  so.worker_threads = 1;
  so.on_query_start = [&hook](std::string_view q) { hook.Started(q); };
  jpar::QueryService service(so);
  service.catalog()->RegisterCollection("/sensors", setup_->collection);
  auto session = service.CreateSession(setup_->options);
  ServiceSamples samples;
  const jpar::ServiceMetrics before = service.Metrics();
  for (int pass = 0; pass < 2; ++pass) {  // the second pass hits the cache
    for (int q = 0; q < 4; ++q) {
      Submitted s = SubmitAndWait(session.get(), kPaperQueries[q].text, &hook,
                                  &tracer_, next_request_++, &samples);
      const jpar::Status st = s.ticket.status();
      CheckAnswer(st, st.ok() ? &s.ticket.output().items : nullptr,
                  reference_[q], kPaperQueries[q].metric, &result_.tally);
      if (st.ok()) {
        agg_.Add(s.ticket.output().stats, setup_->collection.files.size());
      }
    }
  }
  service.Drain();
  samples.Fill(before, service.Metrics(), report);
}

WorkloadResult PaperWorkload::Run() {
  spec_.seed = cfg_.seed;
  target_bytes_ = cfg_.smoke ? kSmokeBytes : kCollectionBytes;
  redeliver_rng_ = Rng(cfg_.seed ^ 0x5eed0f11e5ull);

  // Reference answers, outside every timed span and this process's RSS.
  spec_ = SizeSpec(spec_, target_bytes_);
  std::vector<std::string> ref =
      RunInChild(cfg_.tmp_dir + "/reference", [this] {
        Corpus corpus = GenerateCorpus(spec_);
        auto engine = ReferenceEngine(corpus);
        std::vector<std::string> out = {std::to_string(corpus.bytes)};
        for (const PaperQuery& q : kPaperQueries) {
          out.push_back(ReferenceAnswer(*engine, q.text));
        }
        return out;
      });
  if (ref.size() != 5) Die("bad reference answers");
  collection_bytes_ = std::stoull(ref[0]);
  for (int q = 0; q < 4; ++q) reference_[q] = std::move(ref[q + 1]);
  if (cfg_.corrupt_reference) Corrupt(&reference_[0]);

  Report& r = result_.report;
  const int repeats = cfg_.trace || cfg_.smoke ? 1 : kSetupRepeats;
  agg_.set_enabled(cfg_.trace);
  const std::vector<double> setup_s =
      TimeSetUps(repeats, cfg_.tmp_dir + "/setup", [this](int i) { SetUp(i); },
                 [this] { setup_.reset(); });
  // One untimed rotation lets allocators and the tier settle.
  for (int q = 0; q < 4; ++q) Request(q);

  const double bytes = static_cast<double>(collection_bytes_);
  if (!cfg_.trace) {
    Phase p = RunPhase(cfg_.seconds);
    r.Set("setup_s", Median(setup_s), "s");
    for (int q = 0; q < 4; ++q) {
      r.Set(kPaperQueries[q].metric, Median(p.per_query[q]), "ms");
    }
    r.Set("refresh_ms", Median(p.refresh), "ms");
    const double answered = static_cast<double>(p.all.size());
    r.Set("throughput_qps", answered / p.wall_s, "1/s");
    r.Set("throughput_mb_per_s", answered * bytes / 1e6 / p.wall_s, "MB/s");
    // Fewer than 21 rotations fit a run, so no percentile above the
    // median has 10 samples beyond it: the tail is the slowest rotation.
    r.Set("latency_ms_p50", Median(p.rotation), "ms");
    r.Set("latency_ms_p99",
          p.rotation.empty()
              ? 0.0
              : *std::max_element(p.rotation.begin(), p.rotation.end()),
          "ms");
    result_.notes.push_back("latency_ms_p99 is the maximum of " +
                            std::to_string(p.rotation.size()) + " rotations");
    result_.notes.push_back("collection: " + std::to_string(spec_.num_files) +
                            " files, " + std::to_string(collection_bytes_) +
                            " bytes");
  } else {
    agg_.set_enabled(false);
    Phase untraced = RunPhase(cfg_.seconds / 2.0);
    agg_.set_enabled(true);
    tracer_.set_enabled(true);
    Phase traced = RunPhase(cfg_.seconds / 2.0);
    r.Set("trace.overhead_pct",
          100.0 * (Mean(traced.all) / Mean(untraced.all) - 1), "%");
    ProbeJsonLayer(GenerateCorpus(spec_).texts,
                   {ResultsPath(), ResultsDatePath()}, &tracer_, &r);
    ServiceProbe(&r);
    agg_.Fill(&r);
    FillTraceMetrics(tracer_, &r);
    tracer_.WriteJsonLines(cfg_.trace_out);
  }
  setup_.reset();
  return std::move(result_);
}

}  // namespace

WorkloadResult RunColdPaper(const RunConfig& cfg) {
  return PaperWorkload(cfg, /*warm=*/false).Run();
}

WorkloadResult RunWarmArchive(const RunConfig& cfg) {
  return PaperWorkload(cfg, /*warm=*/true).Run();
}

}  // namespace perfbench
