// service_lookup: a QueryService with kLookupClients workers and as many
// closed-loop clients, each with its own 1-partition Session, submitting
// index-pruned date point lookups over a chronological, path-backed
// archive. Dates follow a seeded Zipf law over the archive's files, so
// the plan cache sees hits and misses; the storage budget sits below the
// archive's warm footprint, so cold-tail files are evicted and their
// sidecars reloaded. Client 0 re-delivers a seeded file every
// kRedeliverEvery requests and then looks up a date in it. The timed
// lookups run in kSlices slices; before each slice, while no client
// runs, the paper queries run once each directly on the service's
// engine over the archive files, at kLookupClients threaded partitions
// with the storage tier bypassed, so they neither read nor evict the
// lookups' cache.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <thread>
#include <unordered_map>

#include "layers.h"
#include "stats/collection_stats.h"
#include "storage/storage_tier.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kArchiveBytes = 16ull << 20;
constexpr uint64_t kSmokeBytes = 1ull << 20;
constexpr int kRecordsPerFile = 16;  // one date per record
constexpr int kStartYear = 1990, kEndYear = 2014;
constexpr double kZipfExponent = 1.1;
constexpr double kBudgetShare = 0.4;  // of the warm footprint
constexpr int kRedeliverEvery = 32;
constexpr int kSetupRepeats = 3;
// Paper rotations interleaved with lookup slices: spreading them over
// the whole run keeps a burst of host load from hitting every sample.
constexpr int kSlices = 8;
// Workers, clients and the rotations' partitions: half of kParallelism.
// The host's cores are shared with other tenants; when two of them are
// busy, 4 clients on 4 workers lost 30-40% of their throughput and their
// p99 rose by half, while 2 on 2 kept both.
constexpr int kLookupClients = kParallelism / 2;
constexpr int kSmokeRequestsPerClient = 16;
constexpr int kEngineProbeQueries = 32;

std::string LookupQuery(const std::string& date) {
  return "for $r in collection(\"/sensors\")(\"root\")()(\"results\")()\n"
         "where $r(\"date\") eq \"" +
         date + "\"\nreturn $r";
}

struct LookupSetup {
  std::unique_ptr<ScratchDir> dir;
  std::vector<std::string> paths;
  jpar::EngineOptions lookup_options;
  std::unique_ptr<jpar::QueryService> service;
  std::vector<std::shared_ptr<jpar::Session>> sessions;  // one per client
};

struct Phase {
  std::vector<double> latency;  // every answered lookup
  std::vector<double> refresh;  // lookups right after a re-delivery
  ServiceSamples service;
  double wall_s = 0;

  /// Adds `other`'s samples (not its wall time).
  void Append(const Phase& other) {
    latency.insert(latency.end(), other.latency.begin(), other.latency.end());
    refresh.insert(refresh.end(), other.refresh.begin(), other.refresh.end());
    service.Append(other.service);
  }
};

class LookupWorkload {
 public:
  explicit LookupWorkload(const RunConfig& cfg)
      : cfg_(cfg), agg_(1), tracer_(false), redeliver_rng_(cfg.seed ^ 0xf11e) {}

  WorkloadResult Run();

 private:
  void ComputeReference();
  void SetUp(int iteration);
  Phase RunPhase(double seconds);
  /// Runs Q0..Q2 once each on the engine with `opts`; returns latencies
  /// (-1 for a failed query).
  std::vector<double> PaperRotation(const jpar::EngineOptions& opts);
  /// Compiles and executes `query` on the service's engine from this
  /// thread and checks the answer; returns the latency or -1.
  double EngineRequest(const std::string& query,
                       const jpar::EngineOptions& opts,
                       const std::string& expected, const std::string& what,
                       uint64_t files_per_scan);
  void Redeliver(int file);
  void EngineProbe();
  uint64_t FilesFor(const std::string& date) const;

  const RunConfig& cfg_;
  jpar::SensorDataSpec spec_;
  uint64_t target_bytes_ = 0;
  uint64_t collection_bytes_ = 0;
  std::string paper_reference_[4];
  std::vector<std::string> dates_;  // chronological; file f holds 16*f..
  std::unordered_map<std::string, std::string> reference_;  // date -> answer
  std::vector<size_t> file_rank_;  // Zipf rank -> file
  std::vector<double> paper_ms_[4];  // rotations between lookup slices
  std::unique_ptr<LookupSetup> setup_;
  StartHook hook_;
  LayerAgg agg_;
  Tracer tracer_;
  Rng redeliver_rng_;  // client 0 only
  std::atomic<uint64_t> next_request_{1};
  uint64_t phases_run_ = 0;  // varies the clients' streams per phase
  /// Requests each client has sent over all phases; client 0's count
  /// sets the re-delivery schedule.
  std::vector<uint64_t> client_requests_ =
      std::vector<uint64_t>(kLookupClients, 0);
  std::mutex tally_mu_;
  WorkloadResult result_;  // tally guarded by tally_mu_ while clients run
};

void LookupWorkload::ComputeReference() {
  spec_ = SizeSpec(spec_, target_bytes_);
  if (spec_.num_files * kRecordsPerFile > (kEndYear - kStartYear + 1) * 365) {
    Die("archive too large: its dates would repeat");
  }
  // Computed in a child process, so the oracle's memory stays out of
  // peak_rss_mb: the collection size, the paper answers, then
  // (date, answer) pairs in date order.
  std::vector<std::string> ref =
      RunInChild(cfg_.tmp_dir + "/reference", [this] {
        Corpus corpus = GenerateCorpus(spec_);
        auto engine = ReferenceEngine(corpus);
        std::vector<std::string> out = {std::to_string(corpus.bytes)};
        for (const PaperQuery& q : kPaperQueries) {
          out.push_back(ReferenceAnswer(*engine, q.text));
        }
        // One sequential full scan, grouped here by date: the lookup
        // oracle.
        auto all = engine->Run(
            "for $r in collection(\"/sensors\")(\"root\")()(\"results\")() "
            "return $r");
        if (!all.ok()) Die("reference scan failed: " + all.status().ToString());
        std::map<std::string, std::vector<jpar::Item>> by_date;
        for (const jpar::Item& r : all->items) {
          auto date = r.GetField("date");
          if (!date || !date->is_string()) Die("reference record has no date");
          by_date[date->string_value()].push_back(r);
        }
        for (auto& [date, items] : by_date) {
          out.push_back(date);
          out.push_back(CanonicalAnswer(items));
        }
        return out;
      });
  const size_t dates = static_cast<size_t>(spec_.num_files) * kRecordsPerFile;
  if (ref.size() != 5 + 2 * dates) Die("archive dates are not one per record");
  collection_bytes_ = std::stoull(ref[0]);
  for (int q = 0; q < 4; ++q) paper_reference_[q] = std::move(ref[q + 1]);
  for (size_t i = 5; i < ref.size(); i += 2) {
    dates_.push_back(ref[i]);
    reference_[ref[i]] = std::move(ref[i + 1]);
    if (cfg_.corrupt_reference) Corrupt(&reference_[ref[i]]);
  }
  if (cfg_.corrupt_reference) Corrupt(&paper_reference_[0]);
}

void LookupWorkload::SetUp(int iteration) {
  jpar::StorageManager::Instance().Clear();
  jpar::StatsStore::Instance().Clear();
  auto s = std::make_unique<LookupSetup>();
  s->dir = std::make_unique<ScratchDir>(cfg_.tmp_dir + "/lookup-" +
                                        std::to_string(iteration));
  const std::string data = s->dir->path() + "/data";
  const std::string sidecars = s->dir->path() + "/sidecars";
  std::filesystem::create_directories(data);
  std::filesystem::create_directories(sidecars);
  s->paths = WriteCorpus(GenerateCorpus(spec_), data);

  jpar::EngineOptions opts;
  opts.rules.index_rules = true;
  opts.exec.partitions = 1;
  opts.exec.storage_mode = jpar::StorageMode::kAuto;
  opts.exec.storage_cache_dir = sidecars;
  jpar::ServiceOptions so;
  so.engine = opts;
  so.worker_threads = kLookupClients;
  so.on_query_start = [this](std::string_view q) { hook_.Started(q); };
  s->service = std::make_unique<jpar::QueryService>(so);
  jpar::Collection coll;
  for (const std::string& p : s->paths) {
    coll.files.push_back(jpar::JsonFile::FromPath(p));
  }
  s->service->catalog()->RegisterCollection("/sensors", std::move(coll));
  jpar::Status st =
      s->service->catalog()->BuildPathIndex("/sensors", ResultsDatePath());
  if (!st.ok()) Die("index build failed: " + st.ToString());

  setup_ = std::move(s);
  // The paper queries warm the tier: tapes, columns, .jstats and sidecars
  // for every file. They run on this thread rather than through the
  // service, so their large allocations always land in the same malloc
  // arena and peak_rss_mb does not depend on which worker ran them.
  setup_->lookup_options = opts;
  PaperRotation(opts);
  const uint64_t footprint = jpar::StorageManager::Instance().totals().bytes;
  setup_->lookup_options.exec.storage_budget_bytes = std::max<uint64_t>(
      1, static_cast<uint64_t>(kBudgetShare * static_cast<double>(footprint)));
  for (int c = 0; c < kLookupClients; ++c) {
    setup_->sessions.push_back(
        setup_->service->CreateSession(setup_->lookup_options));
  }
}

std::vector<double> LookupWorkload::PaperRotation(
    const jpar::EngineOptions& opts) {
  std::vector<double> ms;
  for (int q = 0; q < 4; ++q) {
    ms.push_back(EngineRequest(kPaperQueries[q].text, opts,
                               paper_reference_[q], kPaperQueries[q].metric,
                               setup_->paths.size()));
  }
  return ms;
}

double LookupWorkload::EngineRequest(const std::string& query,
                                     const jpar::EngineOptions& opts,
                                     const std::string& expected,
                                     const std::string& what,
                                     uint64_t files_per_scan) {
  const jpar::Engine& engine = setup_->service->engine();
  const uint64_t id = next_request_++;
  const auto t0 = Clock::now();
  auto compiled = engine.Compile(query, opts.rules, opts.exec);
  const auto t1 = Clock::now();
  if (!compiled.ok()) {
    CheckAnswer(compiled.status(), nullptr, expected, what, &result_.tally);
    return -1;
  }
  auto out = engine.Execute(*compiled, opts.exec);
  const auto t2 = Clock::now();
  const int64_t root = tracer_.Add("bench.request", t0, t2, -1, id);
  tracer_.Add("core.compile", t0, t1, root, id);
  tracer_.Add("runtime.execute", t1, t2, root, id);
  CheckAnswer(out.status(), out.ok() ? &out->items : nullptr, expected, what,
              &result_.tally);
  if (!out.ok()) return -1;
  agg_.AddCompileMs(std::chrono::duration<double, std::milli>(t1 - t0).count());
  agg_.Add(out->stats, files_per_scan);
  agg_.AddEstimate(compiled->physical.est_result_rows, out->stats.result_rows);
  return std::chrono::duration<double, std::milli>(t2 - t0).count();
}

void LookupWorkload::Redeliver(int file) {
  const auto t0 = Clock::now();
  perfbench::Redeliver(setup_->paths[static_cast<size_t>(file)],
                       jpar::GenerateSensorFile(spec_, file));
  tracer_.Add("bench.redeliver", t0, Clock::now(), -1, 0);
}

uint64_t LookupWorkload::FilesFor(const std::string& date) const {
  const auto* files = setup_->service->catalog()->LookupPathIndex(
      "/sensors", ResultsDatePath(), jpar::Item::String(date));
  return files != nullptr ? files->size() : spec_.num_files;
}

Phase LookupWorkload::RunPhase(double seconds) {
  const Zipf zipf(file_rank_.size(), kZipfExponent);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const uint64_t salt = ++phases_run_;
  std::vector<Phase> per_client(kLookupClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kLookupClients; ++c) {
    clients.emplace_back([&, c] {
      Phase& mine = per_client[static_cast<size_t>(c)];
      Tally tally;
      Rng rng(cfg_.seed * 0x9E3779B97F4A7C15ull + salt * 131 +
              static_cast<uint64_t>(c));
      uint64_t& sent = client_requests_[static_cast<size_t>(c)];
      for (int i = 0;; ++i, ++sent) {
        const bool refresh = c == 0 && sent % kRedeliverEvery == 0;
        size_t file;
        if (refresh) {
          file = redeliver_rng_.Below(file_rank_.size());
          Redeliver(static_cast<int>(file));
        } else {
          file = file_rank_[zipf.Sample(&rng)];
        }
        const std::string& date =
            dates_[file * kRecordsPerFile + rng.Below(kRecordsPerFile)];
        jpar::Session* session = setup_->sessions[static_cast<size_t>(c)].get();
        Submitted s = SubmitAndWait(session, LookupQuery(date), &hook_,
                                    &tracer_, next_request_++, &mine.service);
        const jpar::Status st = s.ticket.status();
        CheckAnswer(st, st.ok() ? &s.ticket.output().items : nullptr,
                    reference_.at(date), "lookup " + date, &tally);
        if (st.ok()) {
          mine.latency.push_back(s.latency_ms);
          if (refresh) mine.refresh.push_back(s.latency_ms);
          agg_.Add(s.ticket.output().stats, FilesFor(date));
        }
        if (cfg_.smoke ? i + 1 >= kSmokeRequestsPerClient
                       : Clock::now() >= deadline) {
          break;
        }
      }
      std::lock_guard<std::mutex> lock(tally_mu_);
      result_.tally.attempted += tally.attempted;
      result_.tally.failed += tally.failed;
      result_.tally.mismatched += tally.mismatched;
    });
  }
  for (std::thread& t : clients) t.join();
  Phase phase;
  phase.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (const Phase& p : per_client) phase.Append(p);
  return phase;
}

void LookupWorkload::EngineProbe() {
  // Compile and execute directly on the service's engine: the compile
  // time the service hides behind its plan cache, and the cost model's
  // estimate beside the real row count.
  for (int i = 0; i < kEngineProbeQueries; ++i) {
    const size_t n = static_cast<size_t>(i);
    const size_t file = file_rank_[n % file_rank_.size()];
    const std::string& date =
        dates_[file * kRecordsPerFile + n % kRecordsPerFile];
    EngineRequest(LookupQuery(date), setup_->lookup_options,
                  reference_.at(date), "lookup " + date, FilesFor(date));
  }
}

WorkloadResult LookupWorkload::Run() {
  spec_.seed = cfg_.seed;
  spec_.chronological = true;
  spec_.start_year = kStartYear;
  spec_.end_year = kEndYear;
  spec_.records_per_file = kRecordsPerFile;
  target_bytes_ = cfg_.smoke ? kSmokeBytes : kArchiveBytes;

  ComputeReference();
  file_rank_.resize(static_cast<size_t>(spec_.num_files));
  for (size_t f = 0; f < file_rank_.size(); ++f) file_rank_[f] = f;
  Rng shuffle(cfg_.seed ^ 0x2a9f);
  for (size_t i = file_rank_.size(); i > 1; --i) {
    std::swap(file_rank_[i - 1], file_rank_[shuffle.Below(i)]);
  }

  Report& r = result_.report;
  const int repeats = cfg_.trace || cfg_.smoke ? 1 : kSetupRepeats;
  agg_.set_enabled(cfg_.trace);
  const std::vector<double> setup_s =
      TimeSetUps(repeats, cfg_.tmp_dir + "/setup", [this](int i) { SetUp(i); },
                 [this] { setup_.reset(); });

  const double bytes = static_cast<double>(collection_bytes_);
  if (!cfg_.trace) {
    jpar::EngineOptions paper = setup_->lookup_options;
    paper.exec.storage_mode = jpar::StorageMode::kOff;
    paper.exec.storage_budget_bytes = 0;
    paper.exec.partitions = kLookupClients;
    paper.exec.use_threads = true;
    const int slices = cfg_.smoke ? 1 : kSlices;
    Phase p;
    // latency_ms_p99 is the median of the slices' own tails: a pause of
    // the shared host as short as 1% of the run moves a whole-run p99,
    // but it moves the tail of only the slice it falls in.
    std::vector<double> slice_tails;
    double slice_pct = 100;
    size_t slice_samples = SIZE_MAX;
    for (int s = 0; s < slices; ++s) {
      std::vector<double> ms = PaperRotation(paper);
      for (int q = 0; q < 4; ++q) {
        if (ms[q] >= 0) paper_ms_[q].push_back(ms[q]);
      }
      Phase slice = RunPhase(cfg_.seconds / static_cast<double>(slices));
      double pct = 0;
      slice_tails.push_back(TailLatency(slice.latency, &pct));
      slice_pct = std::min(slice_pct, pct);
      slice_samples = std::min(slice_samples, slice.latency.size());
      p.Append(slice);
      p.wall_s += slice.wall_s;
    }
    r.Set("setup_s", Median(setup_s), "s");
    for (int q = 0; q < 4; ++q) {
      r.Set(kPaperQueries[q].metric, Median(paper_ms_[q]), "ms");
    }
    r.Set("refresh_ms", Median(p.refresh), "ms");
    const double answered = static_cast<double>(p.latency.size());
    r.Set("throughput_qps", answered / p.wall_s, "1/s");
    r.Set("throughput_mb_per_s", answered * bytes / 1e6 / p.wall_s, "MB/s");
    double pct = 0;
    const double whole_run_tail = TailLatency(p.latency, &pct);
    r.Set("latency_ms_p50", Median(p.latency), "ms");
    r.Set("latency_ms_p99", Median(slice_tails), "ms");
    result_.notes.push_back(
        "latency_ms_p99 is the median over " + std::to_string(slices) +
        " slices of each slice's tail (at least p" +
        std::to_string(slice_pct) + " of at least " +
        std::to_string(slice_samples) + " lookups); the p" +
        std::to_string(pct) + " of all " + std::to_string(p.latency.size()) +
        " lookups is " + std::to_string(whole_run_tail) +
        " ms; refresh_ms from " + std::to_string(p.refresh.size()) +
        " probes");
    result_.notes.push_back("archive: " + std::to_string(spec_.num_files) +
                            " files, " + std::to_string(collection_bytes_) +
                            " bytes");
  } else {
    agg_.set_enabled(false);
    Phase untraced = RunPhase(cfg_.seconds / 2.0);
    agg_.set_enabled(true);
    tracer_.set_enabled(true);
    const jpar::ServiceMetrics before = setup_->service->Metrics();
    Phase traced = RunPhase(cfg_.seconds / 2.0);
    const jpar::ServiceMetrics after = setup_->service->Metrics();
    r.Set("trace.overhead_pct",
          100.0 * (Mean(traced.latency) / Mean(untraced.latency) - 1), "%");
    traced.service.Fill(before, after, &r);
    EngineProbe();
    ProbeJsonLayer(GenerateCorpus(spec_).texts,
                   {ResultsPath(), ResultsDatePath()}, &tracer_, &r);
    agg_.Fill(&r);
    FillTraceMetrics(tracer_, &r);
    tracer_.WriteJsonLines(cfg_.trace_out);
  }
  setup_.reset();
  return std::move(result_);
}

}  // namespace

WorkloadResult RunServiceLookup(const RunConfig& cfg) {
  return LookupWorkload(cfg).Run();
}

}  // namespace perfbench
