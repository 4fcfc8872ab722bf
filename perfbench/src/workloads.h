#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/sensor_generator.h"
#include "util.h"

namespace perfbench {

/// Partitions of the paper workloads; service_lookup uses half as many
/// workers and clients. Runs are refused on hosts with fewer hardware
/// threads.
inline constexpr int kParallelism = 4;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny inputs and one pass per workload (the benchmark's own test).
  bool smoke = false;
  /// Breaks one reference answer so the answer check must fail.
  bool corrupt_reference = false;
  /// Scratch root for data files and sidecars; removed by the caller.
  std::string tmp_dir;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out;
};

struct WorkloadResult {
  Report report;
  Tally tally;
  /// Human-readable context printed beside the metrics.
  std::vector<std::string> notes;
};

WorkloadResult RunColdPaper(const RunConfig& cfg);
WorkloadResult RunWarmArchive(const RunConfig& cfg);
WorkloadResult RunServiceLookup(const RunConfig& cfg);

// ---- Shared by the workloads ----------------------------------------

/// The paper's evaluation queries (Listings 7-11).
struct PaperQuery {
  const char* metric;  // end-to-end metric of its median latency
  const char* text;
};
extern const PaperQuery kPaperQueries[4];  // Q0, Q0b, Q1, Q2

/// A generated sensor collection: the spec that reproduces each file
/// and the files' text.
struct Corpus {
  jpar::SensorDataSpec spec;
  std::vector<std::shared_ptr<const std::string>> texts;
  uint64_t bytes = 0;
};

/// `base` with num_files chosen so the files hold about `target_bytes`.
jpar::SensorDataSpec SizeSpec(jpar::SensorDataSpec base, uint64_t target_bytes);

/// Generates every file of `spec`.
Corpus GenerateCorpus(const jpar::SensorDataSpec& spec);

/// The corpus as in-memory collection files.
jpar::Collection InMemoryCollection(const Corpus& corpus);

/// Writes every file of the corpus under `dir` and returns the paths.
std::vector<std::string> WriteCorpus(const Corpus& corpus,
                                     const std::string& dir);

/// The reference engine: sequential, tree-mode, storage and stats off,
/// over the corpus held in memory.
std::unique_ptr<jpar::Engine> ReferenceEngine(const Corpus& corpus);

/// Runs `query` on the reference engine and returns its canonical
/// answer; exits on error.
std::string ReferenceAnswer(const jpar::Engine& ref, const char* query);

/// Stand-in for a broken reference answer (--corrupt-reference).
void Corrupt(std::string* answer);

/// Counts one finished request: errors into failed, answer differences
/// into mismatched (reported on stderr).
void CheckAnswer(const jpar::Status& status,
                 const std::vector<jpar::Item>* items,
                 const std::string& expected, const std::string& what,
                 Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
