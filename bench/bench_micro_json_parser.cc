// Microbenchmarks (google-benchmark) for the substrate layers: DOM
// parsing, projected scanning, binary item serde, and the baseline
// compression codec. These quantify why the DATASCAN projection wins:
// a projected scan touches every byte but materializes almost nothing.

#include <benchmark/benchmark.h>

#include "baselines/compression.h"
#include "data/sensor_generator.h"
#include "json/binary_serde.h"
#include "json/parser.h"
#include "json/projecting_reader.h"
#include "json/structural_index.h"

namespace {

std::string MakeFile() {
  jpar::SensorDataSpec spec;
  spec.records_per_file = 64;
  return jpar::GenerateSensorFile(spec, 0);
}

void BM_ParseJsonDom(benchmark::State& state) {
  std::string text = MakeFile();
  for (auto _ : state) {
    auto item = jpar::ParseJson(text);
    benchmark::DoNotOptimize(item);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseJsonDom);

void ProjectedScan(benchmark::State& state,
                   const std::vector<jpar::PathStep>& steps,
                   jpar::ScanMode mode) {
  std::string text = MakeFile();
  for (auto _ : state) {
    size_t count = 0;
    auto st = jpar::ProjectJson(
        text, steps,
        [&](jpar::Item) {
          ++count;
          return jpar::Status::OK();
        },
        nullptr, mode);
    benchmark::DoNotOptimize(count);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}

std::vector<jpar::PathStep> DatePath() {
  return {jpar::PathStep::Key("root"), jpar::PathStep::KeysOrMembers(),
          jpar::PathStep::Key("results"), jpar::PathStep::KeysOrMembers(),
          jpar::PathStep::Key("date")};
}

/// Q0-style selection: one shallow field per record, everything else
/// (the fat "results" arrays) is SkipValue'd — the shape where the
/// quote/op bitmaps pay off most.
std::vector<jpar::PathStep> SkipHeavyPath() {
  return {jpar::PathStep::Key("root"), jpar::PathStep::KeysOrMembers(),
          jpar::PathStep::Key("metadata"), jpar::PathStep::Key("count")};
}

void BM_ProjectedScanDates(benchmark::State& state) {
  ProjectedScan(state, DatePath(), jpar::ScanMode::kIndexed);
}
BENCHMARK(BM_ProjectedScanDates);

void BM_ProjectedScanDatesScalar(benchmark::State& state) {
  ProjectedScan(state, DatePath(), jpar::ScanMode::kScalar);
}
BENCHMARK(BM_ProjectedScanDatesScalar);

void BM_ProjectedScanSkipHeavy(benchmark::State& state) {
  ProjectedScan(state, SkipHeavyPath(), jpar::ScanMode::kIndexed);
}
BENCHMARK(BM_ProjectedScanSkipHeavy);

void BM_ProjectedScanSkipHeavyScalar(benchmark::State& state) {
  ProjectedScan(state, SkipHeavyPath(), jpar::ScanMode::kScalar);
}
BENCHMARK(BM_ProjectedScanSkipHeavyScalar);

/// Whole measurement records (Q1's DATASCAN path), each streamed
/// through ProjectJsonStreamWithIndex with an optional scan prefilter.
void RecordScan(benchmark::State& state, const jpar::RecordProbe* probe) {
  std::string text = MakeFile();
  const std::vector<jpar::PathStep> steps = {
      jpar::PathStep::Key("root"), jpar::PathStep::KeysOrMembers(),
      jpar::PathStep::Key("results"), jpar::PathStep::KeysOrMembers()};
  size_t kept = 0;
  for (auto _ : state) {
    kept = 0;
    auto st = jpar::ProjectJsonStreamWithIndex(
        text, steps, nullptr, 0,
        [&](jpar::Item) {
          ++kept;
          return jpar::Status::OK();
        },
        nullptr, nullptr, jpar::ScanMode::kIndexed, probe);
    benchmark::DoNotOptimize(kept);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.counters["kept"] = static_cast<double>(kept);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}

void BM_ProjectedScanRecords(benchmark::State& state) {
  RecordScan(state, nullptr);
}
BENCHMARK(BM_ProjectedScanRecords);

/// The scan prefilter's JSON-layer share (DESIGN.md §9): one probe key,
/// `dataType`, and 1 record in 4 (TMIN) kept and re-parsed.
void BM_ProjectedScanProbe(benchmark::State& state) {
  jpar::RecordProbe probe;
  probe.keys = {"dataType"};
  probe.keep = [](std::vector<jpar::Item>* slots) -> jpar::Result<bool> {
    const jpar::Item& type = (*slots)[0];
    return type.is_string() && type.string_value() == "TMIN";
  };
  RecordScan(state, &probe);
}
BENCHMARK(BM_ProjectedScanProbe);

void BM_StructuralIndexBuild(benchmark::State& state) {
  std::string text = MakeFile();
  jpar::SimdLevel level =
      jpar::SupportedSimdLevels()[static_cast<size_t>(state.range(0))];
  state.SetLabel(jpar::SimdLevelName(level));
  for (auto _ : state) {
    jpar::StructuralIndex idx = jpar::StructuralIndex::Build(text, level);
    benchmark::DoNotOptimize(idx);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_StructuralIndexBuild)
    ->DenseRange(0, static_cast<int64_t>(
                        jpar::SupportedSimdLevels().size() - 1));

void BM_BinarySerde(benchmark::State& state) {
  std::string text = MakeFile();
  jpar::Item doc = *jpar::ParseJson(text);
  for (auto _ : state) {
    std::string binary = jpar::SerializeItem(doc);
    auto back = jpar::DeserializeItem(binary);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_BinarySerde);

void BM_LzRoundTrip(benchmark::State& state) {
  std::string text = MakeFile();
  for (auto _ : state) {
    std::string compressed = jpar::LzCompress(text);
    auto back = jpar::LzDecompress(compressed);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_LzRoundTrip);

}  // namespace

BENCHMARK_MAIN();
