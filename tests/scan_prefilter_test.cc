// Scan prefilter suite (DESIGN.md §9, "Scan prefilter").
//
// DATASCAN probes the fields its scan-adjacent SELECTs read and skips
// materializing the records they would drop. The prefilter runs only in
// bytecode mode, so ExprMode::kTree is the unfiltered oracle: every test
// pins both modes explicitly and requires byte-identical answers, the
// same Status (code and message) and the same lenient skip counts, at 1
// and 4 partitions, with threads off and on, over both scan modes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"
#include "runtime/query_context.h"

namespace jpar {
namespace {

struct Config {
  std::string name;
  ExecOptions exec;
};

/// 1 and 4 partitions, threads off and on, indexed and scalar scans.
/// Threaded configs cut files into small morsels, so split files and
/// the strict whole-file fallback run with the probe too.
std::vector<Config> Configs() {
  std::vector<Config> configs;
  for (ScanMode scan : {ScanMode::kIndexed, ScanMode::kScalar}) {
    for (int partitions : {1, 4}) {
      for (bool threads : {false, true}) {
        Config c;
        c.exec.scan_mode = scan;
        c.exec.partitions = partitions;
        c.exec.use_threads = threads;
        if (threads) c.exec.morsel_bytes = 256;
        c.name = std::string(scan == ScanMode::kIndexed ? "indexed" : "scalar") +
                 "/p" + std::to_string(partitions) +
                 (threads ? "/threads" : "/serial");
        configs.push_back(std::move(c));
      }
    }
  }
  return configs;
}

struct Outcome {
  Status status;
  std::vector<std::string> rows;
  ExecStats stats;
};

Outcome Run(const Collection& data, const std::string& query,
            ExecOptions exec, ExprMode mode, bool lenient = false) {
  exec.expr_mode = mode;
  if (lenient) exec.on_parse_error = ParseErrorPolicy::kSkipAndCount;
  EngineOptions options;
  options.exec = exec;
  Engine engine(options);
  engine.catalog()->RegisterCollection("/c", data);
  Outcome out;
  auto result = engine.Run(query);
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  for (const Item& item : result->items) {
    out.rows.push_back(item.ToJsonString());
  }
  out.stats = result->stats;
  return out;
}

/// Runs `query` in tree and bytecode mode under every config and
/// requires the same outcome. Returns the bytecode outcomes.
std::vector<Outcome> ExpectModesAgree(const Collection& data,
                                      const std::string& query,
                                      bool lenient = false) {
  std::vector<Outcome> bytecode_runs;
  for (const Config& config : Configs()) {
    SCOPED_TRACE(config.name + (lenient ? " lenient" : " strict") + "\n" +
                 query);
    Outcome tree = Run(data, query, config.exec, ExprMode::kTree, lenient);
    Outcome bytecode =
        Run(data, query, config.exec, ExprMode::kBytecode, lenient);
    EXPECT_EQ(bytecode.status.ToString(), tree.status.ToString());
    EXPECT_EQ(bytecode.rows, tree.rows);
    EXPECT_EQ(bytecode.stats.skipped_records, tree.stats.skipped_records);
    EXPECT_EQ(bytecode.stats.items_scanned, tree.stats.items_scanned);
    bytecode_runs.push_back(std::move(bytecode));
  }
  return bytecode_runs;
}

Collection Ndjson(const std::vector<std::string>& files) {
  Collection c;
  for (const std::string& text : files) {
    c.files.push_back(JsonFile::FromText(text));
  }
  return c;
}

/// The scan node of a pipeline chain compiled for `query`, or null.
const ScanDesc* LeafScan(const PNode* node) {
  while (node != nullptr) {
    if (node->kind == PNode::Kind::kPipeline && node->input == nullptr) {
      return &node->scan;
    }
    node = node->kind == PNode::Kind::kJoin ? node->left.get()
                                            : node->input.get();
  }
  return nullptr;
}

std::vector<std::string> ProbeKeys(const Collection& data,
                                   const std::string& query) {
  Engine engine;
  engine.catalog()->RegisterCollection("/c", data);
  engine.catalog()->RegisterCollection("/sensors", data);
  auto compiled = engine.Compile(query);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return {};
  const ScanDesc* scan = LeafScan(compiled->physical.root.get());
  if (scan == nullptr || scan->prefilter == nullptr) return {};
  return scan->prefilter->keys;
}

Collection SensorData() {
  SensorDataSpec spec;
  spec.num_files = 3;
  spec.records_per_file = 6;
  spec.measurements_per_array = 20;
  spec.num_stations = 5;
  spec.seed = 11;
  return GenerateSensorCollection(spec);
}

TEST(ScanPrefilterTest, PaperQueriesByteIdentical) {
  Collection data = SensorData();
  for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
    SCOPED_TRACE(q.name);
    EngineOptions options;
    Engine engine(options);
    engine.catalog()->RegisterCollection("/sensors", data);
    for (const Config& config : Configs()) {
      SCOPED_TRACE(config.name);
      ExecOptions tree = config.exec;
      tree.expr_mode = ExprMode::kTree;
      ExecOptions bytecode = config.exec;
      bytecode.expr_mode = ExprMode::kBytecode;
      auto compiled = engine.Compile(q.text);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      auto a = engine.Execute(*compiled, tree);
      auto b = engine.Execute(*compiled, bytecode);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      std::vector<std::string> ra, rb;
      for (const Item& i : a->items) ra.push_back(i.ToJsonString());
      for (const Item& i : b->items) rb.push_back(i.ToJsonString());
      EXPECT_EQ(rb, ra);
      EXPECT_EQ(b->stats.items_scanned, a->stats.items_scanned);
    }
  }
}

TEST(ScanPrefilterTest, TranslatorProbesScanAdjacentFields) {
  Collection data = SensorData();
  using Keys = std::vector<std::string>;
  EXPECT_EQ(ProbeKeys(data, jparbench::kQ0), Keys{"date"});
  EXPECT_EQ(ProbeKeys(data, jparbench::kQ1), Keys{"dataType"});
  EXPECT_EQ(ProbeKeys(data, jparbench::kQ2), Keys{"dataType"});
  // Q0b scans the date strings themselves: the SELECT reads a bare
  // $col0, so there is nothing to probe.
  EXPECT_EQ(ProbeKeys(data, jparbench::kQ0b), Keys{});
  // Two fields of one record, each probed once.
  EXPECT_EQ(ProbeKeys(data, R"(
      for $r in collection("/c")
      where $r("k") eq "x" and $r("v") ge 3 and $r("k") ne "z"
      return $r)"),
            (Keys{"k", "v"}));
  // collection() or a bare record stops the run.
  EXPECT_EQ(ProbeKeys(data, R"(
      for $r in collection("/c")
      where exists($r) and $r("k") eq "x"
      return $r)"),
            Keys{});
}

TEST(ScanPrefilterTest, DroppedRecordsAreNeverMaterialized) {
  // Nothing matches: the bytecode pipeline receives no record at all,
  // so it never flushes a batch, yet every record counts as scanned.
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    text += "{\"k\":\"y\",\"v\":" + std::to_string(i) + "}\n";
  }
  Collection data = Ndjson({text});
  const std::string query =
      R"(for $r in collection("/c") where $r("k") eq "x" return $r)";
  for (const Outcome& b : ExpectModesAgree(data, query)) {
    EXPECT_TRUE(b.status.ok());
    EXPECT_EQ(b.stats.items_scanned, 3000u);
    EXPECT_EQ(b.stats.batches_emitted, 0u);
  }
}

TEST(ScanPrefilterTest, KeepRatioShiftsMidStream) {
  // A keep-all run pauses the probe (RecordProbe::kPauseRecords), then
  // a drop-all run resumes it; a record whose predicate errors sits in
  // each phase. Whichever records the probe sees, answers, errors and
  // skip counts stay those of the unfiltered scan.
  auto records = [](int from, int to, const char* k) {
    std::string text;
    for (int i = from; i < to; ++i) {
      text += std::string("{\"k\":") + k + ",\"v\":" + std::to_string(i) +
              "}\n";
    }
    return text;
  };
  const std::string keep_all = records(0, 1500, "\"x\"");
  const std::string drop_all = records(1500, 4000, "\"y\"");
  const std::string query =
      R"(for $r in collection("/c") where $r("k") eq "x" return $r("v"))";
  for (const Outcome& b : ExpectModesAgree(Ndjson({keep_all + drop_all}),
                                           query)) {
    EXPECT_EQ(b.rows.size(), 1500u);
  }
  // A number compared with "x" is an error in either phase.
  ExpectModesAgree(Ndjson({keep_all + "{\"k\":1}\n" + drop_all}), query);
  ExpectModesAgree(Ndjson({keep_all + drop_all + "{\"k\":1}\n"}), query);
}

TEST(ScanPrefilterTest, ObjectShapesMatchFieldLookup) {
  Collection data = Ndjson({
      "{\"k\":\"x\",\"v\":1}\n"
      "{\"v\":2}\n"                                 // probe key missing
      "{\"k\":\"y\",\"k\":\"x\",\"v\":3}\n"         // first "k" wins: drop
      "{\"k\":\"x\",\"k\":\"y\",\"v\":4}\n"         // first "k" wins: keep
      "{\"\\u006b\":\"x\",\"v\":5}\n"               // escaped key is "k"
      "{\"\\u006b\":\"y\",\"v\":6}\n"
      "{\"k\":\"x\",\"s\":\"a\\\"b\\\\c\\n\",\"v\":7}\n"  // escapes off-probe
      "{\"s\":\"q\\\"u\\\\o\",\"k\":\"y\",\"v\":8}\n"
      "{\"n\":{\"k\":\"x\"},\"v\":9}\n"             // nested "k" is no field
      "{ \"k\" : \"x\" , \"v\" : 10 }\n"
      "{}\n"
      "{\"k\":\"x\",\"v\":[1,{\"k\":\"y\"}],\"w\":null}\n",
      "{\"k\":\"x\\u0079\",\"v\":11}\n"             // escaped probe value
      "{\"k\":\"x\",\"v\":12}{\"k\":\"z\",\"v\":13}\n"  // two on one line
  });
  ExpectModesAgree(data,
                   R"(for $r in collection("/c") where $r("k") eq "x"
                      return $r("v"))");
  ExpectModesAgree(data,
                   R"(for $r in collection("/c")
                      where $r("k") eq "x" and $r("v") ge 3
                      return $r)");
  ExpectModesAgree(data,
                   R"(for $r in collection("/c")
                      where not(exists($r("k"))) or $r("k") eq "xy"
                      return $r)");
  ExpectModesAgree(data,
                   R"(for $r in collection("/c")
                      let $v := $r("v") + 100
                      where $v gt 105 and $r("k") eq "x"
                      return $v)");
}

TEST(ScanPrefilterTest, NonObjectMembersOnThePath) {
  Collection data = Ndjson({
      "{\"items\":[{\"k\":\"x\",\"v\":1},[1,2],3,null,\"s\",{\"k\":\"y\"},"
      "{\"v\":5},[{\"k\":\"x\"}],true,{\"k\":\"x\",\"v\":6}]}\n"
      "{\"items\":{\"k\":\"x\"}}\n"
      "{\"items\":7}\n",
  });
  ExpectModesAgree(data,
                   R"(for $r in collection("/c")("items")()
                      where $r("k") eq "x" return $r)");
  ExpectModesAgree(data,
                   R"(for $r in collection("/c")("items")()
                      where empty($r("k")) return $r)");
}

std::vector<std::string> MalformedFiles() {
  return {
      "{\"k\":\"x\",\"v\":1}\n"
      "{\"k\":\"y\",\"s\":\"bad\\q escape\",\"v\":2}\n"  // bad escape
      "{\"k\":\"x\",\"v\":3}\n",
      "{\"k\":\"x\",\"v\":4}\n"
      "{\"k\":\"y\",\"n\":-,\"v\":5}\n"  // bare '-'
      "{\"k\":\"x\",\"v\":6}\n",
      "{\"k\":\"x\",\"v\":7}\n"
      "{\"k\":\"y\",\"v\":\n"  // truncated record
      "{\"k\":\"x\",\"v\":8}\n"
      "{\"k\":\"y\",\"v\":tru}\n"  // bad literal
      "{\"k\":\"x\",\"v\":9}\n",
  };
}

TEST(ScanPrefilterTest, MalformedRecordsFailAndSkipAsBefore) {
  const std::string query =
      R"(for $r in collection("/c") where $r("k") eq "x" return $r("v"))";
  const std::vector<std::string> files = MalformedFiles();
  // Strict: each file alone fails with the same Status in both modes.
  for (const std::string& file : files) {
    for (const Outcome& b : ExpectModesAgree(Ndjson({file}), query)) {
      EXPECT_EQ(b.status.code(), StatusCode::kParseError);
    }
  }
  // Lenient: the same records are skipped and the rest survive.
  for (const Outcome& b :
       ExpectModesAgree(Ndjson(files), query, /*lenient=*/true)) {
    EXPECT_TRUE(b.status.ok()) << b.status.ToString();
    EXPECT_EQ(b.stats.skipped_records, 4u);
  }
}

TEST(ScanPrefilterTest, PredicateErrorsAreTheTreeModeErrors) {
  Collection dates = Ndjson({
      "{\"d\":\"2003-12-25T00:00:00\",\"v\":1}\n"
      "{\"d\":\"2004-01-01T00:00:00\",\"v\":2}\n"
      "{\"d\":\"garbage\",\"v\":3}\n"
      "{\"d\":\"2003-12-25T00:00:00\",\"v\":4}\n"});
  for (const Outcome& b : ExpectModesAgree(dates, R"(
        for $r in collection("/c")
        let $t := dateTime(data($r("d")))
        where year-from-dateTime($t) ge 2003 and day-from-dateTime($t) eq 25
        return $r("v"))")) {
    EXPECT_EQ(b.status.code(), StatusCode::kParseError);
  }
  Collection mixed = Ndjson({
      "{\"k\":1}\n{\"k\":2}\n{\"k\":\"three\"}\n{\"k\":4}\n"});
  for (const Outcome& b : ExpectModesAgree(
           mixed,
           R"(for $r in collection("/c") where $r("k") gt 2 return $r)")) {
    EXPECT_FALSE(b.status.ok());
  }
  // Lenient scans abort on type errors just the same.
  ExpectModesAgree(mixed,
                   R"(for $r in collection("/c") where $r("k") gt 2
                      return $r)",
                   /*lenient=*/true);
}

TEST(ScanPrefilterTest, CancellationLandsWhileRecordsAreDropped) {
  // One file whose records the prefilter drops. The scan-I/O fault
  // point stalls the scan right before the file is read; the test
  // cancels during the stall, so the only polls left to notice are the
  // ones dropped records still make.
  std::string text;
  for (int i = 0; i < 5000; ++i) {
    text += "{\"k\":\"y\",\"v\":" + std::to_string(i) + "}\n";
  }
  Collection data = Ndjson({text});
  // Serial scans only: a threaded scan polls once more ("pipeline
  // scan") as each morsel starts, before any record is read.
  for (int partitions : {1, 4}) {
    SCOPED_TRACE("partitions " + std::to_string(partitions));
    Engine engine;
    engine.catalog()->RegisterCollection("/c", data);
    auto compiled = engine.Compile(
        R"(for $r in collection("/c") where $r("k") eq "x" return $r)");
    ASSERT_TRUE(compiled.ok());
    FaultInjector faults;
    faults.ArmStall(FaultInjector::kScanIOError, /*stall_ms=*/300);
    auto token = std::make_shared<CancellationToken>();
    QueryContext ctx;
    ctx.set_cancellation(token);
    ctx.set_fault_injector(&faults);
    ExecOptions exec;
    exec.expr_mode = ExprMode::kBytecode;
    exec.partitions = partitions;
    std::optional<Result<QueryOutput>> result;
    std::thread runner(
        [&] { result.emplace(engine.Execute(*compiled, exec, &ctx)); });
    while (faults.hit_count(FaultInjector::kScanIOError) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token->Cancel();
    runner.join();
    ASSERT_TRUE(result.has_value());
    ASSERT_FALSE(result->ok());
    EXPECT_EQ(result->status().code(), StatusCode::kCancelled);
    EXPECT_EQ(result->status().message(), "query cancelled during pipeline");
  }
}

}  // namespace
}  // namespace jpar
