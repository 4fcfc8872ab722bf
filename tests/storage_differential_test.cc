// Warm-storage-tier differential suite (DESIGN.md §14): every paper
// query must produce byte-identical rows — and identical degraded-scan
// skip counts and error statuses — whether it runs cold, against a
// cached structural-index tape, or against shredded columns, across
// sequential, threaded-morsel, and tiny-budget-spilling configurations.
// Stale-cache cases mutate the underlying files (truncate, append,
// same-size rewrite with an mtime bump) and require a transparent fall
// back to the cold answer. Non-vacuousness assertions (the warm runs
// actually hit the cache) are gated on JPAR_DISABLE_STORAGE_CACHE so
// the CI kill-switch job still passes: with the cache disabled every
// run is cold and the differential claims hold trivially.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <utime.h>

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"
#include "stats/collection_stats.h"
#include "storage/column_store.h"
#include "storage/storage_tier.h"

namespace jpar {
namespace {

// ---------------------------------------------------------------------
// Disk fixtures

/// A unique directory of path-backed collection files. Tracks every
/// file it writes and removes them — plus any .jtape / .jcol sidecars
/// the storage tier left next to them — on destruction.
class TempCollectionDir {
 public:
  TempCollectionDir() {
    std::string tmpl = ::testing::TempDir() + "/jpar_storage_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    dir_ = made != nullptr ? made : tmpl;
  }

  ~TempCollectionDir() {
    // Remove data files and whatever sidecars (.jtape, .<hash>.jcol)
    // the storage tier wrote beside them.
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        std::remove((dir_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(dir_.c_str());
  }

  /// Writes (or rewrites) `name` and returns its absolute path.
  std::string Write(const std::string& name, const std::string& text) {
    std::string path = dir_ + "/" + name;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    files_.push_back(path);
    return path;
  }

  /// Forces the file's mtime well past any cached signature, so a
  /// same-second same-size rewrite still invalidates.
  static void BumpMtime(const std::string& path, int seconds_ahead) {
    struct utimbuf times;
    times.actime = ::time(nullptr) + seconds_ahead;
    times.modtime = times.actime;
    ASSERT_EQ(::utime(path.c_str(), &times), 0) << path;
  }

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::vector<std::string> files_;
};

/// Registers a path-backed sensor collection generated from `spec`.
void RegisterSensorsOnDisk(Engine* engine, TempCollectionDir* dir,
                           const SensorDataSpec& spec) {
  Collection c;
  for (int f = 0; f < spec.num_files; ++f) {
    std::string path = dir->Write("sensors_" + std::to_string(f) + ".json",
                                  GenerateSensorFile(spec, f));
    c.files.push_back(JsonFile::FromPath(path));
  }
  engine->catalog()->RegisterCollection("/sensors", std::move(c));
}

// ---------------------------------------------------------------------
// Run harness

struct RunResult {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<std::string> rows;  // ToJsonString of each item, in order
  uint64_t skipped = 0;
  uint64_t tape_hits = 0;
  uint64_t tape_builds = 0;
  uint64_t columns_read = 0;
  uint64_t blocks_pruned = 0;
  uint64_t bytes_scanned = 0;
  uint64_t items_scanned = 0;
  uint64_t stats_paths_built = 0;
};

RunResult RunWith(const Engine& engine, const CompiledQuery& plan,
                  ExecOptions exec, StorageMode mode) {
  exec.storage_mode = mode;
  RunResult r;
  auto out = engine.Execute(plan, exec);
  r.ok = out.ok();
  r.code = out.status().code();
  r.message = out.status().message();
  if (out.ok()) {
    for (const Item& item : out->items) r.rows.push_back(item.ToJsonString());
    r.skipped = out->stats.skipped_records;
    r.tape_hits = out->stats.tape_hits;
    r.tape_builds = out->stats.tape_builds;
    r.columns_read = out->stats.columns_read;
    r.blocks_pruned = out->stats.blocks_pruned;
    r.bytes_scanned = out->stats.bytes_scanned;
    r.items_scanned = out->stats.items_scanned;
    r.stats_paths_built = out->stats.stats_paths_built;
  }
  return r;
}

void ExpectSameAnswer(const RunResult& cold, const RunResult& warm,
                      const std::string& what) {
  ASSERT_EQ(cold.ok, warm.ok) << what << ": " << warm.message;
  ASSERT_EQ(static_cast<int>(cold.code), static_cast<int>(warm.code)) << what;
  ASSERT_EQ(cold.skipped, warm.skipped) << what;
  ASSERT_EQ(cold.rows, warm.rows) << what;
}

struct StorageConfigCase {
  const char* name;
  ExecOptions exec;
};

std::vector<StorageConfigCase> Configs() {
  std::vector<StorageConfigCase> configs;
  ExecOptions seq;
  seq.partitions = 2;
  configs.push_back({"sequential", seq});
  ExecOptions threaded;
  threaded.partitions = 4;
  threaded.use_threads = true;
  configs.push_back({"threads", threaded});
  ExecOptions spill;
  spill.partitions = 2;
  spill.memory_limit_bytes = 4096;
  spill.spill = SpillMode::kEnabled;
  configs.push_back({"spill-tiny", spill});
  return configs;
}

// ---------------------------------------------------------------------
// The paper queries, cold vs tape-warm vs columnar-warm

TEST(StorageDifferentialTest, PaperQueriesMatchColdAcrossAccessPaths) {
  SensorDataSpec spec;
  spec.num_files = 4;
  spec.records_per_file = 5;
  spec.measurements_per_array = 6;
  spec.seed = 77;

  for (const StorageConfigCase& config : Configs()) {
    StorageManager::Instance().Clear();
    TempCollectionDir dir;
    Engine engine;
    RegisterSensorsOnDisk(&engine, &dir, spec);

    for (const jparbench::NamedQuery& q : jparbench::kAllQueries) {
      auto compiled = engine.Compile(q.text, RuleOptions::All());
      ASSERT_TRUE(compiled.ok()) << q.name << ": "
                                 << compiled.status().ToString();

      std::string what = std::string(q.name) + " / " + config.name;
      RunResult cold = RunWith(engine, *compiled, config.exec,
                               StorageMode::kOff);
      ASSERT_TRUE(cold.ok) << what << ": " << cold.message;

      // First warm run builds tapes + columns; the answer must already
      // match. Second warm run serves from the caches. kTape isolates
      // the structural-index level.
      RunResult build = RunWith(engine, *compiled, config.exec,
                                StorageMode::kAuto);
      ExpectSameAnswer(cold, build, what + " (cache-building run)");
      RunResult warm = RunWith(engine, *compiled, config.exec,
                               StorageMode::kAuto);
      ExpectSameAnswer(cold, warm, what + " (columnar-warm run)");
      RunResult tape = RunWith(engine, *compiled, config.exec,
                               StorageMode::kTape);
      ExpectSameAnswer(cold, tape, what + " (tape-warm run)");

      if (!StorageCacheDisabledByEnv()) {
        EXPECT_EQ(cold.tape_hits + cold.tape_builds + cold.columns_read, 0u)
            << what << ": kOff must not touch the cache";
        // Queries sharing a scan path may be served columns another
        // query built, so any warm-tier engagement counts.
        EXPECT_GT(build.tape_hits + build.tape_builds + build.columns_read,
                  0u)
            << what;
        EXPECT_GT(warm.tape_hits + warm.columns_read, 0u) << what;
        EXPECT_GT(tape.tape_hits, 0u) << what;
        EXPECT_EQ(tape.columns_read, 0u)
            << what << ": kTape must not read columns";
      }
    }
  }
}

// A cleared in-memory cache must rewarm from the sidecar files — the
// fresh-process persistence story.
TEST(StorageDifferentialTest, SidecarsSurviveInMemoryClear) {
  SensorDataSpec spec;
  spec.num_files = 3;
  spec.records_per_file = 6;
  spec.measurements_per_array = 5;
  spec.seed = 13;

  TempCollectionDir dir;
  Engine engine;
  RegisterSensorsOnDisk(&engine, &dir, spec);
  auto compiled = engine.Compile(jparbench::kQ1, RuleOptions::All());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExecOptions exec;
  exec.partitions = 2;

  RunResult cold = RunWith(engine, *compiled, exec, StorageMode::kOff);
  ASSERT_TRUE(cold.ok) << cold.message;
  StorageManager::Instance().Clear();
  RunResult build = RunWith(engine, *compiled, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold, build, "sidecar build run");

  // Simulate a fresh process: memory gone, sidecars remain. The tape
  // level rewarms from its .jtape sidecar (kTape keeps columns out of
  // the picture)...
  StorageManager::Instance().Clear();
  RunResult tape = RunWith(engine, *compiled, exec, StorageMode::kTape);
  ExpectSameAnswer(cold, tape, "sidecar tape rewarm run");
  if (!StorageCacheDisabledByEnv()) {
    // Stage 1 was not re-run: the tape loaded from its sidecar.
    EXPECT_GT(tape.tape_hits, 0u);
    EXPECT_EQ(tape.tape_builds, 0u);
  }

  // ...and the columnar level rewarms from its .jcol sidecars without
  // touching any JSON bytes.
  StorageManager::Instance().Clear();
  RunResult rewarm = RunWith(engine, *compiled, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold, rewarm, "sidecar columnar rewarm run");
  if (!StorageCacheDisabledByEnv()) {
    EXPECT_GT(rewarm.columns_read, 0u);
    EXPECT_EQ(rewarm.tape_builds, 0u);
  }
}

// ---------------------------------------------------------------------
// Dirty NDJSON: skip counts must survive every access path

constexpr const char* kDirtyQuery = R"(
  for $d in collection("/dirty")
  where $d("g") eq "a"
  return $d("v"))";

std::string DirtyNdjson(int base) {
  std::string text;
  for (int i = 0; i < 40; ++i) {
    if (i % 7 == 3) {
      text += "{\"v\": " + std::to_string(base + i) + ", \"g\": \"a\"";
      text += "\n";  // truncated record — parse error, skipped
    } else {
      text += "{\"v\": " + std::to_string(base + i) + ", \"g\": \"" +
              (i % 2 == 0 ? "a" : "b") + "\"}\n";
    }
  }
  return text;
}

TEST(StorageDifferentialTest, DirtyNdjsonSkipCountsAgree) {
  for (const StorageConfigCase& config : Configs()) {
    StorageManager::Instance().Clear();
    TempCollectionDir dir;
    Engine engine;
    Collection c;
    for (int f = 0; f < 3; ++f) {
      c.files.push_back(JsonFile::FromPath(
          dir.Write("dirty_" + std::to_string(f) + ".ndjson",
                    DirtyNdjson(f * 100))));
    }
    engine.catalog()->RegisterCollection("/dirty", std::move(c));
    auto compiled = engine.Compile(kDirtyQuery, RuleOptions::All());
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

    ExecOptions lenient = config.exec;
    lenient.on_parse_error = ParseErrorPolicy::kSkipAndCount;

    std::string what = std::string("dirty / ") + config.name;
    RunResult cold = RunWith(engine, *compiled, lenient, StorageMode::kOff);
    ASSERT_TRUE(cold.ok) << what << ": " << cold.message;
    ASSERT_GT(cold.skipped, 0u) << what;
    RunResult build = RunWith(engine, *compiled, lenient, StorageMode::kAuto);
    ExpectSameAnswer(cold, build, what + " (build)");
    RunResult warm = RunWith(engine, *compiled, lenient, StorageMode::kAuto);
    ExpectSameAnswer(cold, warm, what + " (warm)");

    // Strict mode must fail identically warm and cold: a column built
    // by a lenient scan records its skips, and strict queries refuse
    // it rather than silently dropping the malformed records.
    ExecOptions strict = config.exec;
    RunResult cold_strict =
        RunWith(engine, *compiled, strict, StorageMode::kOff);
    RunResult warm_strict =
        RunWith(engine, *compiled, strict, StorageMode::kAuto);
    ASSERT_FALSE(cold_strict.ok) << what;
    ASSERT_FALSE(warm_strict.ok) << what;
    EXPECT_EQ(static_cast<int>(cold_strict.code),
              static_cast<int>(warm_strict.code))
        << what;
  }
}

// ---------------------------------------------------------------------
// Stale caches: the file changed, the warm path must notice

std::string CleanNdjson(int records, int base) {
  std::string text;
  for (int i = 0; i < records; ++i) {
    text += "{\"v\": " + std::to_string(base + i) + ", \"g\": \"" +
            (i % 2 == 0 ? "a" : "b") + "\"}\n";
  }
  return text;
}

class StaleCacheTest : public ::testing::Test {
 protected:
  /// Warms every cache level over the initial file contents, applies
  /// `mutate`, and requires the next warm run to equal a cold run over
  /// the new contents.
  void CheckInvalidation(
      const std::function<void(TempCollectionDir*, const std::string&)>&
          mutate,
      const char* what) {
    StorageManager::Instance().Clear();
    TempCollectionDir dir;
    std::string path = dir.Write("data.ndjson", CleanNdjson(50, 0));
    Engine engine;
    Collection c;
    c.files.push_back(JsonFile::FromPath(path));
    engine.catalog()->RegisterCollection("/dirty", std::move(c));
    auto compiled = engine.Compile(kDirtyQuery, RuleOptions::All());
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    ExecOptions exec;
    exec.partitions = 2;

    // Warm both levels, twice so columns are read at least once.
    for (int i = 0; i < 2; ++i) {
      RunResult r = RunWith(engine, *compiled, exec, StorageMode::kAuto);
      ASSERT_TRUE(r.ok) << what << ": " << r.message;
    }

    mutate(&dir, path);

    RunResult cold = RunWith(engine, *compiled, exec, StorageMode::kOff);
    ASSERT_TRUE(cold.ok) << what << ": " << cold.message;
    RunResult warm = RunWith(engine, *compiled, exec, StorageMode::kAuto);
    ExpectSameAnswer(cold, warm, std::string(what) + " (post-mutation)");
    RunResult warm2 = RunWith(engine, *compiled, exec, StorageMode::kAuto);
    ExpectSameAnswer(cold, warm2, std::string(what) + " (rewarmed)");
  }
};

TEST_F(StaleCacheTest, TruncatedFileFallsBackCold) {
  CheckInvalidation(
      [](TempCollectionDir* dir, const std::string& path) {
        dir->Write("data.ndjson", CleanNdjson(20, 0));
        TempCollectionDir::BumpMtime(path, 3);
      },
      "truncated");
}

TEST_F(StaleCacheTest, AppendedFileFallsBackCold) {
  CheckInvalidation(
      [](TempCollectionDir* dir, const std::string& path) {
        dir->Write("data.ndjson", CleanNdjson(50, 0) + CleanNdjson(30, 500));
        TempCollectionDir::BumpMtime(path, 3);
      },
      "appended");
}

TEST_F(StaleCacheTest, SameSizeRewriteWithMtimeBumpFallsBackCold) {
  CheckInvalidation(
      [](TempCollectionDir* dir, const std::string& path) {
        // Same byte count, different values: only the mtime betrays it.
        std::string original = CleanNdjson(50, 0);
        std::string changed = CleanNdjson(50, 0);
        for (char& ch : changed) {
          if (ch == '1') ch = '2';
        }
        ASSERT_EQ(original.size(), changed.size());
        dir->Write("data.ndjson", changed);
        TempCollectionDir::BumpMtime(path, 3);
      },
      "same-size rewrite");
}

// ---------------------------------------------------------------------
// Sequential vs threaded schedules of the scan driver

/// Runs `exec` cold and then warm (storage and stats on) over three
/// fresh path-backed NDJSON files, the middle one holding one malformed
/// line. Fresh paths give every schedule the same empty cache state.
std::vector<RunResult> ColdThenWarm(const ExecOptions& exec) {
  StorageManager::Instance().Clear();
  TempCollectionDir dir;
  Engine engine;
  Collection c;
  for (int f = 0; f < 3; ++f) {
    std::string text = CleanNdjson(30, f * 100);
    if (f == 1) {
      text += "{\"v\": 999, \"g\": \"a\"\n";  // truncated record
      text += CleanNdjson(10, 150);
    }
    c.files.push_back(JsonFile::FromPath(
        dir.Write("parity_" + std::to_string(f) + ".ndjson", text)));
  }
  engine.catalog()->RegisterCollection("/dirty", std::move(c));
  auto compiled = engine.Compile(kDirtyQuery, RuleOptions::All());
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return {};
  return {RunWith(engine, *compiled, exec, StorageMode::kAuto),
          RunWith(engine, *compiled, exec, StorageMode::kAuto)};
}

// The sequential schedule (use_threads off) and the threaded one with
// file splitting off resolve the same access path for every file, so
// they must agree on every row and every scan counter, cold and warm.
TEST(StorageDifferentialTest, SequentialAndThreadedScansAgreeColdAndWarm) {
  ExecOptions seq;
  seq.partitions = 2;
  seq.storage_mode = StorageMode::kAuto;
  seq.stats_mode = StatsMode::kAuto;
  ExecOptions threaded = seq;
  threaded.use_threads = true;
  threaded.morsel_bytes = 0;

  for (ParseErrorPolicy policy :
       {ParseErrorPolicy::kSkipAndCount, ParseErrorPolicy::kFail}) {
    seq.on_parse_error = policy;
    threaded.on_parse_error = policy;
    const bool lenient = policy == ParseErrorPolicy::kSkipAndCount;
    std::vector<RunResult> want = ColdThenWarm(seq);
    std::vector<RunResult> got = ColdThenWarm(threaded);
    ASSERT_EQ(want.size(), 2u);
    ASSERT_EQ(got.size(), 2u);
    for (size_t run = 0; run < 2; ++run) {
      std::string what = std::string(lenient ? "lenient" : "strict") +
                         (run == 0 ? " cold" : " warm");
      const RunResult& w = want[run];
      const RunResult& g = got[run];
      ASSERT_EQ(w.ok, lenient) << what << ": " << w.message;
      ASSERT_EQ(g.ok, lenient) << what << ": " << g.message;
      EXPECT_EQ(static_cast<int>(g.code), static_cast<int>(w.code)) << what;
      if (!lenient) continue;
      EXPECT_EQ(g.rows, w.rows) << what;
      EXPECT_EQ(g.bytes_scanned, w.bytes_scanned) << what;
      EXPECT_EQ(g.items_scanned, w.items_scanned) << what;
      EXPECT_EQ(g.skipped, w.skipped) << what;
      EXPECT_EQ(g.tape_hits, w.tape_hits) << what;
      EXPECT_EQ(g.tape_builds, w.tape_builds) << what;
      EXPECT_EQ(g.columns_read, w.columns_read) << what;
      EXPECT_EQ(g.blocks_pruned, w.blocks_pruned) << what;
      EXPECT_EQ(g.stats_paths_built, w.stats_paths_built) << what;
    }
    if (lenient) {
      EXPECT_EQ(want[0].skipped, 1u);
      if (!StorageCacheDisabledByEnv()) {
        // Non-vacuous: the warm run really took the columnar path.
        EXPECT_GT(want[1].columns_read, 0u);
      }
      if (!StatsDisabledByEnv()) {
        EXPECT_GT(want[0].stats_paths_built, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Zone maps: pruned blocks must never change the answer

TEST(StorageDifferentialTest, ZoneMapPruningMatchesColdAnswer) {
  StorageManager::Instance().Clear();
  TempCollectionDir dir;
  Engine engine;
  Collection c;
  // Ascending values give tight per-block zone maps: a high threshold
  // provably excludes the early blocks (block size 512).
  for (int f = 0; f < 2; ++f) {
    std::string text;
    for (int i = 0; i < 1300; ++i) {
      text += "{\"v\": " + std::to_string(f * 10000 + i) + "}\n";
    }
    c.files.push_back(JsonFile::FromPath(
        dir.Write("zones_" + std::to_string(f) + ".ndjson", text)));
  }
  engine.catalog()->RegisterCollection("/zones", std::move(c));

  const char* query = R"(
    for $v in collection("/zones")("v")
    where $v gt 10600
    return $v)";
  auto compiled = engine.Compile(query, RuleOptions::All());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExecOptions exec;
  exec.partitions = 2;

  RunResult cold = RunWith(engine, *compiled, exec, StorageMode::kOff);
  ASSERT_TRUE(cold.ok) << cold.message;
  ASSERT_EQ(cold.rows.size(), 699u);  // 10601..11299 of file 1

  RunResult build = RunWith(engine, *compiled, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold, build, "zone build run");
  RunResult warm = RunWith(engine, *compiled, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold, warm, "zone warm run");
  if (!StorageCacheDisabledByEnv()) {
    EXPECT_GT(warm.columns_read, 0u);
    EXPECT_GT(warm.blocks_pruned, 0u)
        << "the high threshold must prune whole blocks";
  }

  // The mirrored predicate (constant on the left) prunes identically.
  const char* flipped = R"(
    for $v in collection("/zones")("v")
    where 10600 lt $v
    return $v)";
  auto compiled2 = engine.Compile(flipped, RuleOptions::All());
  ASSERT_TRUE(compiled2.ok()) << compiled2.status().ToString();
  RunResult cold2 = RunWith(engine, *compiled2, exec, StorageMode::kOff);
  RunResult warm2 = RunWith(engine, *compiled2, exec, StorageMode::kAuto);
  RunResult warm2b = RunWith(engine, *compiled2, exec, StorageMode::kAuto);
  ExpectSameAnswer(cold2, warm2, "flipped zone build");
  ExpectSameAnswer(cold2, warm2b, "flipped zone warm");
  ASSERT_EQ(cold2.rows, cold.rows);
}

// ---------------------------------------------------------------------
// Concurrency: many warm queries over one shared cache (TSan coverage)

TEST(StorageDifferentialTest, ConcurrentWarmQueriesShareTheCache) {
  SensorDataSpec spec;
  spec.num_files = 3;
  spec.records_per_file = 6;
  spec.measurements_per_array = 5;
  spec.seed = 29;

  StorageManager::Instance().Clear();
  TempCollectionDir dir;
  Engine engine;
  RegisterSensorsOnDisk(&engine, &dir, spec);
  auto compiled = engine.Compile(jparbench::kQ1, RuleOptions::All());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExecOptions exec;
  exec.partitions = 4;
  exec.use_threads = true;

  RunResult cold = RunWith(engine, *compiled, exec, StorageMode::kOff);
  ASSERT_TRUE(cold.ok) << cold.message;

  constexpr int kThreads = 6;
  std::vector<RunResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread races cache building on the first pass and cache
      // serving afterwards.
      results[t] = RunWith(engine, *compiled, exec, StorageMode::kAuto);
      results[t] = RunWith(engine, *compiled, exec, StorageMode::kAuto);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ExpectSameAnswer(cold, results[t],
                     "concurrent warm thread " + std::to_string(t));
  }
}

TEST(ColumnPayloadTest, ShortOrCorruptPayloadsAreCleanMisses) {
  ColumnBuilder builder(/*block_rows=*/4);
  for (int i = 0; i < 10; ++i) {
    builder.Add(i % 3 == 0 ? Item::Null() : Item::Int64(i));
  }
  std::string payload;
  AppendColumnPayload(builder.Finish(0), &payload);
  ColumnData column;
  ASSERT_TRUE(ParseColumnPayload(payload, &column));
  EXPECT_EQ(column.rows, 10u);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ParseColumnPayload(payload.substr(0, cut), &column)) << cut;
  }

  // A block header claiming 2^32 - 1 rows and a full-size null bitmap
  // (2^26 words), followed by no bitmap at all: a miss, decided before
  // the bitmap is sized.
  std::string short_sidecar;
  auto put = [&](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      short_sidecar.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put(0xFFFFFFFFu, 8);  // rows
  put(0, 8);            // skipped records
  put(1, 4);            // blocks
  put(0xFFFFFFFFu, 4);  // block rows
  short_sidecar.push_back(0);  // not prunable
  put(0, 8);                   // min
  put(0, 8);                   // max
  put(uint64_t{1} << 26, 4);   // null-bitmap words
  EXPECT_FALSE(ParseColumnPayload(short_sidecar, &column));
  EXPECT_TRUE(column.blocks.empty());
}

}  // namespace
}  // namespace jpar
