// End-to-end distributed execution: real worker processes spawned over
// socketpairs, the paper's five evaluation queries, and the core
// equivalence claim — a distributed run over W workers returns exactly
// the rows, in exactly the order, of an in-process run with
// partitions = W.

#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/sensor_generator.h"
#include "dist/dispatcher.h"
#include "service/query_service.h"
#include "stats/collection_stats.h"

#ifndef JPAR_WORKER_BIN_PATH
#error "build must define JPAR_WORKER_BIN_PATH (see tests/CMakeLists.txt)"
#endif

namespace jpar {
namespace {

constexpr const char* kQ0 = R"(
  for $r in collection("/sensors")("root")()("results")()
  let $datetime := dateTime(data($r("date")))
  where year-from-dateTime($datetime) ge 2003
    and month-from-dateTime($datetime) eq 12
    and day-from-dateTime($datetime) eq 25
  return $r)";

constexpr const char* kQ0b = R"(
  for $r in collection("/sensors")("root")()("results")()("date")
  let $datetime := dateTime(data($r))
  where year-from-dateTime($datetime) ge 2003
    and month-from-dateTime($datetime) eq 12
    and day-from-dateTime($datetime) eq 25
  return $r)";

constexpr const char* kQ1 = R"(
  for $r in collection("/sensors")("root")()("results")()
  where $r("dataType") eq "TMIN"
  group by $date := $r("date")
  return count($r("station")))";

constexpr const char* kQ1b = R"(
  for $r in collection("/sensors")("root")()("results")()
  where $r("dataType") eq "TMIN"
  group by $date := $r("date")
  return count(for $i in $r return $i("station")))";

constexpr const char* kQ2 = R"(
  avg(
    for $r_min in collection("/sensors")("root")()("results")()
    for $r_max in collection("/sensors")("root")()("results")()
    where $r_min("station") eq $r_max("station")
      and $r_min("date") eq $r_max("date")
      and $r_min("dataType") eq "TMIN"
      and $r_max("dataType") eq "TMAX"
    return $r_max("value") - $r_min("value")
  ) div 10)";

constexpr const char* kAllQueries[] = {kQ0, kQ0b, kQ1, kQ1b, kQ2};

Collection MakeData(uint64_t seed = 7) {
  SensorDataSpec spec;
  spec.num_files = 5;  // more files than the widest cluster
  spec.records_per_file = 8;
  spec.measurements_per_array = 16;
  spec.num_stations = 6;
  spec.seed = seed;
  return GenerateSensorCollection(spec);
}

DistOptions MakeDist(int workers) {
  DistOptions dist;
  dist.local_workers = workers;
  dist.worker_binary = JPAR_WORKER_BIN_PATH;
  return dist;
}

std::vector<std::string> Rows(const QueryOutput& output) {
  std::vector<std::string> rows;
  for (const Item& item : output.items) rows.push_back(item.ToJsonString());
  return rows;
}

TEST(DistExecTest, PaperQueriesByteIdenticalAcrossWorkerCounts) {
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EngineOptions options;
    options.rules = RuleOptions::All();
    options.exec.partitions = workers;
    Engine engine(options);
    engine.catalog()->RegisterCollection("/sensors", MakeData());

    Cluster cluster(MakeDist(workers));
    for (const char* query : kAllQueries) {
      SCOPED_TRACE(query);
      auto compiled = engine.Compile(query, options.rules);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      ASSERT_TRUE(Cluster::CanDistribute(compiled->physical));

      auto local = engine.Execute(*compiled, options.exec);
      ASSERT_TRUE(local.ok()) << local.status().ToString();

      auto dist = cluster.Run(query, options.rules, options.exec, *compiled,
                              *engine.catalog(), nullptr);
      ASSERT_TRUE(dist.ok()) << dist.status().ToString();

      // Exact order, not just set equality: the star-topology routing
      // preserves the in-process exchange's source-rank order.
      EXPECT_EQ(Rows(*dist), Rows(*local));
      EXPECT_EQ(dist->stats.dist_workers, static_cast<uint64_t>(workers));
      EXPECT_EQ(dist->stats.result_rows, dist->items.size());
      EXPECT_GE(dist->stats.dist_rounds, 1u);
    }
    cluster.Stop();
  }
}

TEST(DistExecTest, DistributedBytecodeMatchesInProcessTreeRuns) {
  // The vectorized-execution equivalence claim (DESIGN.md §13) across
  // the wire: a distributed run with compiled expression bytecode must
  // stay byte-identical to an in-process legacy tuple-at-a-time run.
  // expr_mode travels in the fragment request, so the workers really
  // execute the batch path while the baseline really interprets trees.
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EngineOptions tree_options;
    tree_options.rules = RuleOptions::All();
    tree_options.exec.partitions = workers;
    tree_options.exec.expr_mode = ExprMode::kTree;
    Engine tree_engine(tree_options);
    tree_engine.catalog()->RegisterCollection("/sensors", MakeData());

    EngineOptions bc_options = tree_options;
    bc_options.exec.expr_mode = ExprMode::kBytecode;
    Engine bc_engine(bc_options);
    bc_engine.catalog()->RegisterCollection("/sensors", MakeData());

    Cluster cluster(MakeDist(workers));
    for (const char* query : kAllQueries) {
      SCOPED_TRACE(query);
      auto tree = tree_engine.Run(query);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      EXPECT_EQ(tree->stats.exprs_compiled, 0u);

      auto compiled = bc_engine.Compile(query, bc_options.rules);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      auto dist = cluster.Run(query, bc_options.rules, bc_options.exec,
                              *compiled, *bc_engine.catalog(), nullptr);
      ASSERT_TRUE(dist.ok()) << dist.status().ToString();

      EXPECT_EQ(Rows(*dist), Rows(*tree));
      EXPECT_EQ(dist->stats.dist_workers, static_cast<uint64_t>(workers));
      EXPECT_EQ(dist->stats.result_rows, dist->items.size());
    }
    cluster.Stop();
  }
}

TEST(DistExecTest, CatalogChangesResyncToWorkers) {
  EngineOptions options;
  options.rules = RuleOptions::All();
  options.exec.partitions = 2;
  Engine engine(options);
  engine.catalog()->RegisterCollection("/sensors", MakeData(/*seed=*/1));

  Cluster cluster(MakeDist(2));
  // A full-scan query whose row count tracks the registered data
  // (count(collection(...)) itself reads the source from an expression
  // and is not distributable).
  const char* count_query = R"(
    for $r in collection("/sensors")("root")()("results")()
    return $r("value"))";
  auto run_count = [&](const char* query) -> int64_t {
    auto compiled = engine.Compile(query, options.rules);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled.ok()) return -1;
    auto out = cluster.Run(query, options.rules, options.exec, *compiled,
                           *engine.catalog(), nullptr);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (!out.ok()) return -1;
    return static_cast<int64_t>(out->items.size());
  };

  int64_t before = run_count(count_query);
  EXPECT_GT(before, 0);

  // Re-register with more data: the catalog version bumps and the
  // next query must reach workers holding the new snapshot.
  SensorDataSpec bigger;
  bigger.num_files = 8;
  bigger.records_per_file = 8;
  bigger.measurements_per_array = 16;
  bigger.num_stations = 6;
  bigger.seed = 2;
  engine.catalog()->RegisterCollection("/sensors",
                                       GenerateSensorCollection(bigger));
  int64_t after = run_count(count_query);
  EXPECT_GT(after, before);
  cluster.Stop();
}

TEST(DistExecTest, UnsupportedPlansReportedNotMisrun) {
  Engine engine;
  auto compiled = engine.Compile("1 + 1", RuleOptions::All());
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE(Cluster::CanDistribute(compiled->physical));

  Cluster cluster(MakeDist(1));
  auto out = cluster.Run("1 + 1", RuleOptions::All(), ExecOptions(),
                         *compiled, *engine.catalog(), nullptr);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsupported);
  cluster.Stop();
}

TEST(DistExecTest, ServiceRoutesDistributableQueriesToCluster) {
  ServiceOptions options;
  options.engine.rules = RuleOptions::All();
  options.engine.exec.partitions = 2;
  options.dist = MakeDist(2);
  QueryService service(options);
  service.catalog()->RegisterCollection("/sensors", MakeData());

  // Reference rows from a plain in-process engine with the same setup.
  EngineOptions ref_options = options.engine;
  Engine reference(ref_options);
  reference.catalog()->RegisterCollection("/sensors", MakeData());

  auto session = service.CreateSession();
  for (const char* query : {kQ0, kQ1}) {
    SCOPED_TRACE(query);
    QueryTicket ticket = session->Submit(query);
    ASSERT_TRUE(ticket.status().ok()) << ticket.status().ToString();
    auto expected = reference.Run(query);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(Rows(ticket.output()), Rows(*expected));
    EXPECT_GT(ticket.output().stats.dist_workers, 0u);
  }

  // A constant expression cannot distribute; the service falls back
  // in-process and counts it.
  QueryTicket constant = session->Submit("1 + 1");
  ASSERT_TRUE(constant.status().ok()) << constant.status().ToString();
  EXPECT_EQ(constant.output().stats.dist_workers, 0u);

  service.Drain();
  ServiceMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.distributed, 2u);
  EXPECT_EQ(metrics.dist_fallbacks, 1u);
}

TEST(DistExecTest, RepeatedMultiStageRunsDoNotWedge) {
  // Regression: the dispatcher used to poison a worker's send window
  // *after* releasing the round lock when its output EOF arrived. A
  // descheduled reader could then land the poison on the *next*
  // round's freshly reset window, silently killing that round's
  // sender — the worker waited forever for inputs while heartbeats
  // kept it "alive". Back-to-back multi-stage (join) runs hammer the
  // inter-round boundary; the deadline turns any recurrence into a
  // clean kDeadlineExceeded failure instead of a hung test.
  EngineOptions options;
  options.rules = RuleOptions::All();
  options.exec.partitions = 2;
  Engine engine(options);
  engine.catalog()->RegisterCollection("/sensors", MakeData());

  Cluster cluster(MakeDist(2));
  auto compiled = engine.Compile(kQ2, options.rules);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto local = engine.Execute(*compiled, options.exec);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  const std::vector<std::string> expected = Rows(*local);

  for (int rep = 0; rep < 25; ++rep) {
    SCOPED_TRACE("rep=" + std::to_string(rep));
    QueryContext ctx;
    ctx.set_deadline_after_ms(20000);
    auto dist = cluster.Run(kQ2, options.rules, options.exec, *compiled,
                            *engine.catalog(), &ctx);
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    EXPECT_EQ(Rows(*dist), expected);
  }
  cluster.Stop();
}

TEST(DistExecTest, RuleConfigurationsAgreeUnderDistribution) {
  // The no-two-step configuration shuffles raw tuples instead of
  // partials; both must produce the single-process answer.
  RuleOptions no_two_step = RuleOptions::All();
  no_two_step.two_step_aggregation = false;
  for (const RuleOptions& rules : {RuleOptions::All(), no_two_step}) {
    EngineOptions options;
    options.rules = rules;
    options.exec.partitions = 3;
    Engine engine(options);
    engine.catalog()->RegisterCollection("/sensors", MakeData());

    Cluster cluster(MakeDist(3));
    auto compiled = engine.Compile(kQ1, rules);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto local = engine.Execute(*compiled, options.exec);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    auto dist = cluster.Run(kQ1, rules, options.exec, *compiled,
                            *engine.catalog(), nullptr);
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    EXPECT_EQ(Rows(*dist), Rows(*local));
    cluster.Stop();
  }
}

TEST(DistExecTest, StatsOnDistributedMatchesStatsOffInProcess) {
  // Cost-model differential across the wire (DESIGN.md §15): workers
  // recompile fragments against their own — possibly divergent — local
  // statistics, and stats_mode travels in the fragment request. A
  // stats-on distributed run must still return exactly the rows of a
  // stats-off in-process run. The corpus lives on disk so both the
  // coordinator and the workers genuinely sample it and share .jstats
  // sidecars.
  std::string tmpl = ::testing::TempDir() + "/jpar_dist_stats_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* made = ::mkdtemp(buf.data());
  ASSERT_NE(made, nullptr);
  const std::string dir = made;

  SensorDataSpec spec;
  spec.num_files = 5;
  spec.records_per_file = 8;
  spec.measurements_per_array = 16;
  spec.num_stations = 6;
  spec.seed = 7;
  Collection disk;
  for (int f = 0; f < spec.num_files; ++f) {
    std::string path = dir + "/sensors_" + std::to_string(f) + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << GenerateSensorFile(spec, f);
    out.close();
    disk.files.push_back(JsonFile::FromPath(path));
  }

  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    StatsStore::Instance().Clear();

    EngineOptions options;
    options.rules = RuleOptions::All();
    options.exec.partitions = workers;
    Engine engine(options);
    engine.catalog()->RegisterCollection("/sensors", disk);

    ExecOptions off_exec = options.exec;
    off_exec.stats_mode = StatsMode::kOff;

    Cluster cluster(MakeDist(workers));
    for (const char* query : kAllQueries) {
      SCOPED_TRACE(query);
      auto off_compiled = engine.Compile(query, options.rules, off_exec);
      ASSERT_TRUE(off_compiled.ok()) << off_compiled.status().ToString();
      auto off_local = engine.Execute(*off_compiled, off_exec);
      ASSERT_TRUE(off_local.ok()) << off_local.status().ToString();

      for (StatsMode mode : {StatsMode::kAuto, StatsMode::kForced}) {
        ExecOptions on_exec = options.exec;
        on_exec.stats_mode = mode;
        // An in-process warm-up builds the sidecars the workers will
        // load; the second compile then actually costs from them.
        auto warm = engine.Compile(query, options.rules, on_exec);
        ASSERT_TRUE(warm.ok()) << warm.status().ToString();
        ASSERT_TRUE(engine.Execute(*warm, on_exec).ok());

        auto on_compiled = engine.Compile(query, options.rules, on_exec);
        ASSERT_TRUE(on_compiled.ok()) << on_compiled.status().ToString();
        ASSERT_TRUE(Cluster::CanDistribute(on_compiled->physical));
        auto dist = cluster.Run(query, options.rules, on_exec, *on_compiled,
                                *engine.catalog(), nullptr);
        ASSERT_TRUE(dist.ok()) << dist.status().ToString();
        EXPECT_EQ(Rows(*dist), Rows(*off_local))
            << "stats mode " << static_cast<int>(mode);
        EXPECT_EQ(dist->stats.dist_workers, static_cast<uint64_t>(workers));
        EXPECT_EQ(dist->stats.result_rows, dist->items.size());
      }
    }
    cluster.Stop();
  }

  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace jpar
