// Threaded-vs-sequential differential suite for the blocking operators
// (DESIGN.md §6, §10): with ExecOptions::use_threads the exchange
// senders and receivers, the group-by and join partitions and the
// sort's per-partition phase run as parallel tasks. Everything a query
// reports must be the same as when those tasks run one after another:
// the items in emitted order, each stage's exchange counters, the
// tracked peak, the spill activity, the error code of a failing query,
// and the cleanup of spill files when a query is cancelled.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/queries.h"
#include "core/engine.h"
#include "data/sensor_generator.h"
#include "runtime/query_context.h"

namespace jpar {
namespace {

namespace fs = std::filesystem;

constexpr const char* kOrderByQuery = R"(
  for $r in collection("/sensors")("root")()("results")()
  order by $r("date"), $r("station") descending
  return $r)";

struct NamedQuery {
  const char* name;
  const char* text;
};

constexpr NamedQuery kQueries[] = {
    {"Q1", jparbench::kQ1},
    {"Q2", jparbench::kQ2},
    {"order-by", kOrderByQuery},
};

Collection SensorData(int records_per_file) {
  SensorDataSpec spec;
  spec.num_files = 4;
  spec.records_per_file = records_per_file;
  spec.measurements_per_array = 30;
  spec.num_stations = 6;  // few stations => the self-join finds pairs
  spec.start_year = 2003;
  spec.end_year = 2003;  // one year => dates repeat across groups
  spec.seed = 13;
  return GenerateSensorCollection(spec);
}

// A fresh, empty spill directory per test.
std::string SpillDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/jpar_blocking_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

ExecOptions Options(int partitions, bool threads, bool spill,
                    const std::string& spill_dir) {
  ExecOptions exec;
  exec.partitions = partitions;
  exec.use_threads = threads;
  exec.frame_bytes = 256;  // several frames per stream, some oversized
  if (spill) {
    exec.spill = SpillMode::kEnabled;
    exec.memory_limit_bytes = 4096;
    exec.spill_dir = spill_dir;
  }
  return exec;
}

// Two files whose "k" values are numbers in one and strings in the
// other: each scan partition alone is comparable, the union is not.
Collection MixedKeys() {
  Collection c;
  c.files.push_back(JsonFile::FromText("{\"k\": 1}\n{\"k\": 2}\n"));
  c.files.push_back(JsonFile::FromText("{\"k\": \"a\"}\n{\"k\": \"b\"}\n"));
  return c;
}

class Runner {
 public:
  explicit Runner(int records_per_file = 16) {
    engine_.catalog()->RegisterCollection("/sensors",
                                          SensorData(records_per_file));
    engine_.catalog()->RegisterCollection("/mixed", MixedKeys());
  }

  Result<QueryOutput> Run(const char* query, const ExecOptions& exec,
                          QueryContext* ctx = nullptr) const {
    JPAR_ASSIGN_OR_RETURN(CompiledQuery compiled, engine_.Compile(query));
    return engine_.Execute(compiled, exec, ctx);
  }

 private:
  Engine engine_;
};

std::vector<std::string> Rows(const QueryOutput& out) {
  std::vector<std::string> rows;
  for (const Item& i : out.items) rows.push_back(i.ToJsonString());
  return rows;
}

// Each stage's name and exchange counters, in stage order.
std::vector<std::string> ExchangeCounters(const QueryOutput& out) {
  std::vector<std::string> stages;
  for (const StageStats& s : out.stats.stages) {
    stages.push_back(s.name + " bytes=" + std::to_string(s.exchange_bytes) +
                     " frames=" + std::to_string(s.exchange_frames) +
                     " tuples=" + std::to_string(s.exchange_tuples) +
                     " oversized=" + std::to_string(s.oversized_frames));
  }
  return stages;
}

TEST(ThreadedBlockingStagesMatchSequential, AnswersAndCounters) {
  const std::string spill_dir = SpillDir("counters");
  Runner runner;
  bool exchanged = false;
  bool spilled = false;
  for (const NamedQuery& q : kQueries) {
    for (int partitions : {2, 4}) {
      for (bool spill : {false, true}) {
        SCOPED_TRACE(std::string(q.name) + " p=" +
                     std::to_string(partitions) +
                     (spill ? " spill" : " in-memory"));
        auto sequential =
            runner.Run(q.text, Options(partitions, false, spill, spill_dir));
        ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
        auto threaded =
            runner.Run(q.text, Options(partitions, true, spill, spill_dir));
        ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();

        EXPECT_FALSE(sequential->items.empty());
        EXPECT_EQ(Rows(*threaded), Rows(*sequential));  // emitted order
        EXPECT_EQ(ExchangeCounters(*threaded), ExchangeCounters(*sequential));
        const ExecStats& a = threaded->stats;
        const ExecStats& b = sequential->stats;
        EXPECT_EQ(a.peak_retained_bytes, b.peak_retained_bytes);
        EXPECT_EQ(a.spill_runs, b.spill_runs);
        EXPECT_EQ(a.spill_bytes_written, b.spill_bytes_written);
        EXPECT_EQ(a.spill_merge_passes, b.spill_merge_passes);
        for (const StageStats& s : b.stages) {
          if (s.exchange_frames > 0) exchanged = true;
        }
        if (b.spill_runs > 0) spilled = true;
        EXPECT_TRUE(fs::is_empty(spill_dir));
      }
    }
  }
  // The comparison is not vacuous: frames crossed exchanges and the
  // tiny budget made operators spill.
  EXPECT_TRUE(exchanged);
  EXPECT_TRUE(spilled);
  fs::remove_all(spill_dir);
}

TEST(ThreadedBlockingStagesMatchSequential, FailuresKeepTheirCode) {
  Runner runner;
  for (int partitions : {2, 4}) {
    SCOPED_TRACE("p=" + std::to_string(partitions));
    // A hard limit far below one partition's build side fails the join.
    StatusCode codes[2];
    for (bool threads : {false, true}) {
      ExecOptions exec = Options(partitions, threads, false, "");
      exec.memory_limit_bytes = 2048;
      auto out = runner.Run(jparbench::kQ2, exec);
      ASSERT_FALSE(out.ok());
      codes[threads] = out.status().code();
      EXPECT_NE(out.status().ToString().find("memory limit"),
                std::string::npos)
          << out.status().ToString();
    }
    EXPECT_EQ(codes[1], codes[0]);
    EXPECT_EQ(codes[0], StatusCode::kResourceExhausted);

    // Sort keys that are comparable within each partition but not
    // across partitions fail the sort.
    for (bool threads : {false, true}) {
      auto out = runner.Run(
          R"(for $d in collection("/mixed") order by $d("k") return $d)",
          Options(partitions, threads, false, ""));
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(out.status().code(), StatusCode::kTypeError)
          << out.status().ToString();
    }

    // An armed alloc.fail fails the group-by (Q1) and the join (Q2).
    for (const char* query : {jparbench::kQ1, jparbench::kQ2}) {
      for (bool threads : {false, true}) {
        FaultInjector faults;
        faults.ArmAfter(FaultInjector::kAllocFail, 3,
                        Status::IOError("injected: allocation failed"));
        QueryContext ctx;
        ctx.set_fault_injector(&faults);
        auto out = runner.Run(query, Options(partitions, threads, false, ""),
                              &ctx);
        ASSERT_FALSE(out.ok());
        EXPECT_EQ(out.status().code(), StatusCode::kIOError)
            << out.status().ToString();
        EXPECT_EQ(faults.injected_count(FaultInjector::kAllocFail), 1u);
      }
    }
  }
}

// Cancels Q1 while a group-by task is held at `stall_point`: inside its
// first group (alloc.fail), or inside its first spill flush
// (spill.io_error, hit as each bucket's run file is created, so after
// two hits the first run exists). Every partition holds well over
// kCheckIntervalTuples input tuples, so the stalled task sees the
// cancel at its next poll, still inside the group-by and with its runs
// on disk; they must be gone once the query returns.
TEST(ThreadedBlockingStagesMatchSequential, CancelMidGroupByLeavesNoSpillFiles) {
  const std::string spill_dir = SpillDir("cancel");
  Runner runner(/*records_per_file=*/64);
  for (int partitions : {2, 4}) {
    for (bool threads : {false, true}) {
      for (bool spill : {false, true}) {
        SCOPED_TRACE("p=" + std::to_string(partitions) +
                     (threads ? " threads" : " sequential") +
                     (spill ? " spill" : " in-memory"));
        const std::string_view stall_point =
            spill ? FaultInjector::kSpillIOError : FaultInjector::kAllocFail;
        const uint64_t hits_before_cancel = spill ? 2 : 1;
        FaultInjector faults;
        faults.ArmStall(stall_point, 100);
        auto token = std::make_shared<CancellationToken>();
        QueryContext ctx;
        ctx.set_fault_injector(&faults);
        ctx.set_cancellation(token);
        Result<QueryOutput> out = Status::Internal("query did not run");
        std::thread query([&] {
          out = runner.Run(jparbench::kQ1,
                           Options(partitions, threads, spill, spill_dir),
                           &ctx);
        });
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (faults.hit_count(stall_point) < hits_before_cancel &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        token->Cancel();
        faults.Disarm(stall_point);
        query.join();
        EXPECT_GE(faults.hit_count(stall_point), hits_before_cancel);
        ASSERT_FALSE(out.ok());
        EXPECT_EQ(out.status().code(), StatusCode::kCancelled)
            << out.status().ToString();
        EXPECT_NE(out.status().ToString().find("group-by"), std::string::npos)
            << out.status().ToString();
        EXPECT_TRUE(fs::is_empty(spill_dir));
      }
    }
  }
  fs::remove_all(spill_dir);
}

}  // namespace
}  // namespace jpar
