#include "json/projecting_reader.h"

#include <gtest/gtest.h>

#include "json/parser.h"

namespace jpar {
namespace {

constexpr const char* kDoc = R"({
  "root": [
    {"metadata": {"count": 2},
     "results": [
       {"date": "20131225T00:00", "value": 1},
       {"date": "20140101T00:00", "value": 2}
     ]},
    {"metadata": {"count": 1},
     "results": [
       {"date": "20140202T00:00", "value": 3}
     ]}
  ],
  "ignored": {"huge": [1,2,3,4,5]}
})";

std::vector<Item> Project(std::string_view doc,
                          std::vector<PathStep> steps) {
  std::vector<Item> out;
  Status st = ProjectJson(doc, steps, [&](Item item) {
    out.push_back(std::move(item));
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(ProjectingReaderTest, EmptyPathEmitsWholeDocument) {
  std::vector<Item> items = Project(kDoc, {});
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(items[0].Equals(*ParseJson(kDoc)));
}

TEST(ProjectingReaderTest, KeyStep) {
  std::vector<Item> items = Project(kDoc, {PathStep::Key("root")});
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(items[0].is_array());
  EXPECT_EQ(items[0].array().size(), 2u);
}

TEST(ProjectingReaderTest, MissingKeyEmitsNothing) {
  EXPECT_TRUE(Project(kDoc, {PathStep::Key("nope")}).empty());
  EXPECT_TRUE(
      Project(kDoc, {PathStep::Key("root"), PathStep::Key("x")}).empty());
}

TEST(ProjectingReaderTest, MembersOfArray) {
  std::vector<Item> items =
      Project(kDoc, {PathStep::Key("root"), PathStep::KeysOrMembers()});
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(*items[0].GetField("metadata")->GetField("count"),
            Item::Int64(2));
}

TEST(ProjectingReaderTest, DeepPathToDates) {
  std::vector<Item> items = Project(
      kDoc, {PathStep::Key("root"), PathStep::KeysOrMembers(),
             PathStep::Key("results"), PathStep::KeysOrMembers(),
             PathStep::Key("date")});
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], Item::String("20131225T00:00"));
  EXPECT_EQ(items[2], Item::String("20140202T00:00"));
}

TEST(ProjectingReaderTest, IndexStepIsOneBased) {
  std::vector<Item> items =
      Project(kDoc, {PathStep::Key("root"), PathStep::Index(2),
                     PathStep::Key("metadata"), PathStep::Key("count")});
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0], Item::Int64(1));
  EXPECT_TRUE(Project(kDoc, {PathStep::Key("root"), PathStep::Index(0)})
                  .empty());
  EXPECT_TRUE(Project(kDoc, {PathStep::Key("root"), PathStep::Index(3)})
                  .empty());
}

TEST(ProjectingReaderTest, KeysOfObject) {
  std::vector<Item> items = Project(kDoc, {PathStep::KeysOrMembers()});
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], Item::String("root"));
  EXPECT_EQ(items[1], Item::String("ignored"));
}

TEST(ProjectingReaderTest, KeysOrMembersOnAtomicSelectsNothing) {
  EXPECT_TRUE(Project(R"({"a": 5})",
                      {PathStep::Key("a"), PathStep::KeysOrMembers()})
                  .empty());
}

TEST(ProjectingReaderTest, StatsCountScannedAndMaterialized) {
  ProjectionStats stats;
  Status st = ProjectJson(
      kDoc,
      {PathStep::Key("root"), PathStep::KeysOrMembers(),
       PathStep::Key("results"), PathStep::KeysOrMembers(),
       PathStep::Key("date")},
      [](Item) { return Status::OK(); }, &stats);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(stats.items_emitted, 3u);
  EXPECT_EQ(stats.bytes_scanned, std::string_view(kDoc).size());
  // Projection materializes far less than the document.
  EXPECT_LT(stats.bytes_materialized, stats.bytes_scanned / 2);
}

TEST(ProjectingReaderTest, SinkErrorsPropagate) {
  Status st = ProjectJson(kDoc, {PathStep::KeysOrMembers()},
                          [](Item) { return Status::Internal("stop"); });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(ProjectingReaderTest, MalformedDocumentsFail) {
  for (const char* bad : {"{", R"({"root": [)", R"({"root" [1]})"}) {
    Status st = ProjectJson(bad, {PathStep::Key("root")},
                            [](Item) { return Status::OK(); });
    EXPECT_FALSE(st.ok()) << bad;
  }
}

TEST(ProjectingReaderTest, AgreesWithDomNavigation) {
  // Property: for every path, streaming projection over the text equals
  // DOM navigation over the parsed item.
  std::vector<std::vector<PathStep>> paths = {
      {},
      {PathStep::Key("root")},
      {PathStep::Key("root"), PathStep::KeysOrMembers()},
      {PathStep::Key("root"), PathStep::KeysOrMembers(),
       PathStep::Key("metadata")},
      {PathStep::Key("root"), PathStep::KeysOrMembers(),
       PathStep::Key("results"), PathStep::KeysOrMembers()},
      {PathStep::Key("root"), PathStep::KeysOrMembers(),
       PathStep::Key("results"), PathStep::KeysOrMembers(),
       PathStep::Key("value")},
      {PathStep::Key("root"), PathStep::Index(1), PathStep::Key("results"),
       PathStep::Index(2), PathStep::Key("date")},
      {PathStep::KeysOrMembers()},
      {PathStep::Key("ignored"), PathStep::KeysOrMembers()},
  };
  Item doc = *ParseJson(kDoc);
  for (const auto& path : paths) {
    std::vector<Item> streamed = Project(kDoc, path);
    std::vector<Item> navigated;
    Status st = NavigateItemPath(doc, path, 0, [&](Item item) {
      navigated.push_back(std::move(item));
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(streamed.size(), navigated.size()) << PathToString(path);
    for (size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_TRUE(streamed[i].Equals(navigated[i])) << PathToString(path);
    }
  }
}

// ---------------------------------------------------------------------
// Degraded-scan mode: ProjectJsonStream with a skipped_records counter.
// ---------------------------------------------------------------------

struct LenientRun {
  Status status;
  std::vector<Item> items;
  uint64_t skipped = 0;
};

LenientRun StreamLenient(std::string_view text, std::vector<PathStep> steps) {
  LenientRun run;
  run.status = ProjectJsonStream(
      text, steps,
      [&](Item item) {
        run.items.push_back(std::move(item));
        return Status::OK();
      },
      /*stats=*/nullptr, &run.skipped);
  return run;
}

TEST(DegradedScanTest, StrictModeFailsOnMalformedRecord) {
  const char* ndjson = "{\"v\": 1}\nnot json at all\n{\"v\": 3}\n";
  Status st = ProjectJsonStream(ndjson, {PathStep::Key("v")},
                                [](Item) { return Status::OK(); });
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(DegradedScanTest, LenientModeSkipsAndCounts) {
  const char* ndjson = "{\"v\": 1}\nnot json at all\n{\"v\": 3}\n";
  LenientRun run = StreamLenient(ndjson, {PathStep::Key("v")});
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.items.size(), 2u);
  EXPECT_EQ(run.items[0], Item::Int64(1));
  EXPECT_EQ(run.items[1], Item::Int64(3));
  EXPECT_EQ(run.skipped, 1u);
}

TEST(DegradedScanTest, MultipleBadLinesEachCountOnce) {
  const char* ndjson =
      "{\"v\": 1}\n{broken\n{\"v\": 2}\n}also broken{\n{\"v\": 3}\n";
  LenientRun run = StreamLenient(ndjson, {PathStep::Key("v")});
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.items.size(), 3u);
  EXPECT_EQ(run.skipped, 2u);
}

TEST(DegradedScanTest, BadFinalLineWithoutNewlineStopsCleanly) {
  // No newline to resynchronize at: the stream ends after counting the
  // bad record instead of spinning.
  const char* ndjson = "{\"v\": 1}\n{truncated";
  LenientRun run = StreamLenient(ndjson, {PathStep::Key("v")});
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.items.size(), 1u);
  EXPECT_EQ(run.skipped, 1u);
}

TEST(DegradedScanTest, AllRecordsBadYieldsEmptyStream) {
  LenientRun run = StreamLenient("nope\nstill nope\n", {PathStep::Key("v")});
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_TRUE(run.items.empty());
  EXPECT_EQ(run.skipped, 2u);
}

TEST(DegradedScanTest, CleanStreamSkipsNothing) {
  LenientRun run =
      StreamLenient("{\"v\": 1}\n{\"v\": 2}\n", {PathStep::Key("v")});
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.items.size(), 2u);
  EXPECT_EQ(run.skipped, 0u);
}

TEST(DegradedScanTest, NonParseSinkErrorsStillAbort) {
  // Lenient mode only forgives kParseError; a failing sink (e.g. a
  // cancelled or out-of-memory downstream) aborts the stream.
  uint64_t skipped = 0;
  int calls = 0;
  Status st = ProjectJsonStream(
      "{\"v\": 1}\n{\"v\": 2}\n", {PathStep::Key("v")},
      [&](Item) {
        ++calls;
        return Status::ResourceExhausted("sink full");
      },
      nullptr, &skipped);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(skipped, 0u);
}

TEST(DegradedScanTest, RecordFailingMidObjectLeavesNextRecordIntact) {
  // The second record dies inside nested objects and arrays of objects,
  // with fields and members on the parse scratch; the third record's
  // object must carry exactly its own fields, in both scan modes.
  const char* ndjson =
      "{\"r\": {\"a\": 1, \"b\": [{\"c\": 2}]}}\n"
      "{\"r\": {\"x\": 1, \"y\": {\"z\": [1, {\"w\": 3}, {\"v\": }]}}}\n"
      "{\"r\": {\"c\": 3}}\n";
  for (ScanMode mode : {ScanMode::kScalar, ScanMode::kIndexed}) {
    std::vector<Item> items;
    uint64_t skipped = 0;
    Status st = ProjectJsonStream(
        ndjson, {PathStep::Key("r")},
        [&](Item item) {
          items.push_back(std::move(item));
          return Status::OK();
        },
        nullptr, &skipped, mode);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(skipped, 1u);
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].ToJsonString(), R"({"a":1,"b":[{"c":2}]})");
    ASSERT_TRUE(items[1].is_object());
    EXPECT_EQ(items[1].object().size(), 1u);
    EXPECT_EQ(items[1].ToJsonString(), R"({"c":3})");
  }
}

TEST(ProjectingReaderTest, NestedObjectsAndDuplicateKeysMatchDom) {
  // Emitted records hold objects inside arrays inside objects, and a
  // duplicated key; both scan modes must build what the DOM parser does.
  const char* ndjson =
      "{\"root\": [{\"k\": 1, \"m\": [{\"n\": {\"o\": [1, {\"p\": 2}]}}],"
      " \"k\": 2}, {\"q\": []}]}\n"
      "{\"root\": [{\"s\": {\"t\": [{}, [{\"u\": 3}]]}}]}\n";
  std::vector<PathStep> steps = {PathStep::Key("root"),
                                 PathStep::KeysOrMembers()};
  auto docs = ParseJsonStream(ndjson);
  ASSERT_TRUE(docs.ok()) << docs.status().ToString();
  std::vector<Item> expected;
  for (const Item& doc : *docs) {
    ASSERT_TRUE(NavigateItemPath(doc, steps, 0, [&](Item item) {
                  expected.push_back(std::move(item));
                  return Status::OK();
                }).ok());
  }
  ASSERT_EQ(expected.size(), 3u);
  ASSERT_EQ(expected[0].object().size(), 3u);
  for (ScanMode mode : {ScanMode::kScalar, ScanMode::kIndexed}) {
    std::vector<Item> items;
    Status st = ProjectJsonStream(
        ndjson, steps,
        [&](Item item) {
          items.push_back(std::move(item));
          return Status::OK();
        },
        nullptr, nullptr, mode);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(items.size(), expected.size());
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i], expected[i]) << i;
      EXPECT_EQ(items[i].ToJsonString(), expected[i].ToJsonString()) << i;
    }
  }
}

TEST(PathStepTest, ToStringForms) {
  EXPECT_EQ(PathStep::Key("a").ToString(), "(\"a\")");
  EXPECT_EQ(PathStep::Index(3).ToString(), "(3)");
  EXPECT_EQ(PathStep::KeysOrMembers().ToString(), "()");
  EXPECT_EQ(PathToString({PathStep::Key("a"), PathStep::KeysOrMembers()}),
            "(\"a\")()");
}

}  // namespace
}  // namespace jpar
