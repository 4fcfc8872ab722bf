#include "json/projecting_reader.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

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

// ---------------------------------------------------------------------
// Raw-key matching and the scan prefilter's probe pass (DESIGN.md §9).
// ---------------------------------------------------------------------

/// A cursor over `text` in `mode`; the index lives in `*index`.
JsonCursor MakeCursor(std::string_view text, ScanMode mode,
                      StructuralIndex* index) {
  if (mode == ScanMode::kScalar) return JsonCursor(text);
  *index = StructuralIndex::Build(text);
  return JsonCursor(text, index);
}

const char* ModeName(ScanMode mode) {
  return mode == ScanMode::kScalar ? "scalar" : "indexed";
}

TEST(ProbeTest, ParseKeyAgreesWithParseString) {
  const char* keys[] = {
      R"("date")",       R"("")",           R"(  "spaced")",
      R"("a\"b")",       R"("back\\slash")", R"("\u0064ate")",
      R"("tab\there")",  R"("héllo")",      R"("bad\q")",
      R"("\u00zz")",     R"("unterminated)", R"(notastring)",
      R"("end\)",        R"("\\")",
  };
  for (ScanMode mode : {ScanMode::kScalar, ScanMode::kIndexed}) {
    for (const char* key : keys) {
      SCOPED_TRACE(std::string(ModeName(mode)) + " " + key);
      std::string text = std::string(key) + ":1";
      StructuralIndex ia, ib;
      JsonCursor a = MakeCursor(text, mode, &ia);
      JsonCursor b = MakeCursor(text, mode, &ib);
      std::string scratch;
      Result<std::string_view> raw = a.ParseKey(&scratch);
      Result<std::string> decoded = b.ParseString();
      ASSERT_EQ(raw.ok(), decoded.ok());
      if (raw.ok()) {
        EXPECT_EQ(std::string(*raw), *decoded);
      } else {
        EXPECT_EQ(raw.status().ToString(), decoded.status().ToString());
      }
      EXPECT_EQ(a.position(), b.position());
    }
  }
}

TEST(ProbeTest, ProbeLandsWhereParseValueDoesAndFillsFirstFields) {
  const char* objects[] = {
      R"({"k":"x","v":1})",
      R"(  { "v" : [1, {"k": 2}], "k" : "y" , "w": null }  trailing)",
      R"({"k":1,"k":2,"v":{"k":3}})",
      R"({"\u006b":"esc","k":"plain"})",
      R"({"s":"a\"b\\c","k":true,"t":"\u00e9"})",
      R"({})",
      R"({"v":{"deep":[[[{"k":0}]]]}})",
      R"({"k":"x"}{"k":"y"})",
  };
  const std::vector<std::string> probe_keys = {"k", "v"};
  for (ScanMode mode : {ScanMode::kScalar, ScanMode::kIndexed}) {
    for (const char* object : objects) {
      SCOPED_TRACE(std::string(ModeName(mode)) + " " + object);
      StructuralIndex ia, ib;
      JsonCursor a = MakeCursor(object, mode, &ia);
      JsonCursor b = MakeCursor(object, mode, &ib);
      std::vector<Item> slots(2, Item::String("untouched"));
      bool escapes_unchecked = true;
      Status probed =
          a.ProbeObject(probe_keys, slots.data(), &escapes_unchecked);
      Result<Item> parsed = b.ParseValue();
      ASSERT_TRUE(probed.ok()) << probed.ToString();
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(a.position(), b.position());
      const bool has_backslash =
          std::string_view(object).find('\\') != std::string_view::npos;
      EXPECT_EQ(escapes_unchecked,
                mode == ScanMode::kIndexed && has_backslash);
      for (size_t i = 0; i < probe_keys.size(); ++i) {
        std::optional<Item> field = parsed->GetField(probe_keys[i]);
        EXPECT_EQ(slots[i].ToJsonString(),
                  field.has_value() ? field->ToJsonString()
                                    : std::string("\"untouched\""))
            << probe_keys[i];
      }
    }
  }
}

TEST(ProbeTest, ProbeFailsWithParseValuesError) {
  const char* malformed[] = {
      R"({"k":"x","v":)",        R"({"k":"x","n":-})",
      R"({"k":"x","v":tru})",    R"({"k":"x" "v":1})",
      R"({"k" "x"})",            R"({"k":"x",})",
      R"({"k":"x","v":[1,2})",   R"({"k":"x","v":"open)",
      R"({"v":1.})",             R"({"v":1e+})",
      R"({k:1})",                R"({"k":"x","v":{"a":1,}})",
      R"({"k":-})",              R"({"k":"x)",
  };
  for (ScanMode mode : {ScanMode::kScalar, ScanMode::kIndexed}) {
    for (const char* object : malformed) {
      SCOPED_TRACE(std::string(ModeName(mode)) + " " + object);
      StructuralIndex ia, ib;
      JsonCursor a = MakeCursor(object, mode, &ia);
      JsonCursor b = MakeCursor(object, mode, &ib);
      std::vector<Item> slots(1);
      bool escapes_unchecked = false;
      Status probed = a.ProbeObject({"k"}, slots.data(), &escapes_unchecked);
      Result<Item> parsed = b.ParseValue();
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(probed.ToString(), parsed.status().ToString());
    }
  }
  // A bad escape in a skipped string: the scalar probe reports it like
  // ParseValue; the indexed probe skips it unchecked and says so.
  const char* bad_escape = R"({"s":"bad\q","k":"x"})";
  StructuralIndex index;
  JsonCursor scalar(bad_escape);
  JsonCursor scalar_parse(bad_escape);
  std::vector<Item> slots(1);
  bool escapes_unchecked = false;
  EXPECT_EQ(scalar.ProbeObject({"k"}, slots.data(), &escapes_unchecked)
                .ToString(),
            scalar_parse.ParseValue().status().ToString());
  JsonCursor indexed = MakeCursor(bad_escape, ScanMode::kIndexed, &index);
  EXPECT_TRUE(
      indexed.ProbeObject({"k"}, slots.data(), &escapes_unchecked).ok());
  EXPECT_TRUE(escapes_unchecked);
}

/// Items a stream emits, with or without a probe; `status` and
/// `skipped` record how it ended.
struct StreamRun {
  Status status;
  std::vector<std::string> items;
  uint64_t skipped = 0;
};

StreamRun RunStream(std::string_view text, const std::vector<PathStep>& steps,
                    ScanMode mode, bool lenient, const RecordProbe* probe) {
  StreamRun run;
  run.status = ProjectJsonStreamWithIndex(
      text, steps, nullptr, 0,
      [&](Item item) {
        run.items.push_back(item.ToJsonString());
        return Status::OK();
      },
      nullptr, lenient ? &run.skipped : nullptr, mode, probe);
  return run;
}

TEST(ProbeTest, StreamDropsOnlyWhatTheProbeRejects) {
  const std::string ndjson =
      "{\"k\":\"x\",\"v\":1}\n"
      "{\"k\":\"y\",\"v\":2}\n"
      "[1,2]\n"
      "7\n"
      "{\"v\":3}\n"
      "{\"k\":\"y\",\"s\":\"bad\\q\"}\n"  // bad escape off the probe
      "{\"k\":\"y\",\"n\":-}\n"           // bare '-' off the probe
      "{\"k\":\"x\",\"k\":\"y\",\"v\":4}\n"
      "{\"k\":\"y\",\"v\":\n"             // truncated
      "{\"\\u006b\":\"x\",\"v\":5}\n";
  int calls = 0;
  RecordProbe probe;
  probe.keys = {"k"};
  probe.keep = [&](std::vector<Item>* slots) -> Result<bool> {
    ++calls;
    const Item& k = (*slots)[0];
    const bool keep = k.is_string() && k.string_value() == "x";
    slots->push_back(Item::Null());  // the reader truncates it away
    return keep;
  };
  for (ScanMode mode : {ScanMode::kScalar, ScanMode::kIndexed}) {
    SCOPED_TRACE(ModeName(mode));
    StreamRun plain = RunStream(ndjson, {}, mode, true, nullptr);
    calls = 0;
    StreamRun probed = RunStream(ndjson, {}, mode, true, &probe);
    ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
    ASSERT_TRUE(probed.status.ok()) << probed.status.ToString();
    EXPECT_EQ(probed.skipped, plain.skipped);
    EXPECT_EQ(plain.skipped, 3u);
    // Rejected: the "y" records and {"v":3}; everything else survives,
    // including the non-objects, which are never probed.
    std::vector<std::string> expected;
    for (const std::string& item : plain.items) {
      if (item.find("\"y\"") != std::string::npos &&
          item.find("\"x\"") == std::string::npos) {
        continue;
      }
      if (item == "{\"v\":3}") continue;
      expected.push_back(item);
    }
    EXPECT_EQ(probed.items, expected);
    EXPECT_GT(calls, 0);
    // Strict mode fails on the first malformed record either way.
    StreamRun strict_plain = RunStream(ndjson, {}, mode, false, nullptr);
    StreamRun strict_probed = RunStream(ndjson, {}, mode, false, &probe);
    EXPECT_FALSE(strict_plain.status.ok());
    EXPECT_EQ(strict_probed.status.ToString(),
              strict_plain.status.ToString());
  }
}

TEST(ProbeTest, ProbeErrorsAbortTheStream) {
  RecordProbe probe;
  probe.keys = {"k"};
  probe.keep = [](std::vector<Item>*) -> Result<bool> {
    return Status::Cancelled("stop");
  };
  for (ScanMode mode : {ScanMode::kScalar, ScanMode::kIndexed}) {
    StreamRun run = RunStream("{\"k\":1}\n{\"k\":2}\n", {}, mode, true, &probe);
    EXPECT_EQ(run.status.code(), StatusCode::kCancelled);
    EXPECT_TRUE(run.items.empty());
  }
}

TEST(ProbeTest, KeepMostWindowsPauseTheProbe) {
  // One window, one pause, one more window and a tail of 10 records.
  const size_t window = RecordProbe::kSampleRecords;
  const size_t records = window + RecordProbe::kPauseRecords + window + 10;
  std::string ndjson;
  for (size_t i = 0; i < records; ++i) {
    ndjson += "{\"k\":" + std::to_string(i) + "}\n";
  }
  int calls = 0;
  bool keep = true;
  RecordProbe probe;
  probe.keys = {"k"};
  probe.keep = [&](std::vector<Item>*) -> Result<bool> {
    ++calls;
    return keep;
  };
  for (ScanMode mode : {ScanMode::kScalar, ScanMode::kIndexed}) {
    SCOPED_TRACE(ModeName(mode));
    // Every record kept: each window pauses the probe, and the paused
    // records are emitted without asking `keep`.
    keep = true;
    calls = 0;
    StreamRun kept = RunStream(ndjson, {}, mode, false, &probe);
    ASSERT_TRUE(kept.status.ok()) << kept.status.ToString();
    EXPECT_EQ(kept.items.size(), records);
    EXPECT_EQ(static_cast<size_t>(calls), 2 * window);
    // Every record dropped: the probe never pauses.
    keep = false;
    calls = 0;
    StreamRun dropped = RunStream(ndjson, {}, mode, false, &probe);
    ASSERT_TRUE(dropped.status.ok()) << dropped.status.ToString();
    EXPECT_TRUE(dropped.items.empty());
    EXPECT_EQ(static_cast<size_t>(calls), records);
  }
}

TEST(ProbeTest, TooManyProbeKeysAreNotProbed) {
  std::vector<std::string> keys;
  for (size_t i = 0; i <= JsonCursor::kMaxProbeKeys; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  std::vector<Item> slots(keys.size());
  bool escapes_unchecked = false;
  JsonCursor cursor(R"({"k0":1})");
  EXPECT_EQ(cursor.ProbeObject(keys, slots.data(), &escapes_unchecked).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cursor.position(), 0u);
  // A stream given such a probe materializes every record unasked.
  int calls = 0;
  RecordProbe probe;
  probe.keys = keys;
  probe.keep = [&](std::vector<Item>*) -> Result<bool> {
    ++calls;
    return false;
  };
  for (ScanMode mode : {ScanMode::kScalar, ScanMode::kIndexed}) {
    StreamRun run =
        RunStream("{\"k0\":1}\n{\"k1\":2}\n", {}, mode, false, &probe);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.items.size(), 2u);
  }
  EXPECT_EQ(calls, 0);
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
