// Wire layer of the distributed runtime (src/dist): payload codecs,
// message framing over a real socketpair, corrupt-input rejection,
// credit-window semantics, and the deterministic plan splitter.

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/engine.h"
#include "data/sensor_generator.h"
#include "dist/exchange.h"
#include "dist/fragment.h"
#include "dist/protocol.h"
#include "dist/wire.h"

namespace jpar {
namespace {

// ---------------------------------------------------------------------
// Payload primitives

TEST(PayloadTest, VarintRoundTrip) {
  std::string buf;
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32,
                     ~0ull}) {
    PutVarint(v, &buf);
  }
  PayloadReader reader(buf);
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32,
                     ~0ull}) {
    auto got = reader.Varint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(PayloadTest, SignedAndDoubleAndBytesRoundTrip) {
  std::string buf;
  PutVarintSigned(-12345, &buf);
  PutDouble(3.25, &buf);
  PutBytes("hello \0 world", &buf);
  PayloadReader reader(buf);
  auto i = reader.VarintSigned();
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(*i, -12345);
  auto d = reader.Double();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 3.25);
  auto s = reader.String();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, std::string("hello "));  // \0 truncates the literal
}

TEST(PayloadTest, TruncationRejected) {
  std::string buf;
  PutBytes("some payload bytes", &buf);
  // Every strict prefix must fail cleanly, never read out of bounds.
  for (size_t len = 0; len < buf.size(); ++len) {
    PayloadReader reader(std::string_view(buf.data(), len));
    auto got = reader.Bytes();
    EXPECT_FALSE(got.ok()) << "prefix of length " << len;
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kIOError);
    }
  }
}

// ---------------------------------------------------------------------
// Typed payloads

TEST(ProtocolTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.pid = 4242;
  auto got = DecodeHello(EncodeHello(msg));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->version, kProtocolVersion);
  EXPECT_EQ(got->pid, 4242);
}

TEST(ProtocolTest, FragmentRequestRoundTrip) {
  FragmentRequest req;
  req.query = "for $r in collection(\"/x\") return $r";
  req.rules = RuleOptions::None();
  req.rules.path_rules = true;
  req.exec.partitions = 7;
  req.exec.frame_bytes = 4096;
  req.exec.use_threads = true;
  req.exec.memory_limit_bytes = 123456;
  req.exec.spill = SpillMode::kEnabled;
  req.exec.deadline_ms = 1500;
  req.exec.expr_mode = ExprMode::kBytecode;
  req.exec.batch_size = 512;
  req.exec.storage_mode = StorageMode::kTape;
  req.exec.storage_cache_dir = "/tmp/jpar-cache";
  req.exec.storage_budget_bytes = 64ull << 20;
  req.stage_id = 2;
  req.worker_id = 3;
  req.worker_count = 4;
  req.fanout = 4;
  req.num_inputs = 2;
  req.deadline_remaining_ms = 987.5;
  req.credit_window = 16;

  auto got = DecodeFragmentRequest(EncodeFragmentRequest(req));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->query, req.query);
  EXPECT_EQ(got->stage_id, 2);
  EXPECT_EQ(got->worker_id, 3);
  EXPECT_EQ(got->worker_count, 4);
  EXPECT_EQ(got->fanout, 4);
  EXPECT_EQ(got->num_inputs, 2);
  EXPECT_EQ(got->deadline_remaining_ms, 987.5);
  EXPECT_EQ(got->credit_window, 16u);
  EXPECT_EQ(got->exec.partitions, 7);
  EXPECT_EQ(got->exec.frame_bytes, 4096u);
  EXPECT_TRUE(got->exec.use_threads);
  EXPECT_EQ(got->exec.memory_limit_bytes, 123456u);
  EXPECT_EQ(got->exec.spill, SpillMode::kEnabled);
  EXPECT_EQ(got->exec.deadline_ms, 1500);
  EXPECT_EQ(got->exec.expr_mode, ExprMode::kBytecode);
  EXPECT_EQ(got->exec.batch_size, 512u);
  EXPECT_EQ(got->exec.storage_mode, StorageMode::kTape);
  EXPECT_EQ(got->exec.storage_cache_dir, "/tmp/jpar-cache");
  EXPECT_EQ(got->exec.storage_budget_bytes, 64ull << 20);
  // Rules round-trip exactly: compare the canonical encodings.
  std::string a, b;
  EncodeRuleOptions(req.rules, &a);
  EncodeRuleOptions(got->rules, &b);
  EXPECT_EQ(a, b);
}

// Every registry counter as "name=value", in registry order.
template <typename Counters>
std::vector<std::string> CounterValues(const Counters& c) {
  std::vector<std::string> out;
  c.ForEachCounter([&out](const char* name, const auto& v) {
    std::ostringstream os;
    os << name << "=" << std::setprecision(17) << v;
    out.push_back(os.str());
  });
  return out;
}

// Gives counter i of `c` a distinct, nonzero value derived from `seed`
// (multi-byte varints for the integers, fractional doubles).
template <typename Counters>
void FillCounters(uint64_t seed, Counters* c) {
  uint64_t i = 0;
  c->ForEachCounter([&](const char*, auto& v) {
    ++i;
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
      v = static_cast<double>(seed * 100 + i) + 0.25;
    } else {
      v = (uint64_t{1} << (7 + (i % 50))) + seed * 1000 + i;
    }
  });
}

TEST(ProtocolTest, OutputEofRoundTrip) {
  OutputEofMsg msg;
  msg.code = StatusCode::kDeadlineExceeded;
  msg.message = "deadline exceeded during SCAN";
  msg.stats.real_ms = 12.5;
  msg.stats.makespan_ms = 7.75;
  FillCounters(1, &msg.stats);
  for (uint64_t s = 0; s < 2; ++s) {
    StageStats stage;
    stage.name = "stage" + std::to_string(s);
    stage.partition_ms = {1.5, 2.5};
    stage.exchange_ms = 0.5;
    stage.exchange_task_ms = {{0.25}, {0.125, 0.375}};
    stage.network_ms = 0.0625;
    FillCounters(2 + s, &stage);
    msg.stats.stages.push_back(stage);
  }
  std::vector<std::string> want = CounterValues(msg.stats);
  ASSERT_EQ(want.size(), 26u);
  ASSERT_EQ(CounterValues(msg.stats.stages[0]).size(), 6u);

  auto got = DecodeOutputEof(EncodeOutputEof(msg));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(got->message, msg.message);
  EXPECT_EQ(CounterValues(got->stats), want);
  EXPECT_EQ(got->stats.real_ms, 12.5);
  EXPECT_EQ(got->stats.makespan_ms, 7.75);
  ASSERT_EQ(got->stats.stages.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    const StageStats& in = msg.stats.stages[s];
    const StageStats& out = got->stats.stages[s];
    EXPECT_EQ(out.name, in.name);
    EXPECT_EQ(out.partition_ms, in.partition_ms);
    EXPECT_EQ(out.exchange_ms, in.exchange_ms);
    EXPECT_EQ(out.exchange_task_ms, in.exchange_task_ms);
    EXPECT_EQ(out.network_ms, in.network_ms);
    EXPECT_EQ(CounterValues(out), CounterValues(in));
  }
}

// Fragment and task stats fold by the registry's merge kind: kSum
// counters add, and peak_retained_bytes — the only kMax counter —
// keeps the larger peak.
TEST(ExecCountersTest, AddAndMergeFromFoldByRegistryKind) {
  std::vector<std::string> max_counters;
#define JPAR_TEST_MAX_NAME(type, name, merge) \
  if (CounterMerge::merge == CounterMerge::kMax) max_counters.push_back(#name);
  JPAR_EXEC_COUNTERS(JPAR_TEST_MAX_NAME)
#undef JPAR_TEST_MAX_NAME
  EXPECT_EQ(max_counters, std::vector<std::string>{"peak_retained_bytes"});

  ExecStats a;
  ExecStats b;
  FillCounters(1, &a);
  FillCounters(2, &b);
  a.peak_retained_bytes = 5000;
  b.peak_retained_bytes = 3000;
  a.real_ms = 1;
  a.makespan_ms = 2;
  b.real_ms = 100;
  b.makespan_ms = 200;
  a.stages.push_back(StageStats{});
  b.stages.resize(2);
  b.stages[1].name = "remote";

  ExecStats merged = a;
  merged.MergeFrom(b);
#define JPAR_TEST_MERGED(type, name, merge)                             \
  if (CounterMerge::merge == CounterMerge::kSum) {                      \
    EXPECT_EQ(merged.name, a.name + b.name) << #name;                   \
  } else {                                                              \
    EXPECT_EQ(merged.name, std::max(a.name, b.name)) << #name;          \
  }
  JPAR_EXEC_COUNTERS(JPAR_TEST_MERGED)
#undef JPAR_TEST_MERGED
  EXPECT_EQ(merged.peak_retained_bytes, 5000u);
  EXPECT_EQ(merged.bytes_scanned, a.bytes_scanned + b.bytes_scanned);
  EXPECT_EQ(merged.recovery_ms, a.recovery_ms + b.recovery_ms);
  // Stages append; the coordinator's wall clocks are left alone.
  ASSERT_EQ(merged.stages.size(), 3u);
  EXPECT_EQ(merged.stages[2].name, "remote");
  EXPECT_EQ(merged.real_ms, 1);
  EXPECT_EQ(merged.makespan_ms, 2);

  // Add on the bare counters is the same fold.
  ExecCounters sum = a;
  sum.Add(b);
  EXPECT_EQ(CounterValues(sum), CounterValues(merged));
}

// A fixed ExecStats with two stages and every counter set, written
// field by field (not through the registry) so the bytes below pin the
// wire format independently of how the encoder is generated.
ExecStats GoldenStats() {
  ExecStats stats;
  for (int s = 0; s < 2; ++s) {
    StageStats stage;
    stage.name = s == 0 ? "scan" : "join";
    stage.partition_ms = {1.5, 2.25 + s};
    stage.exchange_ms = 0.5;
    stage.exchange_task_ms = {{0.25}, {0.75, 1.0}};
    stage.network_ms = 0.125;
    stage.exchange_bytes = 300 + s;
    stage.exchange_frames = 2;
    stage.exchange_tuples = 3;
    stage.max_tuple_bytes = 4;
    stage.pipeline_bytes = 5;
    stage.oversized_frames = 6;
    stats.stages.push_back(stage);
  }
  stats.real_ms = 10.5;
  stats.makespan_ms = 8.25;
  stats.network_ms = 0.375;
  stats.bytes_scanned = 100000;
  stats.items_scanned = 1001;
  stats.result_rows = 3;
  stats.peak_retained_bytes = 4096;
  stats.skipped_records = 5;
  stats.morsels_scanned = 6;
  stats.spill_runs = 7;
  stats.spill_bytes_written = 8;
  stats.spill_merge_passes = 9;
  stats.dist_workers = 10;
  stats.dist_rounds = 11;
  stats.dist_frames = 12;
  stats.dist_bytes = 13;
  stats.fragment_retries = 14;
  stats.workers_respawned = 15;
  stats.frames_replayed = 16;
  stats.replay_spill_bytes = 17;
  stats.recovery_ms = 3.5;
  stats.batches_emitted = 18;
  stats.exprs_compiled = 19;
  stats.tape_hits = 20;
  stats.tape_builds = 21;
  stats.columns_read = 22;
  stats.blocks_pruned = 23;
  stats.stats_paths_built = 24;
  return stats;
}

std::string Hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

TEST(ProtocolTest, ExecStatsGoldenBytes) {
  std::string bytes;
  EncodeExecStats(GoldenStats(), &bytes);
  // Stages (name, partition_ms, exchange_ms, exchange_task_ms,
  // network_ms, six counters), then real_ms, makespan_ms and the 26
  // query counters: varints for integers, 8-byte LE doubles.
  const std::string golden =
      "02047363616e02000000000000f83f0000000000000240000000000000e03f02"
      "01000000000000d03f02000000000000e83f000000000000f03f000000000000"
      "c03fac020203040506046a6f696e02000000000000f83f0000000000000a4000"
      "0000000000e03f0201000000000000d03f02000000000000e83f000000000000"
      "f03f000000000000c03fad020203040506000000000000254000000000008020"
      "40000000000000d83fa08d06e90703802005060708090a0b0c0d0e0f10110000"
      "000000000c4012131415161718";
  EXPECT_EQ(Hex(bytes), golden);
}

// Every strict prefix of a valid encoding is rejected with a Status,
// never read past its end (the sanitizer job runs this).
TEST(ProtocolTest, ExecStatsTruncatedAtEveryByteRejected) {
  std::string bytes;
  EncodeExecStats(GoldenStats(), &bytes);
  for (size_t n = 0; n < bytes.size(); ++n) {
    const std::string prefix = bytes.substr(0, n);
    PayloadReader reader(prefix);
    ExecStats out;
    EXPECT_FALSE(DecodeExecStats(&reader, &out).ok()) << "prefix " << n;
  }
  PayloadReader whole(bytes);
  ExecStats out;
  ASSERT_TRUE(DecodeExecStats(&whole, &out).ok());
  EXPECT_TRUE(whole.AtEnd());

  // A vector count far beyond the payload is a Status, not an
  // allocation of that many doubles.
  std::string huge;
  PutVarint(1, &huge);  // one stage
  PutBytes("s", &huge);
  PutVarint(uint64_t{1} << 60, &huge);  // partition_ms count
  PayloadReader reader(huge);
  EXPECT_FALSE(DecodeExecStats(&reader, &out).ok());
}

TEST(ProtocolTest, CancelAndCreditRoundTrip) {
  CancelMsg cancel;
  cancel.code = StatusCode::kCancelled;
  cancel.message = "client gave up";
  auto got = DecodeCancel(EncodeCancel(cancel));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->code, StatusCode::kCancelled);
  EXPECT_EQ(got->message, "client gave up");

  auto credit = DecodeCredit(EncodeCredit(17));
  ASSERT_TRUE(credit.ok());
  EXPECT_EQ(*credit, 17u);

  auto ack = DecodeSyncAck(EncodeSyncAck(99));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(*ack, 99u);
}

TEST(ProtocolTest, StatusFromCodeCoversEveryCode) {
  EXPECT_TRUE(StatusFromCode(StatusCode::kOk, "").ok());
  for (int c = 1; c < kStatusCodeCount; ++c) {
    StatusCode code = static_cast<StatusCode>(c);
    Status st = StatusFromCode(code, "wire message");
    EXPECT_EQ(st.code(), code) << c;
    EXPECT_EQ(st.message(), "wire message") << c;
  }
}

TEST(ProtocolTest, CatalogSyncRoundTrip) {
  SensorDataSpec spec;
  spec.num_files = 2;
  spec.records_per_file = 4;
  spec.measurements_per_array = 6;
  spec.seed = 11;

  Engine source;
  source.catalog()->RegisterCollection("/sensors",
                                       GenerateSensorCollection(spec));
  std::string payload = EncodeCatalogSync(*source.catalog());

  Engine replica;
  uint64_t version = 0;
  Status st = DecodeCatalogSyncInto(payload, replica.catalog(), &version);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(version, source.catalog()->version());

  const char* count_query = R"(
    count(collection("/sensors")("root")()("results")()))";
  auto a = source.Run(count_query);
  auto b = replica.Run(count_query);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->items.size(), 1u);
  ASSERT_EQ(b->items.size(), 1u);
  EXPECT_EQ(a->items[0].int64_value(), b->items[0].int64_value());
  EXPECT_GT(a->items[0].int64_value(), 0);
}

TEST(ProtocolTest, CatalogSyncHugeFileCountIsAStatusNotAnAbort) {
  // One collection claiming 2^60 files and carrying none.
  std::string payload;
  PutVarint(1, &payload);  // catalog version
  PutVarint(1, &payload);  // collections
  PutBytes("/sensors", &payload);
  PutVarint(uint64_t{1} << 60, &payload);
  Engine replica;
  uint64_t version = 0;
  EXPECT_FALSE(
      DecodeCatalogSyncInto(payload, replica.catalog(), &version).ok());
}

// ---------------------------------------------------------------------
// Framing over a real socketpair

TEST(WireTest, MessageRoundTripOverSocketpair) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  Socket a = std::move(pair->first);
  Socket b = std::move(pair->second);

  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) {
    tuples.push_back({Item::Int64(i), Item::String("row-" +
                                                   std::to_string(i))});
  }
  std::vector<FrameMsg> frames = TuplesToFrames(tuples, 3, 256);
  ASSERT_GT(frames.size(), 1u);  // small frame target => several frames

  for (const FrameMsg& f : frames) {
    ASSERT_TRUE(WriteMessage(&a, static_cast<uint8_t>(MsgType::kInputFrame),
                             EncodeFrameMsg(f))
                    .ok());
  }
  a.Close();  // clean EOF after the last message

  std::vector<Tuple> got;
  WireMessage msg;
  while (true) {
    auto more = ReadMessage(&b, &msg);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_EQ(msg.type, static_cast<uint8_t>(MsgType::kInputFrame));
    auto frame = DecodeFrameMsg(msg.payload);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->channel, 3u);
    ASSERT_TRUE(AppendFrameTuples(*frame, &got).ok());
  }
  ASSERT_EQ(got.size(), tuples.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), 2u);
    EXPECT_EQ(got[i][0].int64_value(), tuples[i][0].int64_value());
    EXPECT_EQ(got[i][1].string_value(), tuples[i][1].string_value());
  }
}

TEST(WireTest, CorruptMagicRejected) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  const char garbage[] = "XXXXYYYYZZZZ";
  ASSERT_TRUE(pair->first.SendAll(garbage, sizeof(garbage)).ok());
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST(WireTest, OversizedLengthRejected) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  // Valid magic and type, but a payload length beyond the cap.
  std::string header;
  uint32_t magic = kWireMagic;
  header.append(reinterpret_cast<const char*>(&magic), 4);
  header.push_back(static_cast<char>(MsgType::kPing));
  uint32_t len = kMaxWirePayload + 1;
  header.append(reinterpret_cast<const char*>(&len), 4);
  uint32_t crc = 0;  // never reached: the length check rejects first
  header.append(reinterpret_cast<const char*>(&crc), 4);
  ASSERT_EQ(header.size(), kWireHeaderBytes);
  ASSERT_TRUE(pair->first.SendAll(header.data(), header.size()).ok());
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST(WireTest, TruncatedPayloadRejected) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  // Header promises 64 payload bytes; only 10 arrive before EOF.
  std::string partial;
  uint32_t magic = kWireMagic;
  partial.append(reinterpret_cast<const char*>(&magic), 4);
  partial.push_back(static_cast<char>(MsgType::kInputFrame));
  uint32_t len = 64;
  partial.append(reinterpret_cast<const char*>(&len), 4);
  uint32_t crc = 0;
  partial.append(reinterpret_cast<const char*>(&crc), 4);
  partial.append(10, 'x');
  ASSERT_TRUE(pair->first.SendAll(partial.data(), partial.size()).ok());
  pair->first.Close();
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST(WireTest, ChecksumMismatchRejected) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  // A well-formed message whose payload was corrupted in flight: the
  // header carries the CRC of the original payload, the bytes on the
  // wire differ by one bit.
  std::string payload = "structurally valid payload bytes";
  std::string corrupted = payload;
  corrupted[5] ^= 0x01;
  std::string msg_bytes;
  uint32_t magic = kWireMagic;
  msg_bytes.append(reinterpret_cast<const char*>(&magic), 4);
  msg_bytes.push_back(static_cast<char>(MsgType::kInputFrame));
  uint32_t len = static_cast<uint32_t>(payload.size());
  msg_bytes.append(reinterpret_cast<const char*>(&len), 4);
  uint32_t crc = WireCrc32(payload);
  msg_bytes.append(reinterpret_cast<const char*>(&crc), 4);
  msg_bytes.append(corrupted);
  ASSERT_TRUE(pair->first.SendAll(msg_bytes.data(), msg_bytes.size()).ok());
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  EXPECT_NE(got.status().message().find("checksum"), std::string::npos)
      << got.status().ToString();

  // The uncorrupted bytes round-trip fine.
  auto pair2 = Socket::Pair();
  ASSERT_TRUE(pair2.ok());
  ASSERT_TRUE(WriteMessage(&pair2->first,
                           static_cast<uint8_t>(MsgType::kInputFrame), payload)
                  .ok());
  auto ok = ReadMessage(&pair2->second, &msg);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(*ok);
  EXPECT_EQ(msg.payload, payload);
}

TEST(WireTest, Crc32MatchesKnownVectors) {
  // The standard CRC-32 (reflected, poly 0xEDB88320) check values.
  EXPECT_EQ(WireCrc32(""), 0x00000000u);
  EXPECT_EQ(WireCrc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(WireCrc32("a"), 0xE8B7BE43u);
  // Sensitive to every bit: flipping one payload bit changes the sum.
  EXPECT_NE(WireCrc32(std::string("ab")), WireCrc32(std::string("ac")));
}

TEST(WireTest, CleanEofReturnsFalse) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok());
  pair->first.Close();
  WireMessage msg;
  auto got = ReadMessage(&pair->second, &msg);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(*got);
}

TEST(WireTest, TupleCountMismatchRejected) {
  std::vector<Tuple> tuples = {{Item::Int64(1)}, {Item::Int64(2)}};
  std::vector<FrameMsg> frames = TuplesToFrames(tuples, 0, 1 << 16);
  ASSERT_EQ(frames.size(), 1u);
  frames[0].tuple_count += 1;  // header lies about the tuple count
  std::vector<Tuple> out;
  Status st = AppendFrameTuples(frames[0], &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------
// Credit window

TEST(CreditWindowTest, AcquireGrantTimeout) {
  CreditWindow window;
  window.Reset(1);
  EXPECT_TRUE(window.Acquire(0).ok() || window.Acquire(-1).ok());
  // Empty window: a bounded wait times out with kUnavailable.
  Status st = window.Acquire(30);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  window.Grant(1);
  EXPECT_TRUE(window.Acquire(30).ok());
}

TEST(CreditWindowTest, PoisonWakesBlockedSender) {
  CreditWindow window;
  window.Reset(0);
  Status observed;
  std::thread sender([&] { observed = window.Acquire(-1); });
  // Give the sender time to block, then poison.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  window.Poison(Status::WorkerLost("worker 1 died"));
  sender.join();
  ASSERT_FALSE(observed.ok());
  EXPECT_EQ(observed.code(), StatusCode::kWorkerLost);

  // Poison latches for future acquires...
  EXPECT_EQ(window.Acquire(0).code(), StatusCode::kWorkerLost);
  // ...until the next Reset re-arms the window.
  window.Reset(1);
  EXPECT_TRUE(window.Acquire(0).ok());
}

// ---------------------------------------------------------------------
// Plan splitter

class SplitTest : public ::testing::Test {
 protected:
  static Result<StagePlan> Split(const std::string& query) {
    Engine engine;
    auto compiled = engine.Compile(query, RuleOptions::All());
    if (!compiled.ok()) return compiled.status();
    // The split references plan nodes; keep the plan alive via a
    // static cache for the duration of the assertion-only tests.
    static std::vector<CompiledQuery>* plans =
        new std::vector<CompiledQuery>();
    plans->push_back(*std::move(compiled));
    return SplitPlanForDistribution(plans->back().physical);
  }
};

TEST_F(SplitTest, PurePipelineIsOneGatherStage) {
  auto split = Split(R"(
    for $r in collection("/sensors")("root")()("results")()
    where $r("dataType") eq "TMIN"
    return $r("value"))");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ASSERT_EQ(split->stages.size(), 1u);
  EXPECT_EQ(split->stages[0].core, FragmentStage::Core::kLeaf);
  EXPECT_FALSE(split->stages[0].shuffled);
  EXPECT_TRUE(split->stages[0].inputs.empty());
}

TEST_F(SplitTest, GroupByBecomesTwoStagesWithTwoStepShuffle) {
  auto split = Split(R"(
    for $r in collection("/sensors")("root")()("results")()
    where $r("dataType") eq "TMIN"
    group by $date := $r("date")
    return count($r("station")))");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ASSERT_EQ(split->stages.size(), 2u);
  const FragmentStage& leaf = split->stages[0];
  const FragmentStage& merge = split->stages[1];
  EXPECT_EQ(leaf.core, FragmentStage::Core::kLeaf);
  EXPECT_TRUE(leaf.shuffled);
  // RuleOptions::All() enables two-step aggregation for count().
  EXPECT_NE(leaf.local_groupby, nullptr);
  EXPECT_EQ(merge.core, FragmentStage::Core::kGroupByMerge);
  EXPECT_TRUE(merge.from_partials);
  EXPECT_FALSE(merge.shuffled);
  ASSERT_EQ(merge.inputs.size(), 1u);
  EXPECT_EQ(merge.inputs[0], leaf.id);
}

TEST_F(SplitTest, JoinFansInTwoShuffledProducers) {
  auto split = Split(R"(
    avg(
      for $a in collection("/s")("root")()("results")()
      for $b in collection("/s")("root")()("results")()
      where $a("station") eq $b("station")
        and $a("dataType") eq "TMIN"
        and $b("dataType") eq "TMAX"
      return $b("value") - $a("value")
    ) div 10)");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  const FragmentStage* join = nullptr;
  for (const FragmentStage& stage : split->stages) {
    if (stage.core == FragmentStage::Core::kJoin) join = &stage;
  }
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->inputs.size(), 2u);
  EXPECT_TRUE(split->stages[join->inputs[0]].shuffled);
  EXPECT_TRUE(split->stages[join->inputs[1]].shuffled);
  EXPECT_FALSE(split->stages.back().shuffled);  // final stage gathers
}

TEST_F(SplitTest, UnsupportedShapesFallBack) {
  // No collection scan at the leaf (EMPTY-TUPLE-SOURCE).
  auto constant = Split("1 + 1");
  ASSERT_FALSE(constant.ok());
  EXPECT_EQ(constant.status().code(), StatusCode::kUnsupported);

  // Sorts are not distributed.
  auto sorted = Split(R"(
    for $r in collection("/s")("root")()("results")()
    order by $r("date")
    return $r)");
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace jpar
