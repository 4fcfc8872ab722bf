#include "runtime/frame.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace jpar {
namespace {

Tuple MakeTuple(std::initializer_list<Item> items) { return Tuple(items); }

std::vector<Tuple> ReadAll(const std::vector<Frame>& frames) {
  FrameReader reader(frames);
  std::vector<Tuple> out;
  Tuple t;
  while (true) {
    auto more = reader.Next(&t);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    out.push_back(t);
  }
  return out;
}

TEST(FrameTest, RoundTripTuples) {
  FrameBuilder builder(1024);
  std::vector<Tuple> tuples = {
      MakeTuple({Item::Int64(1), Item::String("a")}),
      MakeTuple({Item::Null()}),
      MakeTuple({}),
      MakeTuple({Item::MakeArray({Item::Boolean(true)}),
                 Item::Double(2.5), Item::Int64(-7)}),
  };
  for (const Tuple& t : tuples) builder.Append(t);
  std::vector<Frame> frames = builder.Finish();
  std::vector<Tuple> back = ReadAll(frames);
  ASSERT_EQ(back.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_EQ(back[i].size(), tuples[i].size());
    for (size_t c = 0; c < tuples[i].size(); ++c) {
      EXPECT_TRUE(back[i][c].Equals(tuples[i][c]));
    }
  }
}

TEST(FrameTest, SplitsAtTargetSize) {
  FrameBuilder builder(256);
  for (int i = 0; i < 100; ++i) {
    builder.Append(MakeTuple({Item::String(std::string(40, 'x'))}));
  }
  std::vector<Frame> frames = builder.Finish();
  EXPECT_GT(frames.size(), 10u);
  for (size_t i = 0; i + 1 < frames.size(); ++i) {
    // Every sealed frame crossed the target, but only by one tuple.
    EXPECT_GE(frames[i].bytes.size(), 256u);
    EXPECT_LT(frames[i].bytes.size(), 256u + 64u);
  }
  EXPECT_EQ(ReadAll(frames).size(), 100u);
}

TEST(FrameTest, OversizedTupleGetsItsOwnFrameAndIsCounted) {
  FrameBuilder builder(128);
  builder.Append(MakeTuple({Item::String("small")}));
  builder.Append(MakeTuple({Item::String(std::string(1000, 'y'))}));
  builder.Append(MakeTuple({Item::String("small2")}));
  EXPECT_EQ(builder.oversized_frames(), 1u);
  EXPECT_GT(builder.max_tuple_bytes(), 1000u);
  std::vector<Frame> frames = builder.Finish();
  EXPECT_EQ(ReadAll(frames).size(), 3u);
}

TEST(FrameTest, CountsBytesAndTuples) {
  FrameBuilder builder(1 << 20);
  builder.Append(MakeTuple({Item::Int64(1)}));
  builder.Append(MakeTuple({Item::Int64(2)}));
  EXPECT_EQ(builder.tuple_count(), 2u);
  EXPECT_GT(builder.total_bytes(), 0u);
  std::vector<Frame> frames = builder.Finish();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].tuple_count, 2u);
}

TEST(FrameTest, EmptyBuilderYieldsNoFrames) {
  FrameBuilder builder(1024);
  EXPECT_TRUE(builder.Finish().empty());
}

TEST(FrameTest, ReaderHandlesEmptyFrameList) {
  std::vector<Frame> frames;
  FrameReader reader(frames);
  Tuple t;
  auto more = reader.Next(&t);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(FrameTest, CorruptFrameReportsError) {
  Frame corrupt;
  corrupt.bytes = "\x02\xff\xff";  // arity 2, garbage items
  corrupt.tuple_count = 1;
  std::vector<Frame> frames = {corrupt};
  FrameReader reader(frames);
  Tuple t;
  EXPECT_FALSE(reader.Next(&t).ok());
}

TEST(FrameTest, HugeArityIsAStatusNotAnAbort) {
  // A one-tuple frame whose arity varint says 2^60 columns: the reader
  // must fail on the missing items, not try to reserve them.
  Frame corrupt;
  uint64_t arity = uint64_t{1} << 60;
  while (arity >= 0x80) {
    corrupt.bytes.push_back(static_cast<char>((arity & 0x7F) | 0x80));
    arity >>= 7;
  }
  corrupt.bytes.push_back(static_cast<char>(arity));
  corrupt.tuple_count = 1;
  std::vector<Frame> frames = {corrupt};
  FrameReader reader(frames);
  Tuple t;
  EXPECT_FALSE(reader.Next(&t).ok());
}

// ---------------------------------------------------------------------
// EncodedTupleSize must equal what AppendTupleTo writes.
// ---------------------------------------------------------------------

void ExpectSizeMatchesEncoding(const Tuple& tuple, const std::string& what) {
  std::string bytes;
  size_t written = AppendTupleTo(tuple, &bytes);
  EXPECT_EQ(written, bytes.size()) << what;
  EXPECT_EQ(EncodedTupleSize(tuple), written) << what;
}

TEST(EncodedTupleSizeTest, EveryItemKind) {
  DateTimeValue dt;
  dt.year = 2003;
  dt.month = 12;
  dt.day = 25;
  const std::vector<Item> items = {
      Item::Null(),
      Item::Boolean(true),
      Item::Int64(-3),
      Item::Double(2.5),
      Item::String("inline"),
      Item::String("a string past the inline limit"),
      Item::DateTime(dt),
      Item::MakeArray({Item::Int64(1), Item::String("x")}),
      Item::MakeObject({{"k", Item::Int64(1)}, {"key2", Item::Null()}}),
      Item::MakeSequence({Item::Int64(1), Item::Boolean(false)}),
      Item::EmptySequence(),
  };
  for (const Item& item : items) {
    ExpectSizeMatchesEncoding(MakeTuple({item}),
                              std::string(ItemKindToString(item.kind())));
  }
  ExpectSizeMatchesEncoding(Tuple(items), "all kinds in one tuple");
  ExpectSizeMatchesEncoding(MakeTuple({}), "empty tuple");
}

TEST(EncodedTupleSizeTest, ZigZagIntsAroundPowersOfTwo) {
  for (int k = 0; k < 63; ++k) {
    const int64_t p = int64_t{1} << k;
    for (int64_t v : {p - 1, p, p + 1, -p - 1, -p, -p + 1}) {
      ExpectSizeMatchesEncoding(MakeTuple({Item::Int64(v)}),
                                std::to_string(v));
    }
  }
  ExpectSizeMatchesEncoding(
      MakeTuple({Item::Int64(std::numeric_limits<int64_t>::max()),
                 Item::Int64(std::numeric_limits<int64_t>::min())}),
      "int64 limits");
}

TEST(EncodedTupleSizeTest, LengthsAtVarintBoundaries) {
  for (size_t n : {size_t{127}, size_t{128}, size_t{16383}, size_t{16384}}) {
    const std::string label = std::to_string(n);
    ExpectSizeMatchesEncoding(MakeTuple({Item::String(std::string(n, 's'))}),
                              "string " + label);
    ExpectSizeMatchesEncoding(
        MakeTuple({Item::MakeArray(Item::ItemVector(n, Item::Int64(1)))}),
        "array " + label);
    Item::Object fields;
    for (size_t i = 0; i < n; ++i) fields.push_back({"f", Item::Null()});
    ExpectSizeMatchesEncoding(MakeTuple({Item::MakeObject(std::move(fields))}),
                              "object " + label);
    ExpectSizeMatchesEncoding(
        MakeTuple({Item::MakeObject({{std::string(n, 'k'), Item::Int64(1)}})}),
        "key " + label);
    ExpectSizeMatchesEncoding(Tuple(n, Item::Null()), "arity " + label);
  }
}

TEST(EncodedTupleSizeTest, NestedSequences) {
  Item inner = Item::MakeSequence(
      {Item::MakeArray({Item::String("a"),
                        Item::MakeObject({{"b", Item::MakeArray({})}})}),
       Item::Int64(200)});
  Item outer = Item::MakeArray({inner, Item::MakeSequence({inner, inner})});
  Item seq = Item::MakeSequence(
      {outer, Item::MakeObject({{"s", inner}}), Item::EmptySequence()});
  ExpectSizeMatchesEncoding(MakeTuple({seq, inner, outer}), "nested");
}

}  // namespace
}  // namespace jpar
