#include "json/item.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "json/binary_serde.h"

namespace jpar {
namespace {

TEST(ItemTest, DefaultIsNull) {
  Item item;
  EXPECT_TRUE(item.is_null());
  EXPECT_TRUE(item.is_atomic());
  EXPECT_EQ(item.ToJsonString(), "null");
}

TEST(ItemTest, Scalars) {
  EXPECT_EQ(Item::Boolean(true).ToJsonString(), "true");
  EXPECT_EQ(Item::Boolean(false).ToJsonString(), "false");
  EXPECT_EQ(Item::Int64(-42).ToJsonString(), "-42");
  EXPECT_EQ(Item::Double(2.5).ToJsonString(), "2.5");
  EXPECT_EQ(Item::String("hi").ToJsonString(), "\"hi\"");
}

TEST(ItemTest, IntegralDoubleRendersWithFraction) {
  // Keeps doubles distinguishable from ints in serialized output.
  EXPECT_EQ(Item::Double(3.0).ToJsonString(), "3.0");
}

TEST(ItemTest, StringEscaping) {
  EXPECT_EQ(Item::String("a\"b\\c\nd").ToJsonString(),
            "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Item::String(std::string("\x01", 1)).ToJsonString(),
            "\"\\u0001\"");
}

TEST(ItemTest, ArraysAndObjects) {
  Item arr = Item::MakeArray({Item::Int64(1), Item::String("two")});
  EXPECT_TRUE(arr.is_array());
  EXPECT_EQ(arr.ToJsonString(), "[1,\"two\"]");

  Item obj = Item::MakeObject(
      {{"a", Item::Int64(1)}, {"b", Item::MakeArray({Item::Null()})}});
  EXPECT_TRUE(obj.is_object());
  EXPECT_EQ(obj.ToJsonString(), "{\"a\":1,\"b\":[null]}");
}

TEST(ItemTest, GetField) {
  Item obj = Item::MakeObject({{"x", Item::Int64(5)}});
  ASSERT_TRUE(obj.GetField("x").has_value());
  EXPECT_EQ(*obj.GetField("x"), Item::Int64(5));
  EXPECT_FALSE(obj.GetField("y").has_value());
  EXPECT_FALSE(Item::Int64(1).GetField("x").has_value());
}

TEST(ItemTest, SequenceFlattening) {
  Item inner = Item::MakeSequence({Item::Int64(2), Item::Int64(3)});
  Item flat = Item::MakeSequence({Item::Int64(1), inner, Item::Int64(4)});
  ASSERT_TRUE(flat.is_sequence());
  ASSERT_EQ(flat.sequence().size(), 4u);
  EXPECT_EQ(flat.sequence()[2], Item::Int64(3));
}

TEST(ItemTest, SingletonSequenceCollapses) {
  Item s = Item::MakeSequence({Item::String("only")});
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(s.string_value(), "only");
}

TEST(ItemTest, EmptySequence) {
  Item empty = Item::EmptySequence();
  EXPECT_TRUE(empty.is_sequence());
  EXPECT_EQ(empty.SequenceLength(), 0u);
  EXPECT_EQ(Item::MakeSequence({}).SequenceLength(), 0u);
}

TEST(ItemTest, NumericEqualityAcrossKinds) {
  EXPECT_TRUE(Item::Int64(1).Equals(Item::Double(1.0)));
  EXPECT_FALSE(Item::Int64(1).Equals(Item::Double(1.5)));
  EXPECT_FALSE(Item::Int64(1).Equals(Item::String("1")));
}

TEST(ItemTest, DeepEquality) {
  auto make = [] {
    return Item::MakeObject(
        {{"a", Item::MakeArray({Item::Int64(1), Item::Int64(2)})},
         {"b", Item::String("x")}});
  };
  EXPECT_TRUE(make().Equals(make()));
  Item other = Item::MakeObject(
      {{"a", Item::MakeArray({Item::Int64(1), Item::Int64(3)})},
       {"b", Item::String("x")}});
  EXPECT_FALSE(make().Equals(other));
}

TEST(ItemTest, ObjectEqualityIsOrderSensitive) {
  // JSONiq objects preserve insertion order; equality follows it.
  Item a = Item::MakeObject({{"x", Item::Int64(1)}, {"y", Item::Int64(2)}});
  Item b = Item::MakeObject({{"y", Item::Int64(2)}, {"x", Item::Int64(1)}});
  EXPECT_FALSE(a.Equals(b));
}

TEST(ItemTest, CompareNumbersStringsDatesBooleans) {
  EXPECT_EQ(*Item::Int64(1).Compare(Item::Double(2.0)), -1);
  EXPECT_EQ(*Item::Double(2.0).Compare(Item::Int64(2)), 0);
  EXPECT_EQ(*Item::String("b").Compare(Item::String("a")), 1);
  EXPECT_EQ(*Item::Boolean(false).Compare(Item::Boolean(true)), -1);
  DateTimeValue d1{2003, 12, 25, 0, 0, 0};
  DateTimeValue d2{2004, 1, 1, 0, 0, 0};
  EXPECT_EQ(*Item::DateTime(d1).Compare(Item::DateTime(d2)), -1);
}

TEST(ItemTest, CompareIncompatibleKindsFails) {
  EXPECT_FALSE(Item::Int64(1).Compare(Item::String("1")).ok());
  EXPECT_FALSE(Item::MakeArray({}).Compare(Item::MakeArray({})).ok());
}

TEST(ItemTest, EffectiveBooleanValue) {
  EXPECT_FALSE(*Item::Null().EffectiveBooleanValue());
  EXPECT_FALSE(*Item::Boolean(false).EffectiveBooleanValue());
  EXPECT_TRUE(*Item::Boolean(true).EffectiveBooleanValue());
  EXPECT_FALSE(*Item::Int64(0).EffectiveBooleanValue());
  EXPECT_TRUE(*Item::Int64(-1).EffectiveBooleanValue());
  EXPECT_FALSE(*Item::String("").EffectiveBooleanValue());
  EXPECT_TRUE(*Item::String("x").EffectiveBooleanValue());
  EXPECT_FALSE(*Item::EmptySequence().EffectiveBooleanValue());
  EXPECT_TRUE(*Item::MakeArray({}).EffectiveBooleanValue());
  EXPECT_TRUE(*Item::MakeObject({}).EffectiveBooleanValue());
  // Multi-item sequences have no EBV (dynamic error).
  Item multi = Item::MakeSequence({Item::Int64(1), Item::Int64(2)});
  EXPECT_FALSE(multi.EffectiveBooleanValue().ok());
}

TEST(ItemTest, SequenceSerializationJoinsMembers) {
  Item seq = Item::MakeSequence({Item::Int64(1), Item::String("a")});
  EXPECT_EQ(seq.ToJsonString(), "1, \"a\"");
}

TEST(ItemTest, EstimateSizeGrowsWithPayload) {
  Item small = Item::String("x");
  Item big = Item::String(std::string(1000, 'x'));
  EXPECT_GT(big.EstimateSizeBytes(), small.EstimateSizeBytes() + 900);
  Item nested = Item::MakeArray({big, big});
  EXPECT_GT(nested.EstimateSizeBytes(), 2 * big.EstimateSizeBytes() - 1);
}

TEST(ItemTest, GroupKeyDistinguishesKinds) {
  std::string k1, k2, k3;
  Item::Int64(1).AppendGroupKeyTo(&k1);
  Item::String("1").AppendGroupKeyTo(&k2);
  Item::Boolean(true).AppendGroupKeyTo(&k3);
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
}

TEST(ItemTest, GroupKeyNumericPromotion) {
  // Int 1 and double 1.0 must group together (they compare equal).
  std::string k1, k2;
  Item::Int64(1).AppendGroupKeyTo(&k1);
  Item::Double(1.0).AppendGroupKeyTo(&k2);
  EXPECT_EQ(k1, k2);
}

TEST(ItemTest, CopyIsShallowAndCheap) {
  Item big = Item::MakeArray(Item::ItemVector(1000, Item::Int64(7)));
  Item copy = big;
  EXPECT_EQ(&big.array(), &copy.array());  // shared payload
}

// ---------------------------------------------------------------------
// String storage: at most Item::kInlineStringCapacity bytes inline, longer
// strings shared.
// ---------------------------------------------------------------------

/// True when the string's characters live inside the Item itself.
bool StoredInline(const Item& item) {
  const char* chars = item.string_value().data();
  const char* self = reinterpret_cast<const char*>(&item);
  return chars >= self && chars < self + sizeof(Item);
}

TEST(ItemStringTest, InlineUpToFifteenBytes) {
  Item at_limit = Item::String(std::string(15, 'a'));
  Item past_limit = Item::String(std::string(16, 'a'));
  EXPECT_TRUE(StoredInline(at_limit));
  EXPECT_FALSE(StoredInline(past_limit));
  EXPECT_EQ(at_limit.string_value(), std::string(15, 'a'));
  EXPECT_EQ(past_limit.string_value(), std::string(16, 'a'));

  Item empty = Item::String("");
  EXPECT_TRUE(StoredInline(empty));
  EXPECT_TRUE(empty.string_value().empty());
  EXPECT_FALSE(*empty.EffectiveBooleanValue());

  // A short string that had reserved a heap buffer is still inline.
  std::string reserved = "date";
  reserved.reserve(200);
  EXPECT_TRUE(StoredInline(Item::String(std::move(reserved))));
  EXPECT_TRUE(StoredInline(Item::String(std::string_view("20031225T00:00"))));

  // Long strings share one payload between copies.
  Item copy = past_limit;
  EXPECT_EQ(&copy.string_value(), &past_limit.string_value());
}

TEST(ItemStringTest, EmbeddedNulIsKept) {
  const std::string short_nul("a\0b", 3);
  const std::string long_nul("0123456789\0abcdefgh", 20);
  for (const std::string& text : {short_nul, long_nul}) {
    Item item = Item::String(text);
    EXPECT_EQ(item.string_value().size(), text.size());
    EXPECT_EQ(item.string_value(), text);
    EXPECT_EQ(item, Item::String(std::string_view(text)));
    Result<Item> back = DeserializeItem(SerializeItem(item));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->string_value(), text);
  }
  EXPECT_NE(Item::String(short_nul), Item::String(std::string("a", 1)));
}

/// One Item of each storage form the copy/move tests cross.
std::vector<std::pair<std::string, std::function<Item()>>> StorageForms() {
  return {
      {"inline", [] { return Item::String("short"); }},
      {"shared", [] { return Item::String("a string past the inline limit"); }},
      {"object", [] {
         return Item::MakeObject({{"k", Item::String("v")},
                                  {"n", Item::Int64(1)}});
       }},
      {"int", [] { return Item::Int64(42); }},
  };
}

TEST(ItemStringTest, CopyMoveAndAssignAcrossForms) {
  for (const auto& [from_name, make_from] : StorageForms()) {
    for (const auto& [to_name, make_to] : StorageForms()) {
      SCOPED_TRACE(from_name + " -> " + to_name);
      const Item expected = make_from();

      Item src = make_from();
      Item copy_constructed(src);
      EXPECT_EQ(copy_constructed, expected);
      EXPECT_EQ(src, expected);

      Item copy_assigned = make_to();
      copy_assigned = src;
      EXPECT_EQ(copy_assigned, expected);
      EXPECT_EQ(copy_assigned.kind(), expected.kind());
      EXPECT_EQ(src, expected);

      Item move_constructed(std::move(copy_constructed));
      EXPECT_EQ(move_constructed, expected);

      Item move_assigned = make_to();
      move_assigned = std::move(move_constructed);
      EXPECT_EQ(move_assigned, expected);
      EXPECT_EQ(move_assigned.ToJsonString(), expected.ToJsonString());

      // A moved-from Item may be assigned again.
      move_constructed = make_to();
      EXPECT_EQ(move_constructed, make_to());
    }
  }
}

TEST(ItemStringTest, OperationsAgreeAcrossTheInlineBoundary) {
  // The storage form is a function of length, so the two forms of a text
  // are its inline and shared neighbours: every operation must give what
  // the plain std::string reference gives, whichever form each side has.
  const std::vector<std::string> texts = {
      "",
      "a",
      std::string(14, 'x'),
      std::string(15, 'x'),
      std::string(16, 'x'),
      std::string(15, 'x') + "y",
      std::string(14, 'x') + "y",
      std::string(40, 'x'),
      "q\"uote\\slash\n",
      "q\"uote\\slash\n and more text",
  };
  for (const std::string& a : texts) {
    Item ia = Item::String(a);
    EXPECT_EQ(StoredInline(ia), a.size() <= Item::kInlineStringCapacity) << a;

    std::string json = "\"";
    for (char ch : a) {
      if (ch == '"' || ch == '\\') json.push_back('\\');
      json += ch == '\n' ? std::string("\\n") : std::string(1, ch);
    }
    json += "\"";
    EXPECT_EQ(ia.ToJsonString(), json);

    std::string key, expected_key;
    ia.AppendGroupKeyTo(&key);
    expected_key.push_back(static_cast<char>(ItemKind::kString));
    expected_key += a;
    EXPECT_EQ(key, expected_key);

    Result<Item> back = DeserializeItem(SerializeItem(ia));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, ia);
    EXPECT_EQ(StoredInline(*back), StoredInline(ia));
    EXPECT_EQ(SerializeItem(*back), SerializeItem(ia));

    for (const std::string& b : texts) {
      Item ib = Item::String(b);
      int c = a.compare(b);
      int expected = (c > 0) - (c < 0);
      Result<int> cmp = ia.Compare(ib);
      ASSERT_TRUE(cmp.ok());
      EXPECT_EQ(*cmp, expected) << a << " vs " << b;
      EXPECT_EQ(ia.Equals(ib), a == b) << a << " vs " << b;
    }
  }
}

TEST(ItemStringTest, EstimateSizeBytesIsPinned) {
  // The accounting size predates inline strings; budgets, spill decisions
  // and reported footprints depend on these exact numbers.
  EXPECT_EQ(Item::kAccountingBytes, 32u);
  EXPECT_EQ(Item().EstimateSizeBytes(), 32u);
  EXPECT_EQ(Item::Int64(7).EstimateSizeBytes(), 32u);
  EXPECT_EQ(Item::Double(1.5).EstimateSizeBytes(), 32u);
  EXPECT_EQ(Item::String("").EstimateSizeBytes(), 32u);
  EXPECT_EQ(Item::String("x").EstimateSizeBytes(), 33u);
  EXPECT_EQ(Item::String(std::string(15, 'x')).EstimateSizeBytes(), 47u);
  EXPECT_EQ(Item::String(std::string(16, 'x')).EstimateSizeBytes(), 48u);
  EXPECT_EQ(Item::String(std::string(1000, 'x')).EstimateSizeBytes(), 1032u);
  EXPECT_EQ(Item::MakeArray({Item::Int64(1), Item::String("ab")})
                .EstimateSizeBytes(),
            32u + 32u + 34u);
  EXPECT_EQ(Item::MakeObject({{"date", Item::String("20031225T00:00")},
                              {"value", Item::Int64(5)}})
                .EstimateSizeBytes(),
            32u + (4u + 46u) + (5u + 32u));
}

TEST(ItemStringTest, ThreadsCopyAndDestroySharedItems) {
  // Every form an exchange or join hands between partition threads.
  const Item::ItemVector originals = {
      Item::String("20031225T00:00"),
      Item::String("a string long enough to be shared"),
      Item::MakeObject({{"date", Item::String("20031225T00:00")},
                        {"station", Item::String("GSW000123")},
                        {"note", Item::String("shared between threads")}}),
      Item::MakeArray({Item::String("x"), Item::Int64(3)}),
  };
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&originals, &mismatches, t] {
      for (int round = 0; round < kRounds; ++round) {
        Item::ItemVector copies(originals.begin(), originals.end());
        Item moved = std::move(copies[round % copies.size()]);
        copies[round % copies.size()] = moved;
        for (size_t i = 0; i < copies.size(); ++i) {
          if (copies[i] != originals[i]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(originals[1].string_value(), "a string long enough to be shared");
}

}  // namespace
}  // namespace jpar
