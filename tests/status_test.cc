#include "common/status.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common/env.h"
#include "common/result.h"

namespace jpar {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(StatusTest, CopiesShareRepresentation) {
  Status a = Status::IOError("disk gone");
  Status b = a;
  EXPECT_EQ(b.message(), "disk gone");
  EXPECT_EQ(b.code(), StatusCode::kIOError);
}

TEST(StatusTest, EveryCodeHasADistinctName) {
  // Exhaustive by construction: status.cc static_asserts that
  // kStatusCodeCount covers the enum, so a newly added code lands here
  // automatically and fails until StatusCodeToString names it.
  std::set<std::string_view> names;
  for (int i = 0; i < kStatusCodeCount; ++i) {
    std::string_view name = StatusCodeToString(static_cast<StatusCode>(i));
    EXPECT_NE(name, "Unknown") << "StatusCode " << i << " has no name";
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate status name: " << name;
  }
  EXPECT_EQ(StatusCodeToString(static_cast<StatusCode>(kStatusCodeCount)),
            "Unknown");
}

TEST(StatusTest, LifecycleCodesRoundTrip) {
  Status cancelled = Status::Cancelled("client went away");
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "Cancelled: client went away");

  Status late = Status::DeadlineExceeded("budget spent");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.ToString(), "DeadlineExceeded: budget spent");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    JPAR_RETURN_NOT_OK(fails());
    return Status::Internal("unreachable");
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::TypeError("not an int");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto producer = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 10;
  };
  auto consumer = [&](bool fail) -> Result<int> {
    JPAR_ASSIGN_OR_RETURN(int v, producer(fail));
    return v * 2;
  };
  EXPECT_EQ(*consumer(false), 20);
  EXPECT_EQ(consumer(true).status().code(), StatusCode::kInternal);
}

TEST(ResultTest, AssignOrReturnIntoExistingVariable) {
  // The spill runtime threads Result values into variables declared
  // before the call (loop-carried readers, granted budgets), so the
  // macro must accept a plain lvalue as its lhs, not only a
  // declaration.
  auto producer = [](bool fail) -> Result<uint64_t> {
    if (fail) return Status::ResourceExhausted("no budget");
    return uint64_t{4096};
  };
  auto consumer = [&](bool fail) -> Result<uint64_t> {
    uint64_t granted = 0;
    JPAR_ASSIGN_OR_RETURN(granted, producer(fail));
    return granted / 2;
  };
  EXPECT_EQ(*consumer(false), 2048u);
  EXPECT_EQ(consumer(true).status().code(), StatusCode::kResourceExhausted);
}


// One parse rule for every JPAR_DISABLE_* kill-switch: unset, empty or
// "0" is off, anything else is on.
TEST(EnvFlagTest, UnsetEmptyAndZeroAreOffAnythingElseIsOn) {
  constexpr const char* kVar = "JPAR_ENV_FLAG_TEST_ONLY";
  ASSERT_EQ(unsetenv(kVar), 0);
  EXPECT_FALSE(EnvFlagSet(kVar));
  for (const char* off : {"", "0"}) {
    ASSERT_EQ(setenv(kVar, off, 1), 0);
    EXPECT_FALSE(EnvFlagSet(kVar)) << "value \"" << off << "\"";
  }
  for (const char* on : {"1", "yes", "00", "0x", "false"}) {
    ASSERT_EQ(setenv(kVar, on, 1), 0);
    EXPECT_TRUE(EnvFlagSet(kVar)) << "value \"" << on << "\"";
  }
  ASSERT_EQ(unsetenv(kVar), 0);
  EXPECT_FALSE(EnvFlagSet(kVar));
}

}  // namespace
}  // namespace jpar
