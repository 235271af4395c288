#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/time_util.h"

namespace trips {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "thing");
  EXPECT_EQ(s.ToString(), "NotFound: thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kParseError, StatusCode::kIOError,
        StatusCode::kInternal, StatusCode::kNotSupported}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::IOError("x"), Status::IOError("x"));
  EXPECT_FALSE(Status::IOError("x") == Status::IOError("y"));
  EXPECT_FALSE(Status::IOError("x") == Status::Internal("x"));
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UseReturnNotOk(int v) {
  TRIPS_RETURN_NOT_OK(FailIfNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(UseReturnNotOk(1).ok());
  EXPECT_EQ(UseReturnNotOk(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  TRIPS_ASSIGN_OR_RETURN(int h, Half(v));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3, odd
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).ValueOrDie();
  EXPECT_EQ(s, "hello");
}

// ---------- string_util ----------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("one", ','), (std::vector<std::string>{"one"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("device-12", "device"));
  EXPECT_FALSE(StartsWith("dev", "device"));
  EXPECT_TRUE(EndsWith("a.result.json", ".json"));
  EXPECT_FALSE(EndsWith("json", ".json"));
}

TEST(StringUtilTest, GlobMatchBasics) {
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("3a.*.14", "3a.6f.14"));
  EXPECT_TRUE(GlobMatch("3a.*.14", "3a..14"));
  EXPECT_FALSE(GlobMatch("3a.*.14", "3b.6f.14"));
  EXPECT_TRUE(GlobMatch("dev-?", "dev-7"));
  EXPECT_FALSE(GlobMatch("dev-?", "dev-77"));
  EXPECT_TRUE(GlobMatch("", ""));
  EXPECT_FALSE(GlobMatch("", "x"));
  EXPECT_TRUE(GlobMatch("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "aXXcYYb"));
}

TEST(StringUtilTest, ToLowerAndFormatDouble) {
  EXPECT_EQ(ToLower("DeViCe_ID"), "device_id");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

// ---------- time_util ----------

TEST(TimeUtilTest, FormatParseRoundTrip) {
  auto parsed = ParseTimestamp("2017-01-01 13:02:05");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(FormatTimestamp(parsed.ValueOrDie()), "2017-01-01 13:02:05.000");
  EXPECT_EQ(FormatClock(parsed.ValueOrDie()), "13:02:05");
}

TEST(TimeUtilTest, ParseWithMillis) {
  auto parsed = ParseTimestamp("2017-01-01 00:00:00.250");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie() % 1000, 250);
}

TEST(TimeUtilTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseTimestamp("not a time").ok());
  EXPECT_FALSE(ParseTimestamp("2017-13-01 00:00:00").ok());
  EXPECT_FALSE(ParseTimestamp("2017-01-32 00:00:00").ok());
  EXPECT_FALSE(ParseTimestamp("2017-01-01 25:00:00").ok());
}

TEST(TimeUtilTest, EpochZero) {
  EXPECT_EQ(FormatTimestamp(0), "1970-01-01 00:00:00.000");
}

TEST(TimeUtilTest, TimeRangeOps) {
  TimeRange r{100, 200};
  EXPECT_TRUE(r.Valid());
  EXPECT_EQ(r.Duration(), 100);
  EXPECT_TRUE(r.Contains(100));
  EXPECT_TRUE(r.Contains(200));
  EXPECT_FALSE(r.Contains(201));
  EXPECT_TRUE(r.Overlaps({200, 300}));
  EXPECT_TRUE(r.Overlaps({150, 160}));
  EXPECT_FALSE(r.Overlaps({201, 300}));
  EXPECT_FALSE((TimeRange{5, 2}).Valid());
}

TEST(TimeUtilTest, MillisOfDay) {
  auto t = ParseTimestamp("2017-01-02 10:00:00");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(MillisOfDay(t.ValueOrDie()), 10 * kMillisPerHour);
  EXPECT_EQ(MillisOfDay(0), 0);
}

// ---------- rng ----------

TEST(RngTest, DeterministicWithSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LT(v, 3);
    int64_t n = rng.UniformInt(5, 9);
    EXPECT_GE(n, 5);
    EXPECT_LE(n, 9);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
    EXPECT_FALSE(rng.Chance(-1.0));
    EXPECT_TRUE(rng.Chance(2.0));
  }
}

TEST(RngTest, GaussianMeanApproximation) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

// A zero spread is the exact mean and leaves the random stream where a
// positive spread would (noise knobs set to 0 must not reshuffle a run).
TEST(RngTest, GaussianZeroStddevReturnsMeanAndKeepsStream) {
  Rng zero(9), twin(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zero.Gaussian(3, 0), 3.0);
    twin.Gaussian(3, 1);
    EXPECT_EQ(zero.Uniform(0, 1), twin.Uniform(0, 1));
  }
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(4);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1] * 2);
}

TEST(RngTest, WeightedIndexDegenerateCases) {
  Rng rng(5);
  EXPECT_EQ(rng.WeightedIndex({}), 0u);
  EXPECT_EQ(rng.WeightedIndex({0.0, 0.0}), 0u);
}

// ---------- logging ----------

TEST(LoggingTest, LevelGate) {
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  TRIPS_LOG(Info) << "suppressed";  // must not crash
  SetLogLevel(LogLevel::kWarn);
}

// ---------- ThreadPool ----------

// With every worker busy, the caller of ParallelFor runs all the items
// itself; the helper tasks it posted never start and are taken back out of
// the queue before the call returns.
TEST(ThreadPoolTest, ParallelForLeavesNoHelperQueued) {
  // Declared before the pool, so its workers are joined before these go.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> blocked{0};
  obs::Gauge queue_depth;
  util::ThreadPool pool(2);
  pool.SetMetrics({.queue_depth = &queue_depth});
  for (int w = 0; w < 2; ++w) {
    pool.Submit([&] {
      ++blocked;
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  }
  while (blocked.load() < 2) std::this_thread::yield();

  std::atomic<int> items{0};
  pool.ParallelFor(8, [&](size_t) { ++items; });
  EXPECT_EQ(items.load(), 8);
  EXPECT_EQ(queue_depth.Value(), 0);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}

}  // namespace
}  // namespace trips
