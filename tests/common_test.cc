#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace fkd {
namespace {

// ---- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::IoError("x"), Status::IoError("x"));
  EXPECT_FALSE(Status::IoError("x") == Status::IoError("y"));
  EXPECT_FALSE(Status::IoError("x") == Status::Corruption("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 11; ++code) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(StatusTest, IsRetryableOnlyForTransientCodes) {
  // Retryable: the operation might succeed if simply repeated.
  EXPECT_TRUE(Status::Unavailable("overloaded").IsRetryable());
  EXPECT_TRUE(Status::IoError("disk hiccup").IsRetryable());
  // Everything else is either success or a deterministic failure.
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("bad").IsRetryable());
  EXPECT_FALSE(Status::NotFound("gone").IsRetryable());
  EXPECT_FALSE(Status::Corruption("torn").IsRetryable());
  EXPECT_FALSE(Status::Internal("bug").IsRetryable());
  EXPECT_FALSE(Status::DeadlineExceeded("late").IsRetryable());
  EXPECT_FALSE(Status::FailedPrecondition("not ready").IsRetryable());
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(ResultTest, ValueAndError) {
  auto good = HalveEven(8);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 4);

  auto bad = HalveEven(7);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, ValueOr) {
  EXPECT_EQ(HalveEven(8).value_or(-1), 4);
  EXPECT_EQ(HalveEven(7).value_or(-1), -1);
}

Status UseMacros(int x, int* out) {
  FKD_ASSIGN_OR_RETURN(int half, HalveEven(x));
  FKD_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  *out = quarter;
  FKD_RETURN_NOT_OK(quarter == 0 ? Status::OutOfRange("zero") : Status::OK());
  return Status::OK();
}

TEST(ResultTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UseMacros(8, &out).ok());
  EXPECT_EQ(out, 2);
  EXPECT_EQ(UseMacros(6, &out).code(), StatusCode::kInvalidArgument);  // 3 odd
  EXPECT_EQ(UseMacros(0, &out).code(), StatusCode::kOutOfRange);
}

// ---- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const uint64_t v = rng.UniformInt(5u);
    EXPECT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit.
}

TEST(RngTest, UniformIntRangeInclusive) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(4);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.08);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(6);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(RngTest, PowerLawWithinBoundsAndHeavyHead) {
  Rng rng(7);
  int ones = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.PowerLaw(2.1, 100);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
    if (v == 1) ++ones;
  }
  EXPECT_GT(ones, 2000);  // Majority mass at k = 1 for alpha ~ 2.
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(10);
  const auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, DumpRestoreStateResumesExactStream) {
  Rng rng(42);
  // Consume an odd number of Normal() draws so the Box-Muller cache is hot
  // when the state is captured — the dump must carry it.
  for (int i = 0; i < 7; ++i) rng.Normal();
  for (int i = 0; i < 5; ++i) rng.Next();
  const auto state = rng.DumpState();

  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(rng.Normal());

  Rng other(999);  // deliberately different seed and stream position
  other.Next();
  ASSERT_TRUE(other.RestoreState(state));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(other.Normal(), expected[i]) << "stream diverged at draw " << i;
  }
}

TEST(RngTest, RestoreStateRejectsInvalidDumps) {
  Rng rng(1);
  const uint64_t before = rng.Next();
  Rng probe(1);
  probe.Next();
  EXPECT_FALSE(probe.RestoreState({}));
  EXPECT_FALSE(probe.RestoreState({1, 2, 3}));
  EXPECT_FALSE(probe.RestoreState({1, 2, 3, 4, 7 /* bad flag */, 0}));
  // A rejected restore leaves the stream untouched.
  Rng fresh(1);
  fresh.Next();
  EXPECT_EQ(probe.Next(), fresh.Next());
  (void)before;
}

// ---- string_util -------------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  const auto fields = Split("a\tb\t\tc", '\t');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "c");
}

TEST(StringUtilTest, SplitEmptyInput) {
  const auto fields = Split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(StringUtilTest, SplitWhitespaceSkipsRuns) {
  const auto tokens = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "foo");
  EXPECT_EQ(tokens[2], "baz");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, ToLowerStartsEndsWith) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("bar", "foobar"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtilTest, ParseUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("123", &v));
  EXPECT_EQ(v, 123u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));  // UINT64_MAX
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // Overflow.
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("-2.5e2", &v));
  EXPECT_DOUBLE_EQ(v, -250.0);
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

// ---- FlagParser ---------------------------------------------------------------

TEST(FlagsTest, DefaultsAndOverrides) {
  FlagParser flags;
  flags.AddInt("n", 5, "count");
  flags.AddDouble("rate", 0.5, "rate");
  flags.AddBool("fast", false, "speed");
  flags.AddString("name", "x", "name");

  const char* argv[] = {"prog", "--n=10", "--fast", "--rate=0.25"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt("n"), 10);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.25);
  EXPECT_TRUE(flags.GetBool("fast"));
  EXPECT_EQ(flags.GetString("name"), "x");
}

TEST(FlagsTest, NegativeInt) {
  FlagParser flags;
  flags.AddInt("delta", 0, "");
  const char* argv[] = {"prog", "--delta=-42"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt("delta"), -42);
}

TEST(FlagsTest, UnknownFlagRejected) {
  FlagParser flags;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_EQ(flags.Parse(2, const_cast<char**>(argv)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagsTest, BadValuesRejected) {
  FlagParser flags;
  flags.AddInt("n", 0, "");
  flags.AddBool("b", false, "");
  const char* argv1[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv1)).ok());
  const char* argv2[] = {"prog", "--b=maybe"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv2)).ok());
}

TEST(FlagsTest, PositionalRejected) {
  FlagParser flags;
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, HelpReturnsFailedPrecondition) {
  FlagParser flags;
  flags.AddInt("n", 3, "count");
  const char* argv[] = {"prog", "--help"};
  EXPECT_EQ(flags.Parse(2, const_cast<char**>(argv)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_NE(flags.Usage("prog").find("count"), std::string::npos);
}

// ---- Logging ----------------------------------------------------------------

TEST(LoggingTest, ParseLogLevelNames) {
  LogLevel level;
  EXPECT_TRUE(internal::ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(internal::ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(internal::ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(internal::ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(internal::ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(internal::ParseLogLevel("fatal", &level));
  EXPECT_EQ(level, LogLevel::kFatal);
}

TEST(LoggingTest, ParseLogLevelDigits) {
  LogLevel level;
  EXPECT_TRUE(internal::ParseLogLevel("0", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(internal::ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kError);
}

TEST(LoggingTest, ParseLogLevelRejectsGarbage) {
  LogLevel level;
  EXPECT_FALSE(internal::ParseLogLevel("", &level));
  EXPECT_FALSE(internal::ParseLogLevel("verbose", &level));
  EXPECT_FALSE(internal::ParseLogLevel("7", &level));
  EXPECT_FALSE(internal::ParseLogLevel(nullptr, &level));
}

TEST(LoggingTest, LinesCarryTimestampAndSeverityPrefix) {
  const LogLevel saved = internal::GetMinLogLevel();
  internal::SetMinLogLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  FKD_LOG(Info) << "timestamp probe";
  const std::string output = ::testing::internal::GetCapturedStderr();
  internal::SetMinLogLevel(saved);

  // Expect "[2026-08-06T12:34:56.789Z INFO file:line] timestamp probe".
  ASSERT_FALSE(output.empty());
  EXPECT_EQ(output[0], '[');
  ASSERT_GE(output.size(), 25u);
  const std::string stamp = output.substr(1, 24);
  EXPECT_EQ(stamp[4], '-');
  EXPECT_EQ(stamp[7], '-');
  EXPECT_EQ(stamp[10], 'T');
  EXPECT_EQ(stamp[13], ':');
  EXPECT_EQ(stamp[16], ':');
  EXPECT_EQ(stamp[19], '.');
  EXPECT_EQ(stamp[23], 'Z');
  EXPECT_NE(output.find(" INFO "), std::string::npos);
  EXPECT_NE(output.find("common_test.cc:"), std::string::npos);
  EXPECT_NE(output.find("] timestamp probe"), std::string::npos);
}

TEST(LoggingTest, MessagesBelowMinLevelAreSuppressed) {
  const LogLevel saved = internal::GetMinLogLevel();
  internal::SetMinLogLevel(LogLevel::kError);
  ::testing::internal::CaptureStderr();
  FKD_LOG(Info) << "should not appear";
  const std::string output = ::testing::internal::GetCapturedStderr();
  internal::SetMinLogLevel(saved);
  EXPECT_EQ(output.find("should not appear"), std::string::npos);
}

// ---- Clock ------------------------------------------------------------------

TEST(ClockTest, RealClockIsMonotonicAndWallIsPlausible) {
  const int64_t a = MonotonicUs();
  const int64_t b = MonotonicUs();
  EXPECT_GE(b, a);
  // Wall time is microseconds since the Unix epoch: anything after
  // 2020-01-01 (1577836800s) is "the clock is set at all".
  EXPECT_GT(WallUs(), 1577836800LL * 1000000LL);
}

}  // namespace
}  // namespace fkd
