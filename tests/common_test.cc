// Unit tests for src/common.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/common/latency.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/uuid.h"
#include "src/common/zipf.h"

namespace aft {
namespace {

// ---- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsCarryCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing key");

  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueAndStatusRoundTrip) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = Status::Timeout("slow");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, MacrosPropagateErrors) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) {
      return Status::InvalidArgument("nope");
    }
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    AFT_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInvalidArgument);
}

// ---- Clocks -------------------------------------------------------------------

TEST(SimClockTest, SingleThreadSleepAdvancesInstantly) {
  SimClock clock;
  const TimePoint before = clock.Now();
  clock.SleepFor(Millis(250));
  EXPECT_EQ(clock.Now() - before, Millis(250));
}

TEST(SimClockTest, AdvanceWakesSleepers) {
  SimClock clock;
  clock.set_auto_advance(false);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(Millis(100));
    woke.store(true);
  });
  // Give the sleeper time to block; it cannot advance on its own.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  clock.Advance(Millis(100));
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(SimClockTest, WallTimeIsMonotonicAcrossTies) {
  SimClock clock;
  int64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const int64_t now = clock.WallTimeMicros();
    EXPECT_GT(now, last);
    last = now;
  }
}

TEST(SimClockTest, MultipleSleepersWakeInOrder) {
  SimClock clock;
  std::atomic<int> wake_count{0};
  std::vector<std::thread> sleepers;
  for (int i = 1; i <= 3; ++i) {
    sleepers.emplace_back([&clock, &wake_count, i] {
      clock.SleepFor(Millis(10 * i));
      wake_count.fetch_add(1);
    });
  }
  for (auto& t : sleepers) {
    t.join();
  }
  EXPECT_EQ(wake_count.load(), 3);
  EXPECT_GE(clock.Now(), TimePoint(Millis(30)));
}

TEST(RealClockTest, ScaledSleepIsShorterInWallTime) {
  RealClock clock(0.05);  // 20x faster than real time.
  const auto wall_start = std::chrono::steady_clock::now();
  clock.SleepFor(Millis(100));  // Should take ~5ms of wall time.
  const auto wall_elapsed = std::chrono::steady_clock::now() - wall_start;
  EXPECT_LT(wall_elapsed, std::chrono::milliseconds(60));
  // And simulated time advanced by at least the requested amount.
  EXPECT_GE(clock.Now(), TimePoint(Millis(90)));
}

// ---- UUIDs --------------------------------------------------------------------

TEST(UuidTest, RandomUuidsAreUniqueAndRoundTrip) {
  Rng rng(1);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const Uuid u = Uuid::Random(rng);
    EXPECT_FALSE(u.IsNil());
    const std::string text = u.ToString();
    EXPECT_EQ(text.size(), 36u);
    EXPECT_EQ(Uuid::Parse(text), u);
    seen.insert(text);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(UuidTest, OrderingIsLexicographicOnHiLo) {
  EXPECT_LT(Uuid(1, 2), Uuid(1, 3));
  EXPECT_LT(Uuid(1, 99), Uuid(2, 0));
  EXPECT_EQ(Uuid(5, 5), Uuid(5, 5));
}

TEST(UuidTest, ParseRejectsGarbage) {
  EXPECT_TRUE(Uuid::Parse("not-a-uuid").IsNil());
  EXPECT_TRUE(Uuid::Parse("").IsNil());
}

TEST(UuidTest, CodecRoundTripsSeededIdsAndRejectsNonCanonicalText) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const Uuid u(rng(), rng());  // Every bit pattern, not only v4 ones.
    std::string text = "prefix/";
    u.AppendTo(text);
    ASSERT_EQ(text.size(), 7 + Uuid::kStringLength);
    ASSERT_EQ(Uuid::Parse(std::string_view(text).substr(7)), u) << text;
  }
  EXPECT_EQ(Uuid(0x0123456789abcdefULL, 0xfedcba9876543210ULL).ToString(),
            "01234567-89ab-cdef-fedc-ba9876543210");
  EXPECT_EQ(Uuid::TryParse("00000000-0000-0000-0000-000000000000"), Uuid());
  EXPECT_EQ(Uuid::TryParse("ffffffff-ffff-ffff-ffff-ffffffffffff"), Uuid(~0ULL, ~0ULL));
  const std::vector<std::string> malformed = {
      "",
      "not-a-uuid",
      "01234567-89AB-CDEF-FEDC-BA9876543210",   // Uppercase.
      "01234567-89ab-cdef-fedc-ba987654321",    // 35 characters.
      "01234567-89ab-cdef-fedc-ba98765432100",  // 37 characters.
      "0123456789ab-cdef-fedc-ba9876543210-",   // Dashes moved.
      "01234567089ab-cdef-fedc-ba9876543210",   // A dash replaced.
      "0123456g-89ab-cdef-fedc-ba9876543210",   // Not hex.
      " 1234567-89ab-cdef-fedc-ba9876543210",   // Leading space.
      "+1234567-89ab-cdef-fedc-ba9876543210",   // Sign.
      "0x234567-89ab-cdef-fedc-ba9876543210",   // Radix prefix.
  };
  for (const std::string& text : malformed) {
    EXPECT_FALSE(Uuid::TryParse(text).has_value()) << text;
    EXPECT_TRUE(Uuid::Parse(text).IsNil()) << text;
  }
}

// ---- RNG / Zipf ----------------------------------------------------------------

TEST(RngTest, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, NextDoubleIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(ZipfTest, UniformWhenThetaZero) {
  Rng rng(11);
  ZipfSampler zipf(10, 0.0);
  std::map<uint64_t, int> counts;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(count, kSamples / 10.0, kSamples * 0.01);
  }
}

// The head of the distribution must dominate more as theta grows.
TEST(ZipfTest, SkewIncreasesWithTheta) {
  Rng rng(13);
  auto head_mass = [&](double theta) {
    ZipfSampler zipf(1000, theta);
    int head = 0;
    constexpr int kSamples = 20000;
    for (int i = 0; i < kSamples; ++i) {
      if (zipf.Sample(rng) == 0) {
        ++head;
      }
    }
    return static_cast<double>(head) / kSamples;
  };
  const double h10 = head_mass(1.0);
  const double h15 = head_mass(1.5);
  const double h20 = head_mass(2.0);
  EXPECT_LT(h10, h15);
  EXPECT_LT(h15, h20);
  EXPECT_GT(h20, 0.5);  // Zipf 2.0 over 1000 keys: rank 0 has >50% of mass.
}

TEST(ZipfTest, SamplesAlwaysInRange) {
  Rng rng(17);
  for (double theta : {0.0, 0.5, 0.99, 1.0, 1.5, 2.0}) {
    ZipfSampler zipf(37, theta);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_LT(zipf.Sample(rng), 37u) << "theta=" << theta;
    }
  }
}

TEST(ZipfTest, MatchesAnalyticHeadProbability) {
  // P(rank 0) = 1 / (1^t + ... + n^-t * ...) — compute the harmonic sum.
  const double theta = 1.0;
  const uint64_t n = 100;
  double z = 0;
  for (uint64_t k = 1; k <= n; ++k) {
    z += 1.0 / std::pow(static_cast<double>(k), theta);
  }
  Rng rng(19);
  ZipfSampler zipf(n, theta);
  int head = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Sample(rng) == 0) {
      ++head;
    }
  }
  EXPECT_NEAR(static_cast<double>(head) / kSamples, 1.0 / z, 0.01);
}

// ---- Latency models -------------------------------------------------------------

TEST(LatencyModelTest, ZeroModelCostsNothing) {
  Rng rng(1);
  EXPECT_EQ(LatencyModel::Zero().Sample(rng), Duration::zero());
}

TEST(LatencyModelTest, MedianRoughlyMatches) {
  Rng rng(23);
  LatencyModel model(10.0, 0.5);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(ToMillis(model.Sample(rng)));
  }
  EXPECT_NEAR(Percentile(samples, 50), 10.0, 0.5);
  // Lognormal: p99 well above median.
  EXPECT_GT(Percentile(samples, 99), 20.0);
}

TEST(LatencyModelTest, FloorIsRespected) {
  Rng rng(29);
  LatencyModel model(1.0, 1.5, /*floor_ms=*/0.8);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(ToMillis(model.Sample(rng)), 0.8);
  }
}

TEST(LatencyModelTest, PerKbCostScalesWithPayload) {
  Rng rng(31);
  LatencyModel model(5.0, 0.0, 0.0, /*per_kb_ms=*/1.0);
  const double small = ToMillis(model.Sample(rng, 1024));
  const double large = ToMillis(model.Sample(rng, 10 * 1024));
  EXPECT_NEAR(large - small, 9.0, 0.01);
}

// ---- Serde ----------------------------------------------------------------------

TEST(SerdeTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU32(123456);
  w.PutU64(0xDEADBEEFCAFEBABEULL);
  w.PutI64(-42);
  w.PutString("hello");
  w.PutStringVector({"a", "", "long string with spaces"});
  const std::string bytes = std::move(w).TakeData();

  BinaryReader r(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  std::string s;
  std::vector<std::string> v;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetI64(&i64));
  ASSERT_TRUE(r.GetString(&s));
  ASSERT_TRUE(r.GetStringVector(&v));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<std::string>{"a", "", "long string with spaces"}));
}

TEST(SerdeTest, TruncatedInputFailsCleanly) {
  BinaryWriter w;
  w.PutString("hello world");
  std::string bytes = std::move(w).TakeData();
  bytes.resize(bytes.size() - 3);
  BinaryReader r(bytes);
  std::string s;
  EXPECT_FALSE(r.GetString(&s));
}

TEST(SerdeTest, EmptyVectorRoundTrip) {
  BinaryWriter w;
  w.PutStringVector({});
  BinaryReader r(w.data());
  std::vector<std::string> v{"sentinel"};
  ASSERT_TRUE(r.GetStringVector(&v));
  EXPECT_TRUE(v.empty());
}

// ---- CRC-32 ----------------------------------------------------------------------

// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition, kept
// independent of the table-driven implementation under test.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(len, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.Below(256));
  }
  return bytes;
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 check value (IEEE 802.3, reflected 0xEDB88320).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every start offset within a 16-byte block (unaligned word loads) and
  // every length through several blocks (every tail length, every block
  // count up to 68).
  constexpr size_t kMaxOffset = 16;
  constexpr size_t kMaxLen = 1100;
  const std::string buffer = RandomBytes(kMaxOffset + kMaxLen, 7);
  const auto* bytes = reinterpret_cast<const uint8_t*>(buffer.data());
  for (size_t offset = 0; offset < kMaxOffset; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32(std::string_view(buffer).substr(offset, len)),
                ReferenceCrc32(bytes + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, StreamingFeedEqualsOneShotAtEverySplit) {
  constexpr size_t kLen = 300;
  const std::string buffer = RandomBytes(kLen, 11);
  const uint32_t one_shot = Crc32(buffer);
  ASSERT_EQ(one_shot, ReferenceCrc32(reinterpret_cast<const uint8_t*>(buffer.data()), kLen));
  const char* data = buffer.data();
  for (size_t a = 0; a <= kLen; ++a) {
    uint32_t state = Crc32Feed(Crc32Begin(), data, a);
    state = Crc32Feed(state, data + a, kLen - a);
    ASSERT_EQ(Crc32End(state), one_shot) << "split at " << a;
    // Three pieces: every pair of cuts a <= b, so both cuts land at every
    // offset within a 16-byte block and pieces can be shorter than one.
    for (size_t b = a; b <= kLen; ++b) {
      uint32_t three = Crc32Feed(Crc32Begin(), data, a);
      three = Crc32Feed(three, data + a, b - a);
      three = Crc32Feed(three, data + b, kLen - b);
      ASSERT_EQ(Crc32End(three), one_shot) << "splits at " << a << " and " << b;
    }
  }
}

// ---- Stats ---------------------------------------------------------------------

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 5.5);
}

TEST(StatsTest, RecorderSummarizes) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.RecordMillis(i);
  }
  const LatencySummary s = rec.Summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  EXPECT_NEAR(s.median_ms, 50.5, 0.01);
  EXPECT_NEAR(s.mean_ms, 50.5, 0.01);
}

TEST(StatsTest, MergeCombinesSamples) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.RecordMillis(1);
  b.RecordMillis(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
}

TEST(StatsTest, TimelineBucketsEvents) {
  SimClock clock;
  ThroughputTimeline timeline(clock, Millis(1000));
  timeline.Start();
  timeline.RecordEvent();
  timeline.RecordEvent();
  clock.Advance(Millis(1500));
  timeline.RecordEvent();
  const auto rows = timeline.Report();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].events_per_sec, 2.0);
  EXPECT_DOUBLE_EQ(rows[1].events_per_sec, 1.0);
  EXPECT_EQ(timeline.total(), 3u);
}

// ---- ThreadPool -----------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, WaitReturnsWhenIdle) {
  ThreadPool pool(2);
  pool.Wait();  // No tasks: returns immediately.
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace aft
