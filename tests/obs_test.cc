// Tests for the observability subsystem: metrics registry semantics,
// HDR histogram accuracy, windowed snapshots, the flight recorder, the
// stats exporter, JSONL export round-trip, trace span nesting, observer
// plumbing, and thread-safety of concurrent instrument updates.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"

namespace fkd {
namespace obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_DOUBLE_EQ(counter.Value(), 0.0);
  counter.Increment();
  counter.Increment(2.5);
  EXPECT_DOUBLE_EQ(counter.Value(), 3.5);
  counter.Reset();
  EXPECT_DOUBLE_EQ(counter.Value(), 0.0);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 10.0);
  gauge.Add(-3.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 7.0);
  gauge.Set(-1.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), -1.5);
}

TEST(HistogramTest, SummaryStats) {
  Histogram histogram;
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 0.0);

  for (double v : {1.0, 2.0, 4.0, 8.0, 100.0}) histogram.Observe(v);
  EXPECT_EQ(histogram.Count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 115.0);
  EXPECT_DOUBLE_EQ(histogram.Min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 100.0);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 23.0);

  histogram.Reset();
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.0);
}

TEST(HistogramTest, LogLinearBucketLayout) {
  HistogramOptions options;
  options.max_value = 8.0;   // 3 exponents: [1,2), [2,4), [4,8)
  options.sub_buckets = 4;   // 4 linear sub-buckets per exponent
  Histogram histogram(options);

  // underflow + 3*4 log-linear + overflow.
  ASSERT_EQ(histogram.num_buckets(), 1u + 3u * 4u + 1u);
  const auto bounds = histogram.BucketBounds();
  ASSERT_EQ(bounds.size(), histogram.num_buckets());
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);    // underflow: everything < 1
  EXPECT_DOUBLE_EQ(bounds[1], 1.25);   // [1, 2) split in 4
  EXPECT_DOUBLE_EQ(bounds[4], 2.0);
  EXPECT_DOUBLE_EQ(bounds[5], 2.5);    // [2, 4) split in 4
  EXPECT_DOUBLE_EQ(bounds[8], 4.0);
  EXPECT_DOUBLE_EQ(bounds[12], 8.0);
  EXPECT_TRUE(std::isinf(bounds.back()));
  // Bounds are strictly increasing: the cumulative percentile walk relies
  // on it.
  for (size_t i = 1; i < bounds.size(); ++i) EXPECT_GT(bounds[i], bounds[i - 1]);

  histogram.Observe(0.5);    // underflow
  histogram.Observe(-3.0);   // underflow (negative values share it)
  histogram.Observe(1.0);    // first log-linear bucket [1, 1.25)
  histogram.Observe(3.9);    // last sub-bucket of [2, 4)
  histogram.Observe(100.0);  // overflow
  const auto counts = histogram.BucketCounts();
  EXPECT_EQ(counts.front(), 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[8], 1u);
  EXPECT_EQ(counts.back(), 1u);
  EXPECT_EQ(histogram.Count(), 5u);
}

TEST(HistogramTest, PercentileIsOrderedAndBounded) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Observe(static_cast<double>(i));
  const double p50 = histogram.Percentile(0.5);
  const double p95 = histogram.Percentile(0.95);
  EXPECT_LE(p50, p95);
  EXPECT_GE(p50, histogram.Min());
  EXPECT_LE(p95, histogram.Max());
}

// Percentile accuracy against a sorted reference: the log-linear layout
// promises relative error bounded by ~1/sub_buckets regardless of the
// distribution's scale or shape.
TEST(HistogramTest, PercentileAccuracyAgainstSortedReference) {
  std::mt19937_64 rng(42);
  struct Case {
    const char* name;
    std::function<double()> draw;
  };
  std::uniform_real_distribution<double> uniform(1.0, 1e6);
  std::lognormal_distribution<double> lognormal(8.0, 2.0);
  std::exponential_distribution<double> exponential(1.0 / 5000.0);
  const Case cases[] = {
      {"uniform", [&] { return uniform(rng); }},
      {"lognormal", [&] { return lognormal(rng); }},
      {"exponential", [&] { return 1.0 + exponential(rng); }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Histogram histogram;
    std::vector<double> values;
    values.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      const double v = c.draw();
      values.push_back(v);
      histogram.Observe(v);
    }
    std::sort(values.begin(), values.end());
    for (double p : {0.5, 0.9, 0.99, 0.999}) {
      SCOPED_TRACE(p);
      const size_t rank = std::min(
          values.size() - 1, static_cast<size_t>(p * values.size()));
      const double exact = values[rank];
      const double approx = histogram.Percentile(p);
      // 64 sub-buckets bound the relative bucketing error at ~1.6%; allow
      // 5% for rank-vs-interpolation differences at the tails.
      EXPECT_NEAR(approx, exact, exact * 0.05);
    }
    // Exact at the extremes.
    EXPECT_DOUBLE_EQ(histogram.Min(), values.front());
    EXPECT_DOUBLE_EQ(histogram.Max(), values.back());
  }
}

TEST(HistogramTest, ConcurrentObserveIsLosslessAndAccurate) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      // Each thread records a disjoint slice of 1..160000, so the merged
      // distribution is uniform and every summary stat has a closed form.
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(static_cast<double>(t * kPerThread + i + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(histogram.Count(), kTotal);
  EXPECT_DOUBLE_EQ(histogram.Min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), static_cast<double>(kTotal));
  // Sum of 1..N, accumulated via CAS — no lost updates allowed.
  EXPECT_DOUBLE_EQ(histogram.Sum(),
                   static_cast<double>(kTotal) * (kTotal + 1) / 2.0);
  const double p50 = histogram.Percentile(0.5);
  EXPECT_NEAR(p50, kTotal / 2.0, kTotal * 0.05);
}

TEST(HistogramTest, WindowedSnapshotDeltaIsolatesRecentObservations) {
  Histogram histogram;
  // Epoch 1: slow requests around 100000us.
  for (int i = 0; i < 1000; ++i) histogram.Observe(100000.0 + i);
  const HistogramSnapshot first = histogram.Snapshot();
  EXPECT_EQ(first.count, 1000u);

  // Epoch 2: fast requests around 100us.
  for (int i = 0; i < 1000; ++i) histogram.Observe(100.0 + i % 10);
  const HistogramSnapshot second = histogram.Snapshot();
  EXPECT_EQ(second.count, 2000u);

  // Cumulative view is polluted by epoch 1; the window sees only epoch 2.
  const HistogramSnapshot window = SnapshotDelta(second, first);
  EXPECT_EQ(window.count, 1000u);
  EXPECT_LT(window.Percentile(0.99), 1000.0);
  // Cumulatively, the slow epoch still dominates the upper half.
  EXPECT_GT(second.Percentile(0.9), 1000.0);
  EXPECT_NEAR(window.Mean(), second.Mean() * 2.0 - first.Mean(), 50.0);
  // Delta min/max are approximated from the outermost non-empty buckets.
  EXPECT_LT(window.min, 200.0);
  EXPECT_LT(window.max, 200.0);

  // Empty window: no observations between snapshots.
  const HistogramSnapshot empty = SnapshotDelta(second, second);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.Percentile(0.99), 0.0);
}

TEST(FlightRecorderTest, RecordSnapshotAndClear) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Clear();
  recorder.Record(FlightEventType::kRequestSubmit, 7, 1000);
  recorder.Record(FlightEventType::kEngineEnqueue, 7, 3);
  recorder.Record(FlightEventType::kRequestComplete, 7, 420);

  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by timestamp; same thread so order == record order.
  EXPECT_EQ(events[0].type, FlightEventType::kRequestSubmit);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 1000u);
  EXPECT_EQ(events[2].type, FlightEventType::kRequestComplete);
  EXPECT_LE(events[0].ts_us, events[2].ts_us);

  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, RingOverwritesOldestAndKeepsCounting) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Clear();
  const size_t n = FlightRecorder::kRingSlots + 100;
  for (size_t i = 0; i < n; ++i) {
    recorder.Record(FlightEventType::kBatchStart, i, 0);
  }
  const auto events = recorder.Snapshot();
  // This thread's ring holds exactly kRingSlots events; the oldest 100
  // were overwritten.
  EXPECT_EQ(events.size(), FlightRecorder::kRingSlots);
  uint64_t min_a = ~0ull;
  for (const auto& event : events) min_a = std::min(min_a, event.a);
  EXPECT_GE(min_a, 100u);
  recorder.Clear();
}

TEST(FlightRecorderTest, DisabledRecorderDropsEvents) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Clear();
  recorder.SetEnabled(false);
  recorder.Record(FlightEventType::kFault, 1, 2);
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.SetEnabled(true);
  recorder.Record(FlightEventType::kFault, 1, 2);
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
  recorder.Clear();
}

TEST(FlightRecorderTest, ConcurrentRecordFromManyThreads) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Clear();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;  // < kRingSlots so nothing is overwritten
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(FlightEventType::kEngineEnqueue,
                        static_cast<uint64_t>(t), static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto events = recorder.Snapshot();
  EXPECT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  recorder.Clear();
}

TEST(FlightRecorderTest, DumpToFileIsReadable) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Clear();
  recorder.Record(FlightEventType::kRequestSubmit, 42, 0);
  recorder.Record(FlightEventType::kReplicaQuarantine, 1, 750);

  const std::string path = "obs_test_flight_dump.txt";
  ASSERT_TRUE(recorder.DumpToFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  EXPECT_NE(text.find("fkd flight recorder"), std::string::npos);
  EXPECT_NE(text.find("request_submit"), std::string::npos);
  EXPECT_NE(text.find("replica_quarantine"), std::string::npos);
  EXPECT_NE(text.find("a=42"), std::string::npos);
  EXPECT_NE(text.find("end of dump"), std::string::npos);
  std::remove(path.c_str());
  recorder.Clear();
}

TEST(StatsExporterTest, TickWritesParsableLineWithRatesAndWindows) {
  MetricsRegistry registry;
  registry.GetCounter("fkd.test.requests")->Increment(100.0);
  registry.GetGauge("fkd.test.depth")->Set(4.0);
  Histogram* latency = registry.GetHistogram("fkd.test.latency_us");
  for (int i = 0; i < 100; ++i) latency->Observe(500.0 + i);

  const std::string path = "obs_test_stats.jsonl";
  std::remove(path.c_str());
  StatsExporterOptions options;
  options.path = path;
  options.interval_ms = 60000;  // ticks driven manually
  options.registry = &registry;
  StatsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  exporter.TickOnce();

  // Second tick sees only the delta: 50 more increments, faster requests.
  registry.GetCounter("fkd.test.requests")->Increment(50.0);
  for (int i = 0; i < 100; ++i) latency->Observe(100.0);
  exporter.TickOnce();
  exporter.Stop();
  EXPECT_GE(exporter.NumTicks(), 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  for (const auto& l : lines) {
    EXPECT_EQ(l.find("{\"type\":\"fkd_stats\""), 0u) << l;
    EXPECT_NE(l.find("\"counters\""), std::string::npos);
    EXPECT_NE(l.find("\"histograms\""), std::string::npos);
  }
  EXPECT_NE(lines[0].find("fkd.test.requests"), std::string::npos);
  EXPECT_NE(lines[0].find("\"total\":100"), std::string::npos);
  EXPECT_NE(lines[0].find("fkd.test.depth"), std::string::npos);
  EXPECT_NE(lines[0].find("\"p999\""), std::string::npos);
  // The second tick's counter total reflects the increment and its window
  // covers only the 100 fast observations.
  EXPECT_NE(lines[1].find("\"total\":150"), std::string::npos);
  EXPECT_NE(lines[1].find("\"window\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"count\":100"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StatsExporterTest, BackgroundThreadTicksOnItsOwn) {
  MetricsRegistry registry;
  registry.GetCounter("fkd.test.bg")->Increment();
  const std::string path = "obs_test_stats_bg.jsonl";
  std::remove(path.c_str());
  StatsExporterOptions options;
  options.path = path;
  options.interval_ms = 10;
  options.registry = &registry;
  StatsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  // Wait for at least two periodic ticks (bounded spin, generous timeout).
  for (int i = 0; i < 500 && exporter.NumTicks() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  exporter.Stop();
  EXPECT_GE(exporter.NumTicks(), 2u);
  std::remove(path.c_str());
}

TEST(RegistryTest, SameNameAndLabelsYieldSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("fkd.test.hits", {{"method", "gcn"}});
  Counter* b = registry.GetCounter("fkd.test.hits", {{"method", "gcn"}});
  Counter* c = registry.GetCounter("fkd.test.hits", {{"method", "rnn"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.NumInstruments(), 2u);
}

TEST(RegistryTest, LabelOrderDoesNotMatter) {
  MetricsRegistry registry;
  Gauge* a = registry.GetGauge("g", {{"x", "1"}, {"y", "2"}});
  Gauge* b = registry.GetGauge("g", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.NumInstruments(), 1u);
}

TEST(RegistryTest, ResetZeroesButKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Histogram* histogram = registry.GetHistogram("h");
  counter->Increment(5.0);
  histogram->Observe(3.0);

  registry.Reset();
  EXPECT_EQ(registry.NumInstruments(), 2u);
  EXPECT_DOUBLE_EQ(counter->Value(), 0.0);
  EXPECT_EQ(histogram->Count(), 0u);
  // The same pointers are still live and writable after Reset.
  counter->Increment();
  EXPECT_DOUBLE_EQ(registry.GetCounter("c")->Value(), 1.0);
  EXPECT_EQ(registry.GetCounter("c"), counter);
}

TEST(RegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 10000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread resolves the instrument itself: exercises the
      // registry's fetch-or-create path under contention too.
      Counter* counter =
          registry.GetCounter("fkd.test.concurrent", {{"kind", "counter"}});
      Histogram* histogram =
          registry.GetHistogram("fkd.test.latency", {{"kind", "histogram"}});
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        counter->Increment();
        histogram->Observe(1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_DOUBLE_EQ(
      registry.GetCounter("fkd.test.concurrent", {{"kind", "counter"}})
          ->Value(),
      static_cast<double>(kThreads * kIncrementsPerThread));
  EXPECT_EQ(
      registry.GetHistogram("fkd.test.latency", {{"kind", "histogram"}})
          ->Count(),
      static_cast<uint64_t>(kThreads * kIncrementsPerThread));
}

TEST(RegistryTest, ExportTextMentionsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("alpha")->Increment(2.0);
  registry.GetGauge("beta", {{"m", "x"}})->Set(0.5);
  registry.GetHistogram("gamma")->Observe(7.0);
  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("m=x"), std::string::npos);
  EXPECT_NE(text.find("gamma"), std::string::npos);
}

TEST(RegistryTest, JsonlRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("fkd.test.runs", {{"method", "line"}})->Increment(3.0);
  registry.GetGauge("fkd.test.loss", {{"method", "line"}})->Set(0.25);
  Histogram* histogram = registry.GetHistogram("fkd.test.us");
  histogram->Observe(10.0);
  histogram->Observe(30.0);

  const std::string jsonl = registry.ExportJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  size_t parsed = 0;
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto record_result = ParseMetricJsonl(line);
    ASSERT_TRUE(record_result.ok()) << record_result.status().ToString()
                                    << " line: " << line;
    const MetricRecord& record = record_result.value();
    ++parsed;
    if (record.name == "fkd.test.runs") {
      saw_counter = true;
      EXPECT_EQ(record.type, "counter");
      EXPECT_DOUBLE_EQ(record.value, 3.0);
      ASSERT_EQ(record.labels.size(), 1u);
      EXPECT_EQ(record.labels[0].first, "method");
      EXPECT_EQ(record.labels[0].second, "line");
    } else if (record.name == "fkd.test.loss") {
      saw_gauge = true;
      EXPECT_EQ(record.type, "gauge");
      EXPECT_DOUBLE_EQ(record.value, 0.25);
    } else if (record.name == "fkd.test.us") {
      saw_histogram = true;
      EXPECT_EQ(record.type, "histogram");
      EXPECT_EQ(record.count, 2u);
      EXPECT_DOUBLE_EQ(record.sum, 40.0);
    }
  }
  EXPECT_EQ(parsed, 3u);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histogram);
}

TEST(RegistryTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseMetricJsonl("not json").ok());
  EXPECT_FALSE(ParseMetricJsonl("{}").ok());
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable(false);
  tracer.Clear();
  { ScopedSpan span("test/disabled"); }
  EXPECT_EQ(tracer.NumEvents(), 0u);
}

TEST(TracerTest, SpanNestingDepthsAndContainment) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.Enable(true);
  {
    ScopedSpan outer("test/outer");
    {
      ScopedSpan inner("test/inner");
    }
  }
  tracer.Enable(false);

  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete innermost-first.
  EXPECT_STREQ(events[0].name, "test/inner");
  EXPECT_STREQ(events[1].name, "test/outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[0].thread_id, events[1].thread_id);
  // The inner span is contained within the outer span.
  EXPECT_GE(events[0].start_us, events[1].start_us);
  EXPECT_LE(events[0].start_us + events[0].duration_us,
            events[1].start_us + events[1].duration_us);

  const std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test/inner"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  tracer.Clear();
}

TEST(TracerTest, CapacityBoundsBufferAndCountsDrops) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.SetCapacity(2);
  tracer.Enable(true);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("test/drop");
  }
  tracer.Enable(false);
  EXPECT_EQ(tracer.NumEvents(), 2u);
  EXPECT_EQ(tracer.NumDropped(), 3u);
  tracer.SetCapacity(1 << 16);
  tracer.Clear();
}

TEST(ObserverTest, NotifyHelpersTolerateNull) {
  NotifyTrainBegin(nullptr, "m", 3);
  NotifyEpochEnd(nullptr, "m", EpochStats{});
  NotifyTrainEnd(nullptr, "m", 3, 0.1);
}

TEST(ObserverTest, MetricsObserverWritesInstruments) {
  MetricsRegistry registry;
  MetricsObserver observer(&registry);

  EpochStats stats;
  stats.epoch = 0;
  stats.loss = 0.7f;
  stats.grad_norm = 2.0f;
  stats.seconds = 0.01;
  stats.total_seconds = 0.01;
  observer.OnEpochEnd("gcn", stats);
  stats.epoch = 1;
  stats.loss = 0.5f;
  stats.validation_loss = 0.6f;
  observer.OnEpochEnd("gcn", stats);
  observer.OnTrainEnd("gcn", 2, 0.02);

  const Labels labels = {{"method", "gcn"}};
  EXPECT_DOUBLE_EQ(registry.GetCounter("fkd.train.epochs", labels)->Value(),
                   2.0);
  EXPECT_DOUBLE_EQ(registry.GetCounter("fkd.train.runs", labels)->Value(),
                   1.0);
  EXPECT_NEAR(registry.GetGauge("fkd.train.loss", labels)->Value(), 0.5,
              1e-6);
  EXPECT_NEAR(registry.GetGauge("fkd.train.validation_loss", labels)->Value(),
              0.6, 1e-6);
  EXPECT_EQ(registry.GetHistogram("fkd.train.epoch_us", labels)->Count(), 2u);
  EXPECT_NEAR(registry.GetGauge("fkd.train.wall_s", labels)->Value(), 0.02,
              1e-9);
}

TEST(ObserverTest, TeeFansOutToBoth) {
  struct CountingObserver : TrainObserver {
    int begins = 0, epochs = 0, ends = 0;
    void OnTrainBegin(const std::string&, size_t) override { ++begins; }
    void OnEpochEnd(const std::string&, const EpochStats&) override {
      ++epochs;
    }
    void OnTrainEnd(const std::string&, size_t, double) override { ++ends; }
  };
  CountingObserver first, second;
  TeeObserver tee(&first, &second);
  tee.OnTrainBegin("m", 1);
  tee.OnEpochEnd("m", EpochStats{});
  tee.OnTrainEnd("m", 1, 0.0);
  EXPECT_EQ(first.begins, 1);
  EXPECT_EQ(second.epochs, 1);
  EXPECT_EQ(first.ends, 1);
  EXPECT_EQ(second.ends, 1);
}

TEST(ScopedTimerTest, ReportsIntoHistogramSink) {
  Histogram histogram;
  {
    ScopedTimer<Histogram> timer(&histogram);
    EXPECT_GE(timer.ElapsedMicros(), 0.0);
  }
  EXPECT_EQ(histogram.Count(), 1u);
  EXPECT_GE(histogram.Sum(), 0.0);
  // Null sink: timing is disabled, nothing crashes.
  { ScopedTimer<Histogram> disabled(nullptr); }
  EXPECT_EQ(histogram.Count(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace fkd
