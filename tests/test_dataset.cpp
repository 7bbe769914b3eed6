#include "monitoring/dataset.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <new>
#include <stdexcept>

// Counts heap allocations, so the retention tests can show that a bounded
// store's steady-state appends allocate nothing.
namespace {
std::size_t allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC reports free() inside a replaced operator delete as a mismatch with
// operator new, although this operator new is malloc().
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace pfm::mon {
namespace {

MonitoringDataset small_dataset() {
  MonitoringDataset ds(SymptomSchema({"a", "b"}));
  for (int i = 0; i <= 100; ++i) {
    ds.add_sample({i * 10.0, {static_cast<double>(i), 1.0}});
  }
  ds.add_event({50.0, 201, 0, 2});
  ds.add_event({250.0, 202, 0, 3});
  ds.add_event({420.0, 204, 1, 4});
  ds.add_failure(500.0);
  ds.add_failure(900.0);
  return ds;
}

TEST(Dataset, SchemaMismatchRejected) {
  MonitoringDataset ds(SymptomSchema({"a", "b"}));
  EXPECT_THROW(ds.add_sample({0.0, {1.0}}), std::invalid_argument);
  EXPECT_NO_THROW(ds.add_sample({0.0, {1.0, 2.0}}));
}

TEST(Dataset, MonotonicTimestampsEnforcedPerStream) {
  MonitoringDataset ds(SymptomSchema({"a"}));
  ds.add_sample({10.0, {1.0}});
  EXPECT_THROW(ds.add_sample({5.0, {1.0}}), std::invalid_argument);
  ds.add_event({10.0, 1, 0, 1});
  EXPECT_THROW(ds.add_event({5.0, 1, 0, 1}), std::invalid_argument);
  ds.add_failure(10.0);
  EXPECT_THROW(ds.add_failure(5.0), std::invalid_argument);
  // Streams are independent: an earlier event after a later sample is fine.
  EXPECT_NO_THROW(ds.add_event({12.0, 2, 0, 1}));
}

TEST(Dataset, EndTimeSpansAllStreams) {
  const auto ds = small_dataset();
  EXPECT_DOUBLE_EQ(ds.end_time(), 1000.0);  // last sample at t=1000
}

TEST(Dataset, FailureWithinUsesHalfOpenInterval) {
  const auto ds = small_dataset();
  EXPECT_TRUE(ds.failure_within(400.0, 600.0));
  EXPECT_TRUE(ds.failure_within(500.0, 501.0));
  EXPECT_FALSE(ds.failure_within(400.0, 500.0));  // [400, 500) excludes 500
  EXPECT_FALSE(ds.failure_within(501.0, 899.0));
}

TEST(Dataset, SplitPartitionsEverything) {
  const auto ds = small_dataset();
  const auto [before, after] = ds.split_at(500.0);
  EXPECT_EQ(before.samples().size() + after.samples().size(),
            ds.samples().size());
  EXPECT_EQ(before.events().size(), 3u);  // events at 50, 250, 420
  EXPECT_EQ(after.events().size(), 0u);
  EXPECT_EQ(before.failures().size(), 0u);  // failure at exactly 500 -> after
  EXPECT_EQ(after.failures().size(), 2u);
  for (const auto& s : before.samples()) EXPECT_LT(s.time, 500.0);
  for (const auto& s : after.samples()) EXPECT_GE(s.time, 500.0);
}

TEST(Dataset, LabeledWindowsMarkPreFailureSamples) {
  const auto ds = small_dataset();
  // Lead 100 s, prediction window 100 s: a sample at t is positive when a
  // failure falls into [t+100, t+200).
  const auto windows = ds.labeled_windows(100.0, 100.0);
  ASSERT_FALSE(windows.empty());
  for (const auto& w : windows) {
    // Failure at 500 is inside [t+100, t+200) exactly when t in (300, 400].
    const bool expect_positive =
        (w.time > 300.0 && w.time <= 400.0) ||
        (w.time > 700.0 && w.time <= 800.0);
    EXPECT_EQ(w.failure_follows, expect_positive) << "at t=" << w.time;
    EXPECT_EQ(w.features.size(), 2u);
  }
  // Samples whose prediction window exceeds the trace end are dropped.
  for (const auto& w : windows) EXPECT_LE(w.time + 200.0, ds.end_time());
}

TEST(Dataset, LabeledWindowsValidatesParameters) {
  const auto ds = small_dataset();
  EXPECT_THROW(ds.labeled_windows(-1.0, 100.0), std::invalid_argument);
  EXPECT_THROW(ds.labeled_windows(0.0, 0.0), std::invalid_argument);
}

TEST(Dataset, FailureSequencesUseDataWindowAndLeadTime) {
  const auto ds = small_dataset();
  // Failure at 500: window [500-60-240, 500-60) = [200, 440).
  const auto seqs = ds.failure_sequences(240.0, 60.0);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_TRUE(seqs[0].preceded_failure);
  EXPECT_DOUBLE_EQ(seqs[0].end_time, 440.0);
  ASSERT_EQ(seqs[0].events.size(), 2u);  // events at 250 and 420
  EXPECT_EQ(seqs[0].events[0].event_id, 202);
  EXPECT_EQ(seqs[0].events[1].event_id, 204);
  // Second failure window [600, 840): no events.
  EXPECT_TRUE(seqs[1].events.empty());
}

TEST(Dataset, FailureSequencesSkipTruncatedWindows) {
  MonitoringDataset ds{SymptomSchema{}};
  ds.add_failure(100.0);  // window would start before t=0
  const auto seqs = ds.failure_sequences(240.0, 60.0);
  EXPECT_TRUE(seqs.empty());
}

TEST(Dataset, NonFailureSequencesAvoidFailureNeighborhoods) {
  const auto ds = small_dataset();
  const auto seqs = ds.nonfailure_sequences(240.0, 60.0, 100.0, 50.0);
  ASSERT_FALSE(seqs.empty());
  for (const auto& seq : seqs) {
    EXPECT_FALSE(seq.preceded_failure);
    // No failure may fall between window start and the end of the
    // prediction period.
    EXPECT_FALSE(
        ds.failure_within(seq.end_time - 240.0, seq.end_time + 60.0 + 100.0))
        << "sequence ending at " << seq.end_time;
  }
}

TEST(Dataset, EventsInIsHalfOpen) {
  const auto ds = small_dataset();
  const auto in = ds.events_in(50.0, 250.0);  // (50, 250]
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].event_id, 202);
}

TEST(Dataset, NanTimestampsRejected) {
  MonitoringDataset ds(SymptomSchema({"a"}));
  const double nan = std::nan("");
  EXPECT_THROW(ds.add_sample({nan, {1.0}}), std::invalid_argument);
  EXPECT_THROW(ds.add_event({nan, 1, 0, 1}), std::invalid_argument);
  EXPECT_THROW(ds.add_failure(nan), std::invalid_argument);
  ds.add_sample({1.0, {1.0}});
  EXPECT_THROW(ds.add_sample({nan, {1.0}}), std::invalid_argument);
  EXPECT_EQ(ds.sample_count(), 1u);
}

// --- retention: a reader releases a stream's front, the owner drops it at
// its next append of that stream.

// Appends sample i at t = 10 i with values {i, -i} and an event of id i.
void append_step(MonitoringDataset& ds, std::size_t i) {
  const double v = static_cast<double>(i);
  const std::array<double, 2> values = {v, -v};
  ds.add_sample(10.0 * v, values);
  ds.add_event({10.0 * v, static_cast<std::int32_t>(i), 0, 1});
}

// The retained streams are exactly appends [first, count) of append_step.
void expect_tail(const MonitoringDataset& ds, std::size_t first_sample,
                 std::size_t first_event) {
  ASSERT_EQ(ds.samples().size(), ds.sample_count() - first_sample);
  for (std::size_t k = 0; k < ds.samples().size(); ++k) {
    const double v = static_cast<double>(first_sample + k);
    EXPECT_EQ(ds.samples()[k].time, 10.0 * v);
    EXPECT_EQ(ds.samples()[k].values, (std::vector<double>{v, -v}));
  }
  ASSERT_EQ(ds.events().size(), ds.event_count() - first_event);
  for (std::size_t k = 0; k < ds.events().size(); ++k) {
    EXPECT_EQ(ds.events()[k].event_id,
              static_cast<std::int32_t>(first_event + k));
  }
}

TEST(Dataset, AppendCountsIncludeDroppedElements) {
  MonitoringDataset ds(SymptomSchema({"a", "b"}));
  EXPECT_EQ(ds.sample_count(), 0u);
  EXPECT_EQ(ds.event_count(), 0u);
  for (std::size_t i = 0; i < 10; ++i) append_step(ds, i);
  EXPECT_EQ(ds.sample_count(), 10u);
  EXPECT_EQ(ds.event_count(), 10u);
  ds.release(6, 8);
  append_step(ds, 10);
  EXPECT_EQ(ds.sample_count(), 11u);
  EXPECT_EQ(ds.event_count(), 11u);
  expect_tail(ds, 6, 8);
  // Failures are never dropped.
  ds.add_failure(5.0);
  ds.add_failure(7.0);
  EXPECT_EQ(ds.failures().size(), 2u);
}

TEST(Dataset, SpanTakenBeforeAReleaseStaysValidUntilTheNextAppend) {
  MonitoringDataset ds(SymptomSchema({"a", "b"}));
  for (std::size_t i = 0; i < 8; ++i) append_step(ds, i);
  const auto samples = ds.samples();
  const auto events = ds.events();
  ds.release(ds.sample_count(), ds.event_count());
  // Nothing is dropped by the release itself.
  EXPECT_EQ(ds.samples().data(), samples.data());
  EXPECT_EQ(ds.samples().size(), 8u);
  EXPECT_EQ(ds.events().size(), 8u);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(samples[k].time, 10.0 * static_cast<double>(k));
    EXPECT_EQ(events[k].event_id, static_cast<std::int32_t>(k));
  }
  // The next append of each stream drops what was released before it.
  append_step(ds, 8);
  expect_tail(ds, 8, 8);
}

TEST(Dataset, ReleaseBeyondTheEndDropsOnlyWhatExists) {
  MonitoringDataset ds(SymptomSchema({"a", "b"}));
  for (std::size_t i = 0; i < 5; ++i) append_step(ds, i);
  ds.release(1000, 1000);  // clamped to the counts at the request
  append_step(ds, 5);
  append_step(ds, 6);
  expect_tail(ds, 5, 5);
  // Time order is still enforced against the newest retained sample.
  EXPECT_THROW(ds.add_sample(0.0, std::array<double, 2>{0.0, 0.0}),
               std::invalid_argument);
}

TEST(Dataset, ReleaseOfNothingKeepsEverything) {
  MonitoringDataset ds(SymptomSchema({"a", "b"}));
  ds.release(0, 0);
  for (std::size_t i = 0; i < 5; ++i) append_step(ds, i);
  ds.release(0, 0);
  append_step(ds, 5);
  expect_tail(ds, 0, 0);
  // Release points only advance: an earlier point than a pending one
  // changes nothing.
  ds.release(4, 3);
  ds.release(2, 1);
  append_step(ds, 6);
  expect_tail(ds, 4, 3);
  ds.release(4, 3);  // at the current front: nothing to drop
  append_step(ds, 7);
  expect_tail(ds, 4, 3);
}

TEST(Dataset, CompactionKeepsTheRetainedTailInOrder) {
  // A reader keeping a sliding window of 7 samples and 3 events, with
  // releases of varying size: every append's view is the exact tail.
  MonitoringDataset ds(SymptomSchema({"a", "b"}));
  for (std::size_t i = 0; i < 500; ++i) {
    append_step(ds, i);
    const std::size_t n = ds.sample_count();
    if (i % 5 == 0 || i % 7 == 0) {
      ds.release(n >= 7 ? n - 7 : 0, n >= 3 ? n - 3 : 0);
    }
  }
  EXPECT_EQ(ds.sample_count(), 500u);
  EXPECT_LE(ds.samples().size(), 7u + 5u);
  expect_tail(ds, 500 - ds.samples().size(), 500 - ds.events().size());
}

TEST(Dataset, BoundedStoreReusesDroppedValueBuffers) {
  MonitoringDataset ds(SymptomSchema({"a", "b"}));
  auto run = [&ds](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      append_step(ds, i);
      const std::size_t n = ds.sample_count();
      ds.release(n >= 20 ? n - 20 : 0, n >= 20 ? n - 20 : 0);
    }
  };
  run(0, 200);  // warm-up: slots and value buffers reach their bound
  const std::size_t before = allocations;
  run(200, 2000);
  EXPECT_EQ(allocations, before) << "steady-state appends allocated";
  // The last append applied the release made before it: 21 retained.
  expect_tail(ds, 1979, 1979);
  for (const auto& s : ds.samples()) EXPECT_EQ(s.values.capacity(), 2u);
}

}  // namespace
}  // namespace pfm::mon
