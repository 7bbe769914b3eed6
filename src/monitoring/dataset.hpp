#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "monitoring/types.hpp"

namespace pfm::mon {

/// A labeled observation for symptom-based predictors: the feature vector
/// at one instant plus the ground truth "a failure follows within the
/// prediction window" (lead time semantics of Fig. 6).
struct LabeledWindow {
  double time = 0.0;
  std::vector<double> features;
  bool failure_follows = false;
};

/// A complete monitoring trace of one system run: periodic symptom samples,
/// the error-event log and the failure log.
///
/// This is the training/evaluation substrate for every predictor in
/// src/prediction. Timestamps must be appended in nondecreasing order per
/// stream (samples, events, failures are independent streams).
///
/// A reader that only ever looks at a trailing window may release the
/// front of the sample and event streams (release()); the owner drops the
/// released elements at its next append of that stream and reuses their
/// storage, so a bounded store allocates nothing per append in steady
/// state. samples()/events() then hold the retained tail, while
/// sample_count()/event_count() keep counting every append. Failures are
/// never dropped. Without a release the dataset keeps everything.
class MonitoringDataset {
 public:
  MonitoringDataset() = default;
  explicit MonitoringDataset(SymptomSchema schema)
      : schema_(std::move(schema)) {}

  const SymptomSchema& schema() const noexcept { return schema_; }

  /// Appends a symptom sample. Throws std::invalid_argument when the value
  /// count does not match the schema or the timestamp decreases (a NaN
  /// timestamp counts as decreasing).
  void add_sample(SymptomSample sample);

  /// The same append from a borrowed value row: copied into the value
  /// buffer of a dropped sample when the store has one, so a bounded
  /// store's steady state allocates nothing.
  void add_sample(double time, std::span<const double> values);

  /// Appends an error event. Throws std::invalid_argument on decreasing
  /// (or NaN) timestamps.
  void add_event(ErrorEvent event);

  /// Appends a failure occurrence. Throws std::invalid_argument on
  /// decreasing (or NaN) timestamps.
  void add_failure(double time);

  /// The retained samples/events (everything, unless a reader released a
  /// front) and the whole failure log. A span stays valid until the next
  /// append of its stream.
  std::span<const SymptomSample> samples() const noexcept {
    return samples_.live();
  }
  std::span<const ErrorEvent> events() const noexcept {
    return events_.live();
  }
  std::span<const double> failures() const noexcept { return failures_; }

  /// Samples/events appended so far, dropped ones included: the append
  /// index of the next one. samples() holds the indices
  /// [sample_count() - samples().size(), sample_count()).
  std::size_t sample_count() const noexcept { return samples_.count(); }
  std::size_t event_count() const noexcept { return events_.count(); }

  /// Retention request of a reader that will never again read a sample
  /// with append index below `samples_before` nor an event below
  /// `events_before`. Nothing is dropped here: the owner drops released
  /// elements at its next append of that stream, so spans taken earlier
  /// stay valid exactly as long as without the call. Points beyond the
  /// current counts are clamped to them (later appends are never
  /// pre-released) and points only advance, so an earlier or repeated
  /// request is a no-op. Const because readers hold the store const;
  /// the request is recorded in mutable state the owner applies, and a
  /// reader on another thread must be ordered before the owner's next
  /// append, as any reader of the spans already is.
  void release(std::size_t samples_before,
               std::size_t events_before) const noexcept {
    samples_.release(samples_before);
    events_.release(events_before);
  }

  /// End of the observed trace: max timestamp over all three streams.
  double end_time() const noexcept;

  /// Start of the observed trace: min first-timestamp over the streams
  /// (0 when the dataset is empty). Relevant for trace segments produced
  /// by split_at, whose time axis does not begin at zero.
  double start_time() const noexcept;

  /// True when at least one failure falls into [t_begin, t_end).
  bool failure_within(double t_begin, double t_end) const;

  /// Splits the trace at `t`: first part holds everything strictly before
  /// `t`, second part the rest. Used for train/test splits.
  std::pair<MonitoringDataset, MonitoringDataset> split_at(double t) const;

  /// Labeled feature windows for symptom predictors: one entry per symptom
  /// sample, labeled true when a failure occurs within
  /// [sample.time + lead_time, sample.time + lead_time + prediction_window).
  ///
  /// Samples too close to the end of the trace to be labeled reliably
  /// (their prediction window extends past end_time) are dropped.
  std::vector<LabeledWindow> labeled_windows(double lead_time,
                                             double prediction_window) const;

  /// Failure sequences per Fig. 6: for every failure at time tF, the error
  /// events within [tF - lead_time - data_window, tF - lead_time).
  /// Sequences without any event are kept (an empty sequence is itself
  /// informative).
  std::vector<ErrorSequence> failure_sequences(double data_window,
                                               double lead_time) const;

  /// Non-failure sequences: windows of length data_window placed every
  /// `stride` seconds whose subsequent [end, end + lead_time +
  /// prediction_window) interval is failure-free and that do not overlap a
  /// failure sequence window.
  std::vector<ErrorSequence> nonfailure_sequences(
      double data_window, double lead_time, double prediction_window,
      double stride) const;

  /// Error events within (t_begin, t_end].
  std::vector<ErrorEvent> events_in(double t_begin, double t_end) const;

 private:
  /// One append-only stream with a releasable front. Slots are laid out
  /// [dropped | live | spare]. Applying a release only moves `head_`;
  /// once the dropped prefix reaches a quarter of the live range, an
  /// append rotates it behind the live range, where later appends reuse
  /// the slots (and a sample's value buffer with them). Each element
  /// moves O(1) times amortised over the appends.
  template <class T>
  class Stream {
   public:
    std::span<const T> live() const noexcept {
      return {slots_.data() + head_, end_ - head_};
    }
    std::size_t count() const noexcept { return dropped_ + end_ - head_; }
    void release(std::size_t before) const noexcept {
      release_ = std::max(release_, std::min(before, count()));
    }

    /// Applies the pending release, then writes the next element into a
    /// spare slot (or a new one) with `fill(T&)`.
    template <class Fill>
    void append(Fill&& fill) {
      head_ += release_ - dropped_;
      dropped_ = release_;
      if (head_ > 0 && 4 * head_ >= end_ - head_) {
        std::rotate(slots_.begin(),
                    slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                    slots_.begin() + static_cast<std::ptrdiff_t>(end_));
        end_ -= head_;
        head_ = 0;
      }
      if (end_ == slots_.size()) slots_.emplace_back();
      fill(slots_[end_]);
      ++end_;
    }

   private:
    std::vector<T> slots_;
    std::size_t head_ = 0;     // first live slot
    std::size_t end_ = 0;      // one past the last live slot
    std::size_t dropped_ = 0;  // elements dropped so far
    mutable std::size_t release_ = 0;  // requested drop point (count)
  };

  SymptomSchema schema_;
  Stream<SymptomSample> samples_;
  Stream<ErrorEvent> events_;
  std::vector<double> failures_;
};

}  // namespace pfm::mon
