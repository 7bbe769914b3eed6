#include "monitoring/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pfm::mon {

namespace {

// Appends must not go back in time; a NaN timestamp has no place in an
// ordered stream, so it is rejected too (it would pass a plain `<`).
bool goes_back(double time, bool empty, double last) noexcept {
  return std::isnan(time) || (!empty && time < last);
}

}  // namespace

void MonitoringDataset::add_sample(SymptomSample sample) {
  add_sample(sample.time, sample.values);
}

void MonitoringDataset::add_sample(double time,
                                   std::span<const double> values) {
  if (values.size() != schema_.size()) {
    throw std::invalid_argument("MonitoringDataset: sample/schema mismatch");
  }
  const auto live = samples();
  if (goes_back(time, live.empty(), live.empty() ? 0.0 : live.back().time)) {
    throw std::invalid_argument("MonitoringDataset: sample time decreases");
  }
  samples_.append([&](SymptomSample& slot) {
    slot.time = time;
    slot.values.assign(values.begin(), values.end());
  });
}

void MonitoringDataset::add_event(ErrorEvent event) {
  const auto live = events();
  if (goes_back(event.time, live.empty(),
                live.empty() ? 0.0 : live.back().time)) {
    throw std::invalid_argument("MonitoringDataset: event time decreases");
  }
  events_.append([&](ErrorEvent& slot) { slot = event; });
}

void MonitoringDataset::add_failure(double time) {
  if (goes_back(time, failures_.empty(),
                failures_.empty() ? 0.0 : failures_.back())) {
    throw std::invalid_argument("MonitoringDataset: failure time decreases");
  }
  failures_.push_back(time);
}

double MonitoringDataset::end_time() const noexcept {
  const auto ss = samples();
  const auto es = events();
  double t = 0.0;
  if (!ss.empty()) t = std::max(t, ss.back().time);
  if (!es.empty()) t = std::max(t, es.back().time);
  if (!failures_.empty()) t = std::max(t, failures_.back());
  return t;
}

double MonitoringDataset::start_time() const noexcept {
  const auto ss = samples();
  const auto es = events();
  double t = end_time();
  if (!ss.empty()) t = std::min(t, ss.front().time);
  if (!es.empty()) t = std::min(t, es.front().time);
  if (!failures_.empty()) t = std::min(t, failures_.front());
  return t;
}

bool MonitoringDataset::failure_within(double t_begin, double t_end) const {
  const auto it =
      std::lower_bound(failures_.begin(), failures_.end(), t_begin);
  return it != failures_.end() && *it < t_end;
}

std::pair<MonitoringDataset, MonitoringDataset> MonitoringDataset::split_at(
    double t) const {
  MonitoringDataset before(schema_);
  MonitoringDataset after(schema_);
  for (const auto& s : samples()) {
    (s.time < t ? before : after).add_sample(s.time, s.values);
  }
  for (const auto& e : events()) {
    (e.time < t ? before : after).add_event(e);
  }
  for (double f : failures_) {
    (f < t ? before : after).add_failure(f);
  }
  return {std::move(before), std::move(after)};
}

std::vector<LabeledWindow> MonitoringDataset::labeled_windows(
    double lead_time, double prediction_window) const {
  if (lead_time < 0.0 || prediction_window <= 0.0) {
    throw std::invalid_argument("labeled_windows: bad window parameters");
  }
  const double horizon = end_time();
  std::vector<LabeledWindow> out;
  const auto ss = samples();
  out.reserve(ss.size());
  for (const auto& s : ss) {
    const double w_begin = s.time + lead_time;
    const double w_end = w_begin + prediction_window;
    if (w_end > horizon) continue;  // not labelable yet
    out.push_back(
        {s.time, s.values, failure_within(w_begin, w_end)});
  }
  return out;
}

std::vector<ErrorSequence> MonitoringDataset::failure_sequences(
    double data_window, double lead_time) const {
  if (data_window <= 0.0 || lead_time < 0.0) {
    throw std::invalid_argument("failure_sequences: bad window parameters");
  }
  std::vector<ErrorSequence> out;
  out.reserve(failures_.size());
  for (double tf : failures_) {
    const double w_end = tf - lead_time;
    const double w_begin = w_end - data_window;
    if (w_begin < 0.0) continue;
    ErrorSequence seq;
    seq.events = events_in(w_begin, w_end);
    seq.end_time = w_end;
    seq.preceded_failure = true;
    out.push_back(std::move(seq));
  }
  return out;
}

std::vector<ErrorSequence> MonitoringDataset::nonfailure_sequences(
    double data_window, double lead_time, double prediction_window,
    double stride) const {
  if (data_window <= 0.0 || stride <= 0.0) {
    throw std::invalid_argument("nonfailure_sequences: bad parameters");
  }
  const double horizon = end_time();
  std::vector<ErrorSequence> out;
  for (double w_end = data_window; w_end + lead_time + prediction_window <= horizon;
       w_end += stride) {
    const double w_begin = w_end - data_window;
    // The window must not be a failure precursor...
    if (failure_within(w_end + lead_time,
                       w_end + lead_time + prediction_window)) {
      continue;
    }
    // ...and must not overlap downtime or a failure-adjacent region.
    if (failure_within(w_begin, w_end + lead_time)) continue;
    ErrorSequence seq;
    seq.events = events_in(w_begin, w_end);
    seq.end_time = w_end;
    seq.preceded_failure = false;
    out.push_back(std::move(seq));
  }
  return out;
}

std::vector<ErrorEvent> MonitoringDataset::events_in(double t_begin,
                                                     double t_end) const {
  const auto es = events();
  const auto lo = std::upper_bound(
      es.begin(), es.end(), t_begin,
      [](double t, const ErrorEvent& e) { return t < e.time; });
  const auto hi = std::upper_bound(
      es.begin(), es.end(), t_end,
      [](double t, const ErrorEvent& e) { return t < e.time; });
  return {lo, hi};
}

}  // namespace pfm::mon
