#pragma once

// Shared plumbing of the experiment benches. Every bench binary prints the
// rows/series of its paper artifact first (the reproduction output), then
// runs google-benchmark timing loops for the underlying computation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "monitoring/dataset.hpp"
#include "prediction/evaluate.hpp"
#include "telecom/simulator.hpp"

namespace pfm::bench {

/// Default window geometry used across the case-study experiments
/// (Fig. 6: data window 600 s, lead time 300 s, prediction period 300 s).
inline pred::WindowGeometry case_study_windows() {
  return {600.0, 300.0, 300.0};
}

/// Generates the simulated SCP trace for one seed and splits it 70/30 into
/// training and test periods.
inline std::pair<mon::MonitoringDataset, mon::MonitoringDataset>
make_case_study(std::uint64_t seed, double days = 14.0) {
  telecom::SimConfig cfg;
  cfg.seed = seed;
  cfg.duration = days * 86400.0;
  telecom::ScpSimulator sim(cfg);
  sim.run();
  auto trace = sim.take_trace();
  return trace.split_at(0.7 * cfg.duration);
}

/// Prints one report row in a fixed-width table format.
inline void print_report_row(const pred::PredictorReport& r) {
  std::printf("  %-12s %6.3f %9.3f %7.3f %7.4f %7.3f\n", r.name.c_str(),
              r.auc, r.precision(), r.recall(), r.false_positive_rate(),
              r.f_measure());
}

inline void print_report_header() {
  std::printf("  %-12s %6s %9s %7s %7s %7s\n", "predictor", "AUC",
              "precision", "recall", "fpr", "F");
}

/// Builds one flat JSON object and prints it as a single line, so bench
/// output can be scraped by scripts alongside the human-readable tables.
class JsonLine {
 public:
  JsonLine& field(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return raw(key, buf);
  }
  JsonLine& field(const char* key, long long value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& field(const char* key, std::size_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& field(const char* key, const char* value) {
    return raw(key, "\"" + std::string(value) + "\"");
  }

  /// Prints `{"k1":v1,...}` followed by a newline.
  void emit() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  JsonLine& raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }

  std::string body_;
};

/// Wall-time overhead of an instrumented arm against its baseline, from
/// interleaved off/on pairs. Each pair runs both arms back to back,
/// alternating which goes first, and yields one on/off wall ratio, so host
/// drift between pairs cancels. The median ratio is the gated overhead;
/// min and max show the spread of the pairs.
struct PairedOverhead {
  std::size_t pairs = 0;
  double baseline_seconds = 0.0;  ///< median wall of the off arm
  double observed_seconds = 0.0;  ///< median wall of the on arm
  double median_pct = 0.0;
  double min_pct = 0.0;
  double max_pct = 0.0;

  /// Appends the shared overhead fields to a bench row.
  JsonLine& fields(JsonLine& row) const {
    return row.field("pairs", pairs)
        .field("baseline_seconds", baseline_seconds)
        .field("observed_seconds", observed_seconds)
        .field("overhead_pct", median_pct)
        .field("overhead_min_pct", min_pct)
        .field("overhead_max_pct", max_pct);
  }
};

/// Simulated days of each fleet overhead arm (obs, churn, quality), which
/// --quick does not trim. Arms of 0.15-0.22 s spread up to +26% per pair
/// on a 4-CPU host, and even the median of 15 pairs wandered across the
/// 5% budgets; at this horizon each off arm runs for at least 0.5 s.
inline constexpr double kOverheadArmDays = 5.0;

/// Runs 15 off/on pairs; `off()` and `on()` each run one arm and return
/// its wall seconds. Single pairs spread ±10% on a 4-CPU host, and 7
/// pairs still let the median cross a 5% budget.
template <class Off, class On>
PairedOverhead paired_overhead(Off&& off, On&& on) {
  constexpr std::size_t pairs = 15;
  std::vector<double> offs;
  std::vector<double> ons;
  std::vector<double> ratios;
  for (std::size_t i = 0; i < pairs; ++i) {
    double off_s = 0.0;
    double on_s = 0.0;
    if (i % 2 == 0) {
      off_s = off();
      on_s = on();
    } else {
      on_s = on();
      off_s = off();
    }
    offs.push_back(off_s);
    ons.push_back(on_s);
    ratios.push_back(off_s > 0.0 ? on_s / off_s : 1.0);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  PairedOverhead out;
  out.pairs = pairs;
  out.baseline_seconds = median(offs);
  out.observed_seconds = median(ons);
  out.median_pct = (median(ratios) - 1.0) * 100.0;
  out.min_pct = (*lo - 1.0) * 100.0;
  out.max_pct = (*hi - 1.0) * 100.0;
  return out;
}

}  // namespace pfm::bench
