#pragma once

// MEA-stage tracing (DESIGN.md §8). The TraceRecorder collects spans for
// every stage of the control loop — Monitor/Evaluate/Act, per-predictor
// score_batch calls, action retries, circuit-breaker transitions,
// quarantines and injected faults — into per-thread ring buffers, so
// recording from inside a parallel section costs one branch and one
// ring write, with no synchronization.
//
// Determinism contract: a span's identity is its *sim-time* content
// (kind, track, sub, sim_begin, sim_end, arg) — all pure functions of
// (seed, plan). The optional wall duration is honest steady-clock
// telemetry and is excluded from the deterministic sort key and from
// deterministic exports. Which shard a span lands in depends on thread
// scheduling, so sorted_spans() orders by the sim-time key; while no
// spans were dropped, the sorted sequence is bit-identical across
// thread counts.
//
// Tracks are deterministic lanes, not thread ids: the fleet controller
// records on track 0, node i on track node_track(i), predictor p on
// track predictor_track(p). The Chrome-trace exporter maps tracks to
// Perfetto threads, so a trace reads as "one lane per node/predictor"
// no matter how many pool threads ran it.
//
// Off mode: a null TraceRecorder* (or capacity 0) short-circuits every
// helper before any clock is read.

#include <chrono>
#include <cstdint>
#include <vector>

namespace pfm::obs {

/// What a span measures. Values are part of the deterministic sort key;
/// append new kinds at the end.
enum class SpanKind : std::uint8_t {
  kMonitorStage = 0,   ///< fleet Monitor stage of one round
  kEvaluateStage = 1,  ///< fleet Evaluate stage of one round
  kActStage = 2,       ///< fleet Act stage of one round
  kNodeStep = 3,       ///< one node advancing one evaluation interval
  kScoreBatch = 4,     ///< one predictor scoring the fleet
  kEvaluation = 5,     ///< single-system MeaController evaluation
  kWarning = 6,        ///< combined score crossed the warning threshold
  kActionExecute = 7,  ///< countermeasure execution attempt (sub = attempt)
  kActionRetry = 8,    ///< re-attempt after a failed execution try
  kBreakerTrip = 9,    ///< predictor breaker opened (or probe failed)
  kBreakerClose = 10,  ///< breaker closed after a successful probe
  kQuarantine = 11,    ///< node quarantined
  kInjectedFault = 12, ///< fault-injection wrapper fired
  kMemberJoin = 13,    ///< node joined the fleet (sub = incarnation)
  kMemberLeave = 14,   ///< node left (arg: 0 leave / 1 drain / 2 restart)
  kMemberHandoff = 15, ///< warm state handoff to a new shard (arg = shard)
  kScaleUp = 16,       ///< elasticity policy scale-up (sub = count)
  kDrainNode = 17,     ///< elasticity policy drain decision
};

const char* to_string(SpanKind kind) noexcept;

/// Deterministic track (Perfetto lane) numbering.
inline constexpr std::uint32_t kFleetTrack = 0;
inline constexpr std::uint32_t node_track(std::size_t node) noexcept {
  return static_cast<std::uint32_t>(1 + node);
}
inline constexpr std::uint32_t predictor_track(std::size_t p) noexcept {
  return static_cast<std::uint32_t>(1000000 + p);
}
/// Stage-span lane of shard `s` of a multi-shard fleet. A single-shard
/// fleet (the lockstep preset included) records its stage spans on
/// kFleetTrack instead.
inline constexpr std::uint32_t shard_track(std::size_t s) noexcept {
  return static_cast<std::uint32_t>(2000000 + s);
}

/// One trace span. Instant events have sim_begin == sim_end. `sub`
/// breaks ties deterministically inside one (sim_begin, track, kind)
/// group (e.g. the retry attempt number); `arg` is a kind-specific
/// payload (action kind, item count, fault code, score in micro-units).
struct Span {
  double sim_begin = 0.0;
  double sim_end = 0.0;
  std::uint32_t track = 0;
  SpanKind kind = SpanKind::kMonitorStage;
  std::uint32_t sub = 0;
  std::int64_t arg = 0;
  double wall_seconds = 0.0;  ///< steady-clock duration; 0 = not measured
};

// Re-declared here so trace.hpp stands alone; defined in metrics.cpp.
std::size_t thread_shard() noexcept;

/// Per-thread ring buffers of spans. record() writes the calling
/// thread's ring; readers run between parallel sections (the pool
/// handshake publishes the writes). When a ring is full the oldest span
/// is overwritten and dropped() grows — bit-identity across thread
/// counts holds only while dropped() == 0, so size the capacity for the
/// run (or accept a truncated trace in long benches).
class TraceRecorder {
 public:
  TraceRecorder(std::size_t shards, std::size_t capacity_per_shard);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const noexcept { return capacity_ > 0; }
  std::size_t capacity_per_shard() const noexcept { return capacity_; }

  void record(const Span& span) noexcept;

  std::uint64_t recorded() const noexcept;
  std::uint64_t dropped() const noexcept;

  /// Every retained span, ordered by the deterministic sim-time key
  /// (sim_begin, track, kind, sub, sim_end, arg). Call only while no
  /// parallel section is in flight.
  std::vector<Span> sorted_spans() const;

  void clear() noexcept;

 private:
  struct alignas(64) Ring {
    std::vector<Span> spans;   // grows to capacity, then wraps
    std::size_t next = 0;      // overwrite cursor once full
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
  };

  std::size_t shard_index() const noexcept {
    const std::size_t s = thread_shard();
    return s < rings_.size() ? s : 0;
  }

  std::size_t capacity_;
  std::vector<Ring> rings_;
};

/// Records an instant event (sim_begin == sim_end, no wall time).
inline void record_instant(TraceRecorder* rec, SpanKind kind,
                           std::uint32_t track, double sim_time,
                           std::uint32_t sub = 0, std::int64_t arg = 0) {
  if (rec == nullptr || !rec->enabled()) return;
  rec->record(Span{sim_time, sim_time, track, kind, sub, arg, 0.0});
}

/// RAII span: captures the wall clock on construction, records on
/// destruction. The sim interval is set explicitly — sim_end defaults
/// to sim_begin (an instant event with a wall duration attached).
/// A null/disabled recorder makes the whole object a no-op: no clock
/// is read and nothing is recorded.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* rec, SpanKind kind, std::uint32_t track,
             double sim_begin, std::uint32_t sub = 0, std::int64_t arg = 0)
      : rec_(rec != nullptr && rec->enabled() ? rec : nullptr) {
    if (rec_ == nullptr) return;
    span_.sim_begin = sim_begin;
    span_.sim_end = sim_begin;
    span_.track = track;
    span_.kind = kind;
    span_.sub = sub;
    span_.arg = arg;
    start_ = std::chrono::steady_clock::now();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_sim_end(double sim_end) noexcept {
    if (rec_ != nullptr) span_.sim_end = sim_end;
  }

  void set_arg(std::int64_t arg) noexcept {
    if (rec_ != nullptr) span_.arg = arg;
  }

  /// Wall seconds elapsed so far (0 when disabled) — lets callers feed
  /// the same measurement into a latency histogram.
  double elapsed_wall() const noexcept {
    if (rec_ == nullptr) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  ~ScopedSpan() {
    if (rec_ == nullptr) return;
    span_.wall_seconds = elapsed_wall();
    rec_->record(span_);
  }

 private:
  TraceRecorder* rec_ = nullptr;
  Span span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pfm::obs
