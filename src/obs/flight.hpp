#pragma once

// Per-node flight recorder (DESIGN.md §10). A bounded ring of the most
// recent MEA events per deterministic scope — one ring per node (scores,
// warnings, countermeasure attempts, injected faults, membership
// transitions) and one per predictor lane (circuit-breaker activity).
// When something terminal happens to a scope — quarantine, breaker trip,
// drain — the ring is rendered into a JSON-line post-mortem capturing
// the last N events that led up to it, like an aircraft flight recorder.
//
// Ownership mirrors the rest of the obs layer: a scope's ring is written
// only by the thread currently running that node's stage or the lane's
// shard round, dumps are rendered by the same owning thread and stored
// on the scope, and post_mortems_text() concatenates them on the
// controller between parallel sections, ordered by the deterministic
// (time, scope, seq) key. Everything recorded is sim-time content — a
// pure function of (seed, fault plan, membership plan) — so dumps are
// byte-identical across thread counts.
//
// capacity 0 disables the recorder; every record_* degrades to a branch
// through the same pointer-or-null idiom the tracer uses.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pfm::obs {

/// What a flight event records. Values are stable export identifiers;
/// append new kinds at the end.
enum class FlightEventKind : std::uint8_t {
  kScore = 0,           ///< combined score at one evaluation (value)
  kWarning = 1,         ///< score crossed the warning threshold
  kAction = 2,          ///< countermeasure executed (arg = kind)
  kActionRetry = 3,     ///< re-attempt after a failed try (sub = attempt)
  kActionAbandoned = 4, ///< retries exhausted (arg = kind)
  kInjectedFault = 5,   ///< injection wrapper fired (arg = fault code)
  kBreakerTrip = 6,     ///< predictor breaker opened
  kBreakerClose = 7,    ///< breaker closed after a probe
  kQuarantine = 8,      ///< node quarantined
  kMemberJoin = 9,      ///< node joined (sub = incarnation)
  kMemberLeave = 10,    ///< node left the fleet
  kMemberDrain = 11,    ///< node drained (graceful leave)
  kMemberRestart = 12,  ///< rolling restart (sub = new incarnation)
};

const char* to_string(FlightEventKind kind) noexcept;

/// One ring entry. `sub` and `arg` are kind-specific (attempt number,
/// action kind, fault code); `value` carries the score when one exists.
struct FlightEvent {
  double time = 0.0;
  FlightEventKind kind = FlightEventKind::kScore;
  std::uint32_t sub = 0;
  std::int64_t arg = 0;
  double value = 0.0;
};

class FlightRecorder {
 public:
  /// `capacity` is the ring size per scope; 0 disables everything.
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const noexcept { return capacity_ > 0; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Controller-thread sizing (never shrinks). Lane scopes are indexed
  /// shard * stride + predictor; a lockstep fleet registers stride =
  /// predictor count with a single shard 0.
  void ensure_nodes(std::size_t count);
  void ensure_lanes(std::size_t count, std::size_t stride);

  std::size_t node_scopes() const noexcept { return nodes_.size(); }
  std::size_t lane_scopes() const noexcept { return lanes_.size(); }

  /// Hot path: bounded ring write, owning thread of the scope only.
  void record_node(std::size_t node, const FlightEvent& event) noexcept;
  void record_lane(std::size_t lane, const FlightEvent& event) noexcept;

  /// Renders the scope's ring into a stored JSON-line post-mortem
  /// (header line + one line per retained event, oldest first). Called
  /// by the scope's owning thread at the moment of the incident.
  void dump_node(std::size_t node, const char* reason, double time);
  void dump_lane(std::size_t lane, const char* reason, double time);

  /// Controller-thread reads between parallel sections.
  std::size_t dump_count() const noexcept;
  /// Every stored post-mortem, ordered by (time, scope family, scope id,
  /// per-scope sequence) — deterministic across thread counts.
  std::string post_mortems_text() const;
  void clear_dumps();

 private:
  struct Scope {
    std::vector<FlightEvent> ring;  // capacity entries once armed
    std::uint64_t total = 0;        // events ever recorded
    std::vector<std::string> dumps;
    std::vector<double> dump_times;
  };

  void record(Scope& scope, const FlightEvent& event) noexcept;
  void dump(Scope& scope, const char* family, std::size_t id,
            const char* reason, double time);

  std::size_t capacity_;
  std::size_t lane_stride_ = 0;
  std::vector<Scope> nodes_;
  std::vector<Scope> lanes_;
};

}  // namespace pfm::obs
