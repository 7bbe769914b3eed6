#pragma once

// Event-driven MEA scheduling (DESIGN.md §9). The calendar queue is the
// deterministic event core of the sharded fleet runtime: nodes are keyed
// by integral sim-ticks (one tick = one evaluation interval of calendar
// time), each shard drains its own single-threaded calendar, and the
// adaptive policy decides how many ticks a node may sleep before its
// next Monitor/Evaluate visit — dense near predicted failures and
// symptom deltas, exponentially sparser while quiet. Everything here is
// plain sequential data-structure code: determinism comes from keeping
// all scheduling state shard-local and integral.

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace pfm::runtime {

/// Adaptive sampling policy of the event-driven scheduler. With
/// `adaptive` false the calendar degenerates to the dense schedule —
/// every node due every tick — the mode of the lockstep preset.
struct SchedulePolicy {
  bool adaptive = false;
  /// Largest number of ticks a quiet node may sleep between visits.
  /// Bounds detection latency: a node going bad is revisited after at
  /// most max_gap intervals and is dense again from then on.
  std::size_t max_gap = 16;
  /// A node whose combined score reaches this fraction of the warning
  /// threshold is kept dense (as is a node with an urgent SchedulingHint
  /// or new error events; see ShardController::node_is_hot).
  double hot_score_fraction = 0.5;

  void validate() const {
    if (max_gap == 0) {
      throw std::invalid_argument("SchedulePolicy: max_gap must be >= 1");
    }
    if (hot_score_fraction < 0.0) {
      throw std::invalid_argument(
          "SchedulePolicy: hot_score_fraction must be >= 0");
    }
  }

  /// Next sampling gap in ticks: hot nodes snap back to dense, quiet
  /// nodes back off exponentially up to max_gap. Pure function — the
  /// whole adaptive schedule is replayable from (seed, plan) because
  /// nothing here depends on threads, shards or wall time.
  std::size_t next_gap(std::size_t prev_gap, bool hot) const noexcept {
    if (!adaptive || hot) return 1;
    const std::size_t doubled = prev_gap < max_gap ? prev_gap * 2 : max_gap;
    return doubled < max_gap ? doubled : max_gap;
  }
};

/// Bucketed calendar queue over integral sim-ticks: a ring of buckets
/// indexed by tick modulo the ring size, the classic O(1)
/// schedule/pop structure of discrete-event simulators. One instance per
/// shard, strictly single-threaded; insertion happens in deterministic
/// node order and pop_due() returns each tick's due set sorted
/// ascending, so the schedule is a pure function of the scheduling
/// decisions regardless of thread count.
///
/// Capacity contract: a tick may only be scheduled within
/// [cursor, cursor + num_slots) — the ring never wraps onto a pending
/// bucket because the shard sizes it to max_gap + 1.
class CalendarQueue {
 public:
  explicit CalendarQueue(std::size_t num_slots);

  std::uint64_t cursor() const noexcept { return cursor_; }
  std::size_t scheduled() const noexcept { return scheduled_; }
  bool empty() const noexcept { return scheduled_ == 0; }
  std::size_t num_slots() const noexcept { return buckets_.size(); }

  /// Schedules `item` at `tick`. Throws std::logic_error when the tick
  /// lies outside the ring's reachable window.
  void schedule(std::uint64_t tick, std::uint32_t item);

  /// Advances the cursor to the next non-empty tick before `end_tick`;
  /// fills `due` with that tick's items sorted ascending and returns
  /// true, leaving the cursor just past the popped tick. Returns false
  /// (with `due` empty and the cursor at `end_tick`) when nothing is due
  /// in the window — empty ticks cost one ring probe each, and a fully
  /// idle calendar skips straight to `end_tick`.
  bool pop_due(std::uint64_t end_tick, std::uint64_t& tick,
               std::vector<std::uint32_t>& due);

  void clear() noexcept;

 private:
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::uint64_t cursor_ = 0;
  std::size_t scheduled_ = 0;
};

}  // namespace pfm::runtime
