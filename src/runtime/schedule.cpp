#include "runtime/schedule.hpp"

#include <algorithm>

namespace pfm::runtime {

namespace {

// Out-of-line slow path so the hot schedule() body stays throw-free
// (pfm-analyze hotpath: a throw would otherwise sit on every insert).
// pfm-cold
[[noreturn]] void throw_outside_ring_window() {
  throw std::logic_error("CalendarQueue: tick outside the ring window");
}

}  // namespace

CalendarQueue::CalendarQueue(std::size_t num_slots)
    : buckets_(num_slots > 0 ? num_slots : 1) {}

// pfm-hot
void CalendarQueue::schedule(std::uint64_t tick, std::uint32_t item) {
  if (tick < cursor_ || tick - cursor_ >= buckets_.size()) {
    throw_outside_ring_window();
  }
  buckets_[tick % buckets_.size()].push_back(item);
  ++scheduled_;
}

// pfm-hot
bool CalendarQueue::pop_due(std::uint64_t end_tick, std::uint64_t& tick,
                            std::vector<std::uint32_t>& due) {
  due.clear();
  if (scheduled_ == 0) {
    // Idle calendar: keep the cursor on the shared epoch grid so a later
    // activate() lands on the same tick every shard uses.
    cursor_ = std::max(cursor_, end_tick);
    return false;
  }
  while (cursor_ < end_tick) {
    auto& bucket = buckets_[cursor_ % buckets_.size()];
    if (!bucket.empty()) {
      due.swap(bucket);
      bucket.clear();
      // Buckets collect items from several source ticks in processing
      // order; ascending node order makes batch composition canonical.
      std::sort(due.begin(), due.end());
      scheduled_ -= due.size();
      tick = cursor_++;
      return true;
    }
    ++cursor_;
  }
  return false;
}

void CalendarQueue::clear() noexcept {
  for (auto& bucket : buckets_) bucket.clear();
  scheduled_ = 0;
}

}  // namespace pfm::runtime
