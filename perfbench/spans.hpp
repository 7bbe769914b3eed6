#pragma once

// Span recording for the benchmark's traced run. Spans are timed from
// outside the library: the decorators in decorators.hpp and the phase
// scopes of the workloads open one Span around each public call. Every
// thread appends to its own in-memory buffer; the buffers are collected
// once, after the timed section, and written as Chrome trace-event JSON.
// While tracing is off a Span reads no clock and records nothing.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";      ///< static-storage span name
  std::int64_t start_ns = 0;  ///< steady clock, since the process epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       ///< unique and non-zero
  std::uint64_t parent = 0;   ///< 0 = no parent
  std::uint64_t ordinal = 0;  ///< request id: round or evaluation ordinal
  std::uint64_t node = 0;     ///< request id: node index
  std::uint64_t items = 0;    ///< work items covered, e.g. scores in a batch
  std::uint32_t tid = 0;      ///< recording thread, in registration order
};

/// Process-wide switch; flip it only while no fleet is running.
void set_tracing(bool on);
bool tracing();

/// Steady-clock nanoseconds since the first call in this process.
std::int64_t now_ns();

/// RAII span. Its parent is the innermost open span of the same thread
/// or, on a thread with none open (a fleet pool worker), the span of the
/// active RootScope.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t ordinal = 0,
                std::uint64_t node = 0, std::uint64_t items = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return rec_.id; }

 private:
  bool on_;
  SpanRecord rec_;
};

/// Adopts `span` as the parent of spans opened on threads without an
/// open span of their own, for the scope's lifetime. Open it on the
/// driver thread around a call that fans work out to pool workers.
class RootScope {
 public:
  explicit RootScope(const Span& span);
  ~RootScope();

  RootScope(const RootScope&) = delete;
  RootScope& operator=(const RootScope&) = delete;

 private:
  std::uint64_t previous_;
};

/// Every span recorded so far, ordered by (start, id). Call only while
/// no traced work is running.
std::vector<SpanRecord> collect_spans();
void clear_spans();

/// Chrome trace-event JSON ("X" events; ts/dur in microseconds with
/// nanosecond digits, exact to the recorded nanosecond). The span
/// identity fields go into "args".
std::string chrome_trace_json(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
