#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::uint64_t next_seq = 0;
  std::vector<std::uint64_t> open;  // ids of the open spans, innermost last
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_root{0};

// Buffers are owned here rather than by their threads, so spans of a
// pool worker survive the worker's exit.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->tid = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *buffer;
}

void append_us(std::string& out, std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  out += buf;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

Span::Span(const char* name, std::uint64_t ordinal, std::uint64_t node,
           std::uint64_t items)
    : on_(tracing()) {
  if (!on_) return;
  ThreadBuffer& b = this_thread_buffer();
  rec_.name = name;
  rec_.id = (static_cast<std::uint64_t>(b.tid) << 40) | ++b.next_seq;
  rec_.parent =
      b.open.empty() ? g_root.load(std::memory_order_acquire) : b.open.back();
  rec_.ordinal = ordinal;
  rec_.node = node;
  rec_.items = items;
  rec_.tid = b.tid;
  b.open.push_back(rec_.id);
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = now_ns();
  ThreadBuffer& b = this_thread_buffer();
  b.open.pop_back();
  b.spans.push_back(rec_);
}

RootScope::RootScope(const Span& span)
    : previous_(g_root.exchange(span.id(), std::memory_order_acq_rel)) {}

RootScope::~RootScope() {
  g_root.store(previous_, std::memory_order_release);
}

std::vector<SpanRecord> collect_spans() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (auto& b : g_buffers) b->spans.clear();
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(s.tid);
    out += ",\"ts\":";
    append_us(out, s.start_ns);
    out += ",\"dur\":";
    append_us(out, s.end_ns - s.start_ns);
    std::snprintf(buf, sizeof(buf),
                  ",\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                  ",\"ordinal\":%" PRIu64 ",\"node\":%" PRIu64
                  ",\"items\":%" PRIu64 "}}",
                  s.id, s.parent, s.ordinal, s.node, s.items);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
