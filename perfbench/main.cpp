// pfm_perfbench: runs one workload of the repository benchmark and writes
// its raw measurements as one JSON document. run.py builds this driver,
// runs it and turns the document into the benchmark's metrics.
//
//   pfm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --out FILE [--trace-out FILE] [--workdir DIR]
//   pfm_perfbench --emit-test-trace FILE
//
// Untraced (--trace 0): three set-up passes, one untimed warm-up
// repetition, then plain repetitions for S seconds. Set-up passes and
// repetitions report the wall time of each of their steps, so run.py can
// pick each step's time over them. Traced (--trace 1): one traced set-up
// pass, the warm-up repetition, plain repetitions around one traced
// repetition, then one repetition with the library's own tracing on; the
// spans go to --trace-out.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "numerics/simd.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Mode;
using perfbench::RepResult;
using perfbench::Values;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
  std::string workdir = ".";
  std::string emit_test_trace;
};

constexpr int kSetupPasses = 3;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "pfm_perfbench: %s\n", why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("every option takes a value");
    const char* value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a.trace = std::string_view(value) == "1";
    } else if (key == "--out") {
      a.out = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--workdir") {
      a.workdir = value;
    } else if (key == "--emit-test-trace") {
      a.emit_test_trace = value;
    } else {
      usage("unknown option");
    }
  }
  if (a.emit_test_trace.empty() &&
      (a.workload.empty() || a.out.empty() || !(a.seconds > 0.0) ||
       (a.trace && a.trace_out.empty()))) {
    usage("need --workload, --out, --seconds > 0 and, with --trace 1, "
          "--trace-out");
  }
  return a;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
      std::fclose(f) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

// --- minimal JSON output ----------------------------------------------------

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_values(std::string& out, const Values& values) {
  out += '{';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    append_string(out, values[i].first);
    out += ':';
    append_number(out, values[i].second);
  }
  out += '}';
}

void append_array(std::string& out, const std::vector<double>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, xs[i]);
  }
  out += ']';
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kPlain: return "plain";
    case Mode::kTraced: return "traced";
    case Mode::kProgramTraced: return "program_traced";
  }
  return "?";
}

struct Rep {
  Mode mode;
  RepResult result;
};

void append_rep(std::string& out, const Rep& rep) {
  out += "{\"mode\":";
  append_string(out, mode_name(rep.mode));
  out += ",\"wall_s\":";
  append_number(out, rep.result.wall_s);
  out += ",\"fingerprint\":";
  append_string(out, perfbench::fingerprint(rep.result.values));
  out += ",\"values\":";
  append_values(out, rep.result.values);
  out += ",\"wall\":";
  append_values(out, rep.result.wall);
  out += ",\"step_s\":";
  append_array(out, rep.result.step_s);
  out += ",\"round_s\":";
  append_array(out, rep.result.round_s);
  out += '}';
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double elapsed_since(std::int64_t t0) {
  return static_cast<double>(perfbench::now_ns() - t0) * 1e-9;
}

/// Plain repetitions until `deadline` seconds after `t0`: another one
/// starts only while the previous one would still fit; at least one runs.
void plain_reps_until(perfbench::Workload& w, std::int64_t t0, double deadline,
                      std::vector<Rep>& reps) {
  double last = 0.0;
  do {
    reps.push_back({Mode::kPlain, w.run(Mode::kPlain)});
    last = reps.back().result.wall_s;
  } while (elapsed_since(t0) + last <= deadline);
}

/// A fixed trace for the Chrome-JSON round-trip test: a parent on this
/// thread with overlapping children on two threads.
void emit_test_trace(const std::string& path) {
  perfbench::set_tracing(true);
  {
    perfbench::Span root("test.root", 7, 3);
    perfbench::RootScope scope(root);
    std::thread worker([] {
      perfbench::Span child("test.worker_child", 1, 2, 5);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    });
    {
      perfbench::Span child("test.local_child", 1, 1, 4);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    worker.join();
  }
  perfbench::set_tracing(false);
  write_file(path, perfbench::chrome_trace_json(perfbench::collect_spans()));
}

int run(const Args& a) {
  if (!a.emit_test_trace.empty()) {
    emit_test_trace(a.emit_test_trace);
    return 0;
  }
  auto w = perfbench::make_workload(a.workload, a.seed, a.workdir);

  std::vector<std::vector<double>> setup_steps;
  perfbench::set_tracing(a.trace);
  for (int i = 0; i < (a.trace ? 1 : kSetupPasses); ++i) {
    setup_steps.push_back(w->setup());
  }
  perfbench::set_tracing(false);
  // The first full-size repetition in a process pays first-touch costs
  // the later ones do not (fleet_serving on a 4-CPU VM: 1.8 s against
  // 1.1 s), so it runs untimed.
  w->run(Mode::kPlain);

  std::vector<Rep> reps;
  if (!a.trace) {
    plain_reps_until(*w, perfbench::now_ns(), a.seconds, reps);
  } else {
    const std::int64_t t0 = perfbench::now_ns();
    plain_reps_until(*w, t0, 0.5 * a.seconds, reps);
    perfbench::set_tracing(true);
    reps.push_back({Mode::kTraced, w->run(Mode::kTraced)});
    perfbench::set_tracing(false);
    plain_reps_until(*w, t0, a.seconds, reps);
    reps.push_back({Mode::kProgramTraced, w->run(Mode::kProgramTraced)});
  }
  const Values reference = w->reference_run();

  std::string doc = "{\"workload\":";
  append_string(doc, a.workload);
  doc += ",\"seed\":" + std::to_string(a.seed);
  doc += ",\"trace\":" + std::to_string(a.trace ? 1 : 0);
  doc += ",\"threads\":" + std::to_string(w->threads());
  doc += ",\"host\":{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":";
  append_string(doc, PERFBENCH_COMPILER);
  doc += ",\"build_type\":";
  append_string(doc, PERFBENCH_BUILD_TYPE);
  doc += ",\"simd\":";
  append_string(doc, pfm::num::simd::backend_name());
  doc += "},\"setup_steps\":[";
  for (std::size_t i = 0; i < setup_steps.size(); ++i) {
    if (i > 0) doc += ',';
    append_array(doc, setup_steps[i]);
  }
  doc += ']';
  doc += ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i > 0) doc += ',';
    append_rep(doc, reps[i]);
  }
  doc += "],\"reference\":";
  if (reference.empty()) {
    doc += "null";
  } else {
    doc += "{\"fingerprint\":";
    append_string(doc, perfbench::fingerprint(reference));
    doc += ",\"values\":";
    append_values(doc, reference);
    doc += '}';
  }
  doc += ",\"peak_rss_mb\":";
  append_number(doc, peak_rss_mb());
  doc += "}\n";
  write_file(a.out, doc);

  if (a.trace) {
    write_file(a.trace_out,
               perfbench::chrome_trace_json(perfbench::collect_spans()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfm_perfbench: %s\n", e.what());
    return 1;
  }
}
