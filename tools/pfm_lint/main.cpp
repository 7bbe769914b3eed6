// pfm-analyze CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error or
// runtime budget exceeded — so CI and the pre-merge gate can distinguish
// "violations" from "broken invocation".

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "lint.hpp"
#include "sarif.hpp"

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: pfm-analyze [--root DIR] [--rule NAME]... [--format text|sarif]\n"
      "                   [--verbose] [--budget-ms N] [--jobs N]\n"
      "                   [--list-rules]\n"
      "\n"
      "Walks DIR/src and DIR/tests (default DIR: .) and enforces the\n"
      "project invariants as suppressible diagnostics:\n"
      "\n"
      "  layering        module dependency policy (core is telecom- and\n"
      "                  runtime-free, numerics is a leaf, injection wraps\n"
      "                  public contracts only)\n"
      "  determinism     no rand()/random_device/system_clock, no\n"
      "                  <random> engines or std::*_distribution, no\n"
      "                  address-keyed containers, no unordered iteration\n"
      "                  in src/\n"
      "  concurrency     no mutable statics, no volatile-as-sync, no\n"
      "                  catch (...) outside ThreadPool capture sites\n"
      "  hotpath         functions reachable from // pfm-hot entry points\n"
      "                  must not allocate, throw, lock or do stream I/O\n"
      "                  (// pfm-cold bounds the closure)\n"
      "  walltaint       wall-clock-derived values must not reach\n"
      "                  sim-time metric instruments or trace emission\n"
      "  lockdiscipline  PFM_GUARDED_BY fields only touched inside a\n"
      "                  lock scope holding their capability; no\n"
      "                  double-acquisition\n"
      "\n"
      "  --format sarif  emit SARIF 2.1.0 on stdout (GitHub code\n"
      "                  scanning); text is the default\n"
      "  --verbose       print scan statistics (files, functions, call\n"
      "                  edges, phase timings) to stderr\n"
      "  --budget-ms N   exit 2 when the scan takes longer than N ms\n"
      "                  (the CI runtime-budget gate)\n"
      "  --jobs N        worker threads (default: hardware concurrency)\n"
      "\n"
      "Suppress a finding in place with `// pfm-lint: allow(<rule>)` on\n"
      "(or immediately above) the offending line; `allow-file(<rule>)`\n"
      "disables a rule for a whole file. Annotate hot entry points with\n"
      "`// pfm-hot` and closure-bounding slow paths with `// pfm-cold`.\n"
      "See DESIGN.md, \"Correctness tooling\".\n",
      out);
}

}  // namespace

int main(int argc, char** argv) {
  pfm::lint::Options options;
  options.root = ".";
  bool sarif = false;
  bool verbose = false;
  long long budget_ms = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--list-rules") {
      for (const auto& name : pfm::lint::known_rules()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (arg == "--verbose") {
      verbose = true;
      continue;
    }
    if (arg == "--root" || arg == "--rule" || arg == "--format" ||
        arg == "--budget-ms" || arg == "--jobs") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pfm-analyze: %s needs a value\n\n", arg.c_str());
        usage(stderr);
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--root") {
        options.root = value;
      } else if (arg == "--rule") {
        options.rules.push_back(value);
      } else if (arg == "--format") {
        if (value == "sarif") {
          sarif = true;
        } else if (value == "text") {
          sarif = false;
        } else {
          std::fprintf(stderr, "pfm-analyze: unknown format '%s'\n\n",
                       value.c_str());
          usage(stderr);
          return 2;
        }
      } else if (arg == "--budget-ms") {
        budget_ms = std::atoll(value.c_str());
      } else {
        options.jobs = static_cast<std::size_t>(std::atoll(value.c_str()));
      }
      continue;
    }
    // `--format=sarif` style.
    if (arg.rfind("--format=", 0) == 0) {
      const std::string value = arg.substr(9);
      if (value == "sarif") {
        sarif = true;
        continue;
      }
      if (value == "text") {
        sarif = false;
        continue;
      }
      std::fprintf(stderr, "pfm-analyze: unknown format '%s'\n\n",
                   value.c_str());
      usage(stderr);
      return 2;
    }
    std::fprintf(stderr, "pfm-analyze: unknown argument '%s'\n\n", arg.c_str());
    usage(stderr);
    return 2;
  }

  try {
    const auto t0 = std::chrono::steady_clock::now();
    pfm::lint::RunStats stats;
    const auto findings = pfm::lint::run(options, &stats);
    const auto elapsed_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();

    if (sarif) {
      std::fputs(pfm::lint::to_sarif(findings).c_str(), stdout);
    } else {
      for (const auto& finding : findings) {
        std::printf("%s\n", pfm::lint::format(finding).c_str());
      }
      if (!findings.empty()) {
        std::printf("pfm-analyze: %zu finding%s\n", findings.size(),
                    findings.size() == 1 ? "" : "s");
      }
    }
    if (verbose) {
      std::fprintf(stderr,
                   "pfm-analyze: %zu files, %zu functions, %zu call edges "
                   "(%zu jobs)\n"
                   "pfm-analyze: scan %.1f ms, graph %.1f ms, total %.1f ms\n",
                   stats.files, stats.functions, stats.call_edges, stats.jobs,
                   stats.load_ms, stats.graph_ms, stats.total_ms);
    }
    if (budget_ms >= 0 &&
        elapsed_ns > budget_ms * 1000000LL) {
      std::fprintf(stderr,
                   "pfm-analyze: runtime budget exceeded: %.1f ms > %lld ms\n",
                   static_cast<double>(elapsed_ns) / 1e6, budget_ms);
      return 2;
    }
    return findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
