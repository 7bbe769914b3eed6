#include "lint.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <regex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "model.hpp"
#include "source.hpp"

namespace pfm::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule: layering
// ---------------------------------------------------------------------------

// The module dependency policy — THE single source of truth (tests and
// the telecom-free-core guarantee assert through it). A module may
// always include itself. Key absences are the point:
//   core      never sees telecom/, runtime/ or injection/ (MEA stays
//             simulator-free; PR 1's seam);
//   numerics  is a leaf;
//   injection wraps the public contracts (core/prediction/actions) only,
//             so fault decorators can never reach around the interfaces;
//   membership describes churn plans and elasticity policy against the
//             ManagedSystem contract alone (core/numerics) — like
//             injection it is a plan vocabulary, never an engine, so it
//             must not see telecom/, runtime/ or obs/;
//   runtime   may bind everything except injection (fault plans stay a
//             caller concern, never a runtime dependency) — membership
//             is allowed: churn plans are executed by the fleet loop
//             itself, unlike fault plans which wrap it from outside, and
//             ctmc is allowed since PR 9: the fleet feeds its live
//             windowed prediction quality into the Eq. 8 availability
//             model (the self-assessment loop of DESIGN.md §10);
//   obs       sits just above numerics: instrumented layers (core,
//             injection, runtime) may include it, but it must never
//             reach back into what it observes — an obs -> telecom (or
//             obs -> core) include is a layering finding.
const std::map<std::string, std::set<std::string>>& allowed_deps() {
  static const std::map<std::string, std::set<std::string>> kPolicy = {
      {"numerics", {}},
      {"obs", {"numerics"}},
      {"ctmc", {"numerics"}},
      {"monitoring", {"numerics"}},
      {"eval", {"monitoring", "numerics"}},
      {"telecom", {"monitoring", "numerics"}},
      {"prediction", {"eval", "monitoring", "numerics"}},
      {"actions", {"core", "numerics"}},
      {"core", {"actions", "monitoring", "numerics", "obs", "prediction"}},
      {"injection", {"actions", "core", "obs", "prediction"}},
      {"membership", {"core", "numerics"}},
      {"runtime",
       {"actions", "core", "ctmc", "eval", "membership", "monitoring",
        "numerics", "obs", "prediction", "telecom"}},
  };
  return kPolicy;
}

void rule_layering(const SourceFile& file, std::vector<Finding>* findings) {
  if (!file.in_src()) return;  // tests/bench may bind any module

  // "src/<module>/..." — files directly under src/ have no module.
  const std::string path_tail = file.rel_path.substr(4);
  const auto slash = path_tail.find('/');
  if (slash == std::string::npos) return;
  const std::string module = path_tail.substr(0, slash);

  const auto& policy = allowed_deps();
  const auto entry = policy.find(module);
  if (entry == policy.end()) {
    emit(findings, file, 1, "layering", "unknown-module",
         "module 'src/" + module +
             "/' is not in the dependency policy; extend allowed_deps() in "
             "tools/pfm_lint/lint.cpp deliberately");
    return;
  }

  // File-prefix overrides: a few files carry a stricter contract than
  // their module at large. The event-scheduler core (runtime/schedule.*)
  // is pure sequential data-structure code — standard library only, so
  // the determinism argument never depends on what a calendar tick may
  // reach; the shard controller (runtime/shard.*) may bind everything
  // runtime may EXCEPT telecom/ and ctmc/ — shards schedule any
  // ManagedSystem and must stay simulator-agnostic, and the Eq. 8 model
  // feed is the owning controller's job, not a shard's.
  static const std::map<std::string, std::set<std::string>> kFileOverrides = {
      {"src/runtime/schedule.", {}},
      {"src/runtime/shard.",
       {"actions", "core", "eval", "monitoring", "numerics", "obs",
        "prediction"}},
  };
  const std::set<std::string>* allowed = &entry->second;
  std::string scope = "src/" + module + "/";
  for (const auto& [prefix, deps] : kFileOverrides) {
    if (file.rel_path.rfind(prefix, 0) == 0) {
      allowed = &deps;
      scope = prefix + "*";
      break;
    }
  }

  // The directive must survive in the code view (i.e. not be commented
  // out), but the target itself is a string literal and only exists in
  // the raw view.
  static const std::regex kDirectivePrefix(R"(^\s*#\s*include\s)");
  static const std::regex kInclude(R"(^\s*#\s*include\s*\"([^\"]+)\")");
  for (std::size_t l = 0; l < file.code.size(); ++l) {
    if (!std::regex_search(file.code[l], kDirectivePrefix)) continue;
    std::smatch m;
    if (!std::regex_search(file.raw[l], m, kInclude)) continue;
    const std::string target = m[1].str();
    const auto target_slash = target.find('/');
    if (target_slash == std::string::npos) continue;  // local header
    const std::string target_module = target.substr(0, target_slash);
    if (target_module == module) continue;
    if (!policy.count(target_module)) continue;  // not a project module
    if (!allowed->count(target_module)) {
      emit(findings, file, l + 1, "layering", "forbidden-include",
           scope + " must not include \"" + target +
               "\" (allowed: self" +
               [&] {
                 std::string list;
                 for (const auto& dep : *allowed) list += ", " + dep;
                 return list;
               }() +
               ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism
// ---------------------------------------------------------------------------

void rule_determinism(const SourceFile& file, std::vector<Finding>* findings) {
  static constexpr const char* kStdRandom =
      "<random> engines and distributions are the standard library's, so "
      "the streams they feed differ between standard libraries";
  struct Banned {
    const char* token;
    bool needs_call;  // must be followed by '(' — bare words are fine
    const char* why;
  };
  static const Banned kBanned[] = {
      {"rand", true, "libc rand() is process-global and unseeded per node"},
      {"srand", true, "libc srand() mutates process-global state"},
      {"random_device", false,
       "std::random_device is platform entropy, never reproducible"},
      {"system_clock", false,
       "wall-clock time leaks host state into results; pass sim time "
       "explicitly (steady_clock is fine for latency telemetry)"},
      {"mt19937", false, kStdRandom},
      {"mt19937_64", false, kStdRandom},
      {"default_random_engine", false, kStdRandom},
  };

  // Names declared in this file as unordered containers, for the
  // iteration check (lexical, file-local — good enough for a codebase
  // that keeps declarations near their loops).
  std::set<std::string> unordered_names;

  for (std::size_t l = 0; l < file.code.size(); ++l) {
    const std::string& code = file.code[l];

    for (const auto& ban : kBanned) {
      for (std::size_t pos = code.find(ban.token); pos != std::string::npos;
           pos = code.find(ban.token, pos + 1)) {
        if (!token_at(code, pos, ban.token)) continue;
        if (ban.needs_call) {
          std::size_t after = pos + std::strlen(ban.token);
          while (after < code.size() && code[after] == ' ') ++after;
          if (after >= code.size() || code[after] != '(') continue;
        }
        emit(findings, file, l + 1, "determinism", "banned-token",
             std::string(ban.token) + " is banned: " + ban.why +
                 "; use a seeded num::Rng stream");
      }
    }

    // Every std::*_distribution class template (but not a project name
    // such as num::stationary_distribution).
    static const std::string kDist = "_distribution";
    for (std::size_t pos = code.find(kDist); pos != std::string::npos;
         pos = code.find(kDist, pos + 1)) {
      const std::size_t end = pos + kDist.size();
      if (end < code.size() && is_ident(code[end])) continue;
      std::size_t begin = pos;
      while (begin > 0 && is_ident(code[begin - 1])) --begin;
      if (begin < 5 || code.compare(begin - 5, 5, "std::") != 0) continue;
      if (begin > 5 && is_ident(code[begin - 6])) continue;
      emit(findings, file, l + 1, "determinism", "banned-token",
           "std::" + code.substr(begin, end - begin) + " is banned: " +
               kStdRandom + "; use a seeded num::Rng stream");
    }

    // Address-keyed containers: map/set (ordered or not) whose first
    // template argument is a pointer type. Iteration order — and for
    // unordered containers even bucket layout — then depends on
    // allocation addresses.
    static const char* kContainers[] = {"unordered_map", "unordered_set",
                                        "unordered_multimap",
                                        "unordered_multiset", "map", "set",
                                        "multimap", "multiset"};
    for (const char* name : kContainers) {
      for (std::size_t pos = code.find(name); pos != std::string::npos;
           pos = code.find(name, pos + 1)) {
        if (!token_at(code, pos, name)) continue;
        std::size_t open = pos + std::strlen(name);
        while (open < code.size() && code[open] == ' ') ++open;
        if (open >= code.size() || code[open] != '<') continue;
        const std::string key = first_template_arg(code, open);
        if (!key.empty() && key.back() == '*') {
          emit(findings, file, l + 1, "determinism", "address-keyed",
               std::string(name) + "<" + key +
                   ", ...> is keyed by object addresses; key by a stable id "
                   "instead");
        }
      }
    }

    // Collect unordered-container variable names: `unordered_map<...> x`
    // (declaration), for the iteration check below.
    if (file.in_src()) {
      for (const char* name : {"unordered_map", "unordered_set",
                               "unordered_multimap", "unordered_multiset"}) {
        for (std::size_t pos = code.find(name); pos != std::string::npos;
             pos = code.find(name, pos + 1)) {
          if (!token_at(code, pos, name)) continue;
          std::size_t open = pos + std::strlen(name);
          while (open < code.size() && code[open] == ' ') ++open;
          if (open >= code.size() || code[open] != '<') continue;
          std::size_t after = past_angle_list(code, open);
          if (after == std::string::npos) continue;
          while (after < code.size() &&
                 (code[after] == ' ' || code[after] == '&')) {
            ++after;
          }
          std::size_t end = after;
          while (end < code.size() && is_ident(code[end])) ++end;
          if (end > after) {
            unordered_names.insert(code.substr(after, end - after));
          }
        }
      }
    }
  }

  // Iteration over unordered containers inside src/: a range-for whose
  // range expression names a container declared unordered in this file.
  // Reduce paths must visit elements in a stable order; iterate a sorted
  // key list or switch to an ordered/indexed container.
  if (file.in_src() && !unordered_names.empty()) {
    static const std::regex kRangeFor(R"(\bfor\s*\(([^;)]*):([^;]*)\))");
    for (std::size_t l = 0; l < file.code.size(); ++l) {
      std::smatch m;
      const std::string& code = file.code[l];
      if (!std::regex_search(code, m, kRangeFor)) continue;
      const std::string range = m[2].str();
      for (const auto& name : unordered_names) {
        std::size_t pos = range.find(name);
        while (pos != std::string::npos && !token_at(range, pos, name)) {
          pos = range.find(name, pos + 1);
        }
        if (pos != std::string::npos) {
          emit(findings, file, l + 1, "determinism", "unordered-iteration",
               "iterating unordered container '" + name +
                   "' — order is implementation-defined and would leak into "
                   "any reduce; iterate sorted keys instead");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: concurrency
// ---------------------------------------------------------------------------

void rule_concurrency(const SourceFile& file, std::vector<Finding>* findings) {
  // The pool's per-task capture sites are the one place catch (...) is
  // the design (exceptions become exception_ptr slots, every index still
  // runs). Everywhere else it needs an explicit allow.
  const bool capture_site = file.rel_path == "src/runtime/thread_pool.cpp";

  // The only src/ files that may touch raw threading primitives: the
  // pool itself and the annotated MutexLock wrapper it hands out for
  // condition_variable interop.
  const bool thread_site = file.rel_path == "src/runtime/thread_pool.cpp" ||
                           file.rel_path == "src/runtime/thread_pool.hpp" ||
                           file.rel_path == "src/runtime/annotations.hpp";

  static const std::regex kCatchAll(R"(\bcatch\s*\(\s*\.\.\.\s*\))");
  static const std::regex kStaticDecl(R"(^\s*(inline\s+)?static\s+\w)");

  for (std::size_t l = 0; l < file.code.size(); ++l) {
    const std::string& code = file.code[l];

    if (!capture_site && std::regex_search(code, kCatchAll)) {
      emit(findings, file, l + 1, "concurrency", "catch-all",
           "catch (...) swallows every failure mode; outside the "
           "ThreadPool capture sites, catch concrete exception types (or "
           "pfm-lint: allow(concurrency) with a reason)");
    }

    if (!file.in_src()) continue;  // the checks below are src/-only

    // Raw threading primitives outside the pool. Persistent-worker
    // state (generation counters, parked workers, shard cursors) only
    // stays coherent behind the pool's annotated handshake; a stray
    // std::thread, std::async or condition_variable bypasses all of
    // it — async in particular spawns an unpooled thread whose join
    // point (the future's destructor) is invisible to the epoch
    // barrier.
    if (!thread_site) {
      for (const char* name : {"std::thread", "std::jthread", "std::async",
                               "condition_variable"}) {
        for (std::size_t pos = code.find(name); pos != std::string::npos;
             pos = code.find(name, pos + 1)) {
          if (!token_at(code, pos, name)) continue;
          emit(findings, file, l + 1, "concurrency", "raw-thread",
               std::string(name) +
                   " outside src/runtime/thread_pool — spawn threads only "
                   "through runtime::ThreadPool; persistent-worker state "
                   "must live behind its annotated handshake");
        }
      }
    }

    for (std::size_t pos = code.find("volatile"); pos != std::string::npos;
         pos = code.find("volatile", pos + 1)) {
      if (!token_at(code, pos, "volatile")) continue;
      emit(findings, file, l + 1, "concurrency", "volatile",
           "volatile is not a synchronization primitive; use std::atomic "
           "or a mutex");
    }

    // Mutable static-duration state: `static T x...` that is not const,
    // constexpr, thread_local or atomic, and is a variable (no parameter
    // list before the declarator ends → not a function/method
    // declaration). Shared counters belong in per-task slots, atomics,
    // or behind a PFM_GUARDED_BY-annotated lock.
    if (std::regex_search(code, kStaticDecl)) {
      const bool immutable =
          code.find("const") != std::string::npos ||       // const/constexpr/
          code.find("constinit") != std::string::npos;     //   constexpr'd init
      const bool thread_local_var =
          code.find("thread_local") != std::string::npos;
      const bool atomic = code.find("atomic") != std::string::npos;
      const std::size_t stop = code.find_first_of(";={");
      const std::size_t paren = code.find('(');
      // No terminator on this line → the declaration continues; a purely
      // lexical pass cannot judge it, so stay quiet (src/ keeps static
      // declarators on one line).
      const bool undecidable = stop == std::string::npos;
      const bool function_decl = paren != std::string::npos && paren < stop;
      if (!immutable && !thread_local_var && !atomic && !undecidable &&
          !function_decl) {
        emit(findings, file, l + 1, "concurrency", "mutable-static",
             "mutable static state is shared across every thread and "
             "fleet node; use per-task slots, std::atomic, or a "
             "PFM_GUARDED_BY-annotated lock");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

using FileRuleFn = void (*)(const SourceFile&, std::vector<Finding>*);
using GraphRuleFn = void (*)(const ProjectModel&, std::vector<Finding>*);

struct RuleEntry {
  std::string name;
  FileRuleFn file_rule = nullptr;    // exactly one of the two is set
  GraphRuleFn graph_rule = nullptr;
};

const std::vector<RuleEntry>& rule_table() {
  static const std::vector<RuleEntry> kRules = {
      {"layering", &rule_layering, nullptr},
      {"determinism", &rule_determinism, nullptr},
      {"concurrency", &rule_concurrency, nullptr},
      {"hotpath", nullptr, &rule_hotpath},
      {"walltaint", nullptr, &rule_walltaint},
      {"lockdiscipline", nullptr, &rule_lockdiscipline},
  };
  return kRules;
}

bool has_source_extension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& entry : rule_table()) names.push_back(entry.name);
    return names;
  }();
  return kNames;
}

std::vector<Finding> run(const Options& options) {
  RunStats stats;
  return run(options, &stats);
}

std::vector<Finding> run(const Options& options, RunStats* stats) {
  namespace fs = std::filesystem;
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<FileRuleFn> file_rules;
  std::vector<GraphRuleFn> graph_rules;
  const auto& table = rule_table();
  auto select = [&](const RuleEntry& entry) {
    if (entry.file_rule) file_rules.push_back(entry.file_rule);
    if (entry.graph_rule) graph_rules.push_back(entry.graph_rule);
  };
  if (options.rules.empty()) {
    for (const auto& entry : table) select(entry);
  } else {
    for (const auto& wanted : options.rules) {
      const auto it = std::find_if(
          table.begin(), table.end(),
          [&](const RuleEntry& entry) { return entry.name == wanted; });
      if (it == table.end()) {
        throw std::runtime_error("pfm-analyze: unknown rule '" + wanted + "'");
      }
      select(*it);
    }
  }

  if (!fs::is_directory(options.root)) {
    throw std::runtime_error("pfm-analyze: root is not a directory: " +
                             options.root.string());
  }

  // Collect the file list first (sorted, so worker partitioning and
  // output are deterministic), then lex + run per-file rules in
  // parallel. Rules are pure functions of one file; workers only merge
  // results at the join.
  struct Job {
    fs::path path;
    std::string rel;
  };
  std::vector<Job> jobs_list;
  for (const char* subtree : {"src", "tests"}) {
    const fs::path base = options.root / subtree;
    if (!fs::is_directory(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base);
         it != fs::recursive_directory_iterator(); ++it) {
      const fs::path& path = it->path();
      if (it->is_directory()) {
        const std::string name = path.filename().string();
        if (std::find(options.exclude_dirs.begin(), options.exclude_dirs.end(),
                      name) != options.exclude_dirs.end()) {
          it.disable_recursion_pending();
        }
        continue;
      }
      if (!it->is_regular_file() || !has_source_extension(path)) continue;
      jobs_list.push_back(
          {path, fs::relative(path, options.root).generic_string()});
    }
  }
  std::sort(jobs_list.begin(), jobs_list.end(),
            [](const Job& a, const Job& b) { return a.rel < b.rel; });

  std::size_t workers = options.jobs;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers = std::min({workers, jobs_list.size(), std::size_t{16}});
  if (workers == 0) workers = 1;

  std::vector<std::shared_ptr<const SourceFile>> sources(jobs_list.size());
  std::vector<std::vector<Finding>> worker_findings(workers);
  std::vector<std::string> worker_errors(workers);
  {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          for (std::size_t i = w; i < jobs_list.size(); i += workers) {
            auto source =
                load_source_cached(jobs_list[i].path, jobs_list[i].rel);
            for (FileRuleFn rule : file_rules) {
              rule(*source, &worker_findings[w]);
            }
            sources[i] = std::move(source);
          }
        } catch (const std::exception& e) {
          worker_errors[w] = e.what();
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  for (const auto& err : worker_errors) {
    if (!err.empty()) throw std::runtime_error(err);
  }

  std::vector<Finding> findings;
  for (auto& wf : worker_findings) {
    findings.insert(findings.end(), std::make_move_iterator(wf.begin()),
                    std::make_move_iterator(wf.end()));
  }
  stats->files = jobs_list.size();
  stats->jobs = workers;
  stats->load_ms = ms_since(t0);

  // Graph rules see the src/ views of the tree (fixture trees keep
  // their seeded code under <fixture>/src/ for the same reason).
  const auto t1 = std::chrono::steady_clock::now();
  if (!graph_rules.empty()) {
    std::vector<std::shared_ptr<const SourceFile>> src_files;
    for (const auto& source : sources) {
      if (source && source->in_src()) src_files.push_back(source);
    }
    const ProjectModel model = build_model(std::move(src_files));
    stats->functions = model.functions.size();
    for (const auto& fn : model.functions) {
      stats->call_edges += fn.calls.size();
    }
    for (GraphRuleFn rule : graph_rules) rule(model, &findings);
  }
  stats->graph_ms = ms_since(t1);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.check, a.message) <
                     std::tie(b.file, b.line, b.check, b.message);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule && a.check == b.check &&
                                      a.message == b.message;
                             }),
                 findings.end());
  stats->total_ms = ms_since(t0);
  return findings;
}

std::string format(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "/" + finding.check + "] " + finding.message;
}

}  // namespace pfm::lint
