#pragma once

// The benchmark's workloads. Each one is a closed loop with one client:
// the driver thread makes the next call only after the previous one
// returned. Inputs are pure functions of the workload seed.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Named numbers in insertion order.
using Values = std::vector<std::pair<std::string, double>>;

/// How a repetition is instrumented.
enum class Mode {
  kPlain,          ///< no instrumentation: the end-to-end measurement
  kTraced,         ///< the benchmark's decorators and phase spans
  kProgramTraced,  ///< the library's own obs tracing, no decorators
};

struct RepResult {
  double wall_s = 0.0;  ///< the timed section
  /// Wall time of each consecutive step of the timed section, adding up
  /// to wall_s: a phase of the pipeline, one simulated day of rounds on
  /// fleet_dense, the one run() on fleet_serving. Every repetition has
  /// the same steps.
  std::vector<double> step_s;
  std::vector<double> round_s;  ///< per-round wall time, round-timed loops
  Values values;                ///< deterministic outputs and counts
  Values wall;                  ///< wall-clock telemetry read from the library
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads the workload runs on, the driver thread included.
  virtual std::size_t threads() const = 0;

  /// Everything before the first timed call: builds the inputs from the
  /// seed and constructs the first fleet. The benchmark runs it several
  /// times; later repetitions use the last pass's inputs. Returns the wall
  /// time of each consecutive step of the pass (the same steps every pass).
  virtual std::vector<double> setup() = 0;

  /// One repetition of the timed section.
  virtual RepResult run(Mode mode) = 0;

  /// An untimed reference run after the timed section whose values must
  /// equal a repetition's; empty when the workload has none.
  virtual Values reference_run() { return {}; }
};

/// Builds a workload by name; throws std::invalid_argument for an
/// unknown name. `workdir` receives transient files (the frozen artifact).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir);

/// Deterministic fingerprint of a repetition's values (FNV-1a over the
/// names and the exact bits of every value).
std::string fingerprint(const Values& values);

}  // namespace perfbench
