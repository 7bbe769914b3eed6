// Seeded property-test harness for the gtest suites: generator
// combinators over num::Rng plus a case runner whose failures are exactly
// replayable. Every case derives its own seed deterministically from
// (suite seed, case index); when a case fails, the runner prints the
// one-liner that re-runs just that case:
//
//     PFM_PROPERTY_SEED=<case_seed> ctest -R <test> ...
//
// and setting PFM_PROPERTY_SEED makes every pfm_property loop run exactly
// one case with exactly that seed — the failing draw sequence, bit for
// bit, regardless of how many cases the original sweep ran.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/sharding.hpp"
#include "numerics/rng.hpp"

namespace pfm::proptest {

/// Deterministic per-case seed: core::mix64(suite_seed, index) —
/// consecutive cases get decorrelated streams, and a case's seed never
/// depends on how many cases run before it.
inline std::uint64_t case_seed(std::uint64_t suite_seed, std::uint64_t index) {
  return core::mix64(suite_seed, index);
}

/// The seed override, if PFM_PROPERTY_SEED is set (decimal u64).
inline bool replay_seed(std::uint64_t& out) {
  const char* env = std::getenv("PFM_PROPERTY_SEED");
  if (env == nullptr || *env == '\0') return false;
  out = std::strtoull(env, nullptr, 10);
  return true;
}

// --- generator combinators ---------------------------------------------------
// A generator is any callable num::Rng& -> T. These cover the common
// shapes; one-off generators are just lambdas.

/// Uniform double in [lo, hi).
inline auto uniform(double lo, double hi) {
  return [lo, hi](num::Rng& rng) { return rng.uniform(lo, hi); };
}

/// Uniform integer in [lo, hi] (inclusive).
inline auto uniform_int(std::int64_t lo, std::int64_t hi) {
  return [lo, hi](num::Rng& rng) { return rng.uniform_int(lo, hi); };
}

/// Mostly-tame doubles with a deliberate tail: ~80% uniform in
/// [-scale, scale], plus tiny values, huge values, exact zeros and exact
/// boundary hits — the inputs kernel/exp code tends to get wrong.
inline auto rough_double(double scale = 1.0) {
  return [scale](num::Rng& rng) -> double {
    const double roll = rng.uniform();
    if (roll < 0.80) return rng.uniform(-scale, scale);
    if (roll < 0.88) return rng.uniform(-1e-12, 1e-12);
    if (roll < 0.94) return rng.uniform(-1e6, 1e6) * scale;
    if (roll < 0.97) return 0.0;
    return rng.bernoulli(0.5) ? scale : -scale;
  };
}

/// Vector of `n` draws from `gen`.
template <typename Gen>
auto vector_of(std::size_t n, Gen gen) {
  return [n, gen](num::Rng& rng) {
    using T = decltype(gen(rng));
    std::vector<T> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(gen(rng));
    return out;
  };
}

/// Vector whose length is itself drawn from [min_n, max_n].
template <typename Gen>
auto sized_vector_of(std::size_t min_n, std::size_t max_n, Gen gen) {
  return [min_n, max_n, gen](num::Rng& rng) {
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(min_n),
                        static_cast<std::int64_t>(max_n)));
    using T = decltype(gen(rng));
    std::vector<T> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(gen(rng));
    return out;
  };
}

/// One draw from a fixed list of interesting values, `weight` of the
/// time; otherwise falls through to `gen`. Keeps edge cases in every
/// sweep without a separate hand-rolled loop.
template <typename T, typename Gen>
auto one_of_or(std::vector<T> specials, double weight, Gen gen) {
  return [specials = std::move(specials), weight, gen](num::Rng& rng) -> T {
    if (!specials.empty() && rng.uniform() < weight) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(specials.size()) - 1));
      return specials[i];
    }
    return gen(rng);
  };
}

// --- case runner -------------------------------------------------------------

/// Runs `property(rng, case_index)` for `num_cases` deterministic cases.
/// Each case gets a fresh num::Rng seeded from case_seed(suite_seed, i).
/// On the first case that produces a gtest failure, prints the exact
/// replay seed and stops (later cases would only bury the report). With
/// PFM_PROPERTY_SEED set, runs that single seed instead.
template <typename Property>
void run_cases(const char* name, std::uint64_t suite_seed,
               std::size_t num_cases, Property property) {
  std::uint64_t forced = 0;
  if (replay_seed(forced)) {
    SCOPED_TRACE(std::string(name) + " replay PFM_PROPERTY_SEED=" +
                 std::to_string(forced));
    num::Rng rng(forced);
    property(rng, std::size_t{0});
    return;
  }
  for (std::size_t i = 0; i < num_cases; ++i) {
    const std::uint64_t seed = case_seed(suite_seed, i);
    SCOPED_TRACE(std::string(name) + " case " + std::to_string(i) +
                 " (replay with PFM_PROPERTY_SEED=" + std::to_string(seed) +
                 ")");
    num::Rng rng(seed);
    property(rng, i);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << name << ": case " << i
                    << " failed; replay exactly with PFM_PROPERTY_SEED="
                    << seed;
      return;
    }
  }
}

}  // namespace pfm::proptest
