#include <chrono>
#include <cstdlib>
#include <map>
#include <random>
#include <unordered_map>

struct Obs {};

// Fixture: every banned entropy source, one per line (11-14).
double bad_entropy() {
  std::srand(42);
  double x = static_cast<double>(std::rand());
  std::random_device rd;
  auto t = std::chrono::system_clock::now();
  (void)t;
  return x + static_cast<double>(rd());
}

// Fixture: an address-keyed map (line 22) and iteration over an
// unordered container in a reduce (declared line 23, iterated line 25).
double bad_reduce() {
  std::map<const Obs*, double> weights;
  std::unordered_map<int, double> scores;
  double sum = 0.0;
  for (const auto& entry : scores) sum += entry.second;
  return sum + static_cast<double>(weights.size());
}

// Fixture: <random> engines and distributions, one per line (32-36); the
// project's own num::stationary_distribution (line 37) is not banned.
double bad_streams() {
  std::mt19937 a(1);
  std::mt19937_64 b(2);
  std::default_random_engine c(3);
  std::normal_distribution<double> d(0.0, 1.0);
  std::poisson_distribution<long> e(4.0);
  const auto pi = num::stationary_distribution(q);
  return d(a) + static_cast<double>(e(b) + c()) + pi[0];
}
