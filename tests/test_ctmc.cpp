#include "ctmc/ctmc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace pfm::ctmc {
namespace {

num::Matrix two_state(double fail, double repair) {
  return num::Matrix{{-fail, fail}, {repair, -repair}};
}

TEST(Ctmc, ValidatesGenerator) {
  EXPECT_THROW(Ctmc(num::Matrix(2, 3)), std::invalid_argument);
  // Negative off-diagonal.
  EXPECT_THROW(Ctmc(num::Matrix{{-1.0, -1.0}, {1.0, -1.0}}),
               std::invalid_argument);
  // Rows not summing to zero.
  EXPECT_THROW(Ctmc(num::Matrix{{-1.0, 2.0}, {1.0, -1.0}}),
               std::invalid_argument);
  EXPECT_NO_THROW(Ctmc(two_state(0.1, 0.9)));
}

TEST(Ctmc, StateNames) {
  Ctmc c(two_state(1.0, 1.0), {"up", "down"});
  EXPECT_EQ(c.state_name(0), "up");
  EXPECT_EQ(c.state_name(1), "down");
  Ctmc d(two_state(1.0, 1.0));
  EXPECT_EQ(d.state_name(1), "S1");
  EXPECT_THROW(Ctmc(two_state(1.0, 1.0), {"only-one"}), std::invalid_argument);
}

TEST(Ctmc, SteadyStateTwoState) {
  Ctmc c(two_state(0.2, 0.8));
  const auto pi = c.steady_state();
  EXPECT_NEAR(pi[0], 0.8, 1e-12);
  EXPECT_NEAR(pi[1], 0.2, 1e-12);
}

TEST(Ctmc, TransientConvergesToSteadyState) {
  Ctmc c(two_state(0.3, 0.7));
  const std::vector<double> p0{1.0, 0.0};
  const auto pt = c.transient(p0, 1000.0);
  const auto pi = c.steady_state();
  EXPECT_NEAR(pt[0], pi[0], 1e-9);
  EXPECT_NEAR(pt[1], pi[1], 1e-9);
}

TEST(Ctmc, TransientAtZeroIsInitial) {
  Ctmc c(two_state(0.3, 0.7));
  const std::vector<double> p0{0.4, 0.6};
  const auto pt = c.transient(p0, 0.0);
  EXPECT_DOUBLE_EQ(pt[0], 0.4);
  EXPECT_DOUBLE_EQ(pt[1], 0.6);
}

TEST(Ctmc, TransientMatchesClosedFormTwoState) {
  // p_00(t) = mu/(l+mu) + l/(l+mu) e^{-(l+mu)t}
  const double l = 0.4, mu = 1.1;
  Ctmc c(two_state(l, mu));
  const std::vector<double> p0{1.0, 0.0};
  for (double t : {0.1, 0.7, 2.0, 5.0}) {
    const auto pt = c.transient(p0, t);
    const double expected =
        mu / (l + mu) + l / (l + mu) * std::exp(-(l + mu) * t);
    EXPECT_NEAR(pt[0], expected, 1e-10);
  }
}

TEST(Ctmc, TimeAverageApproachesSteadyState) {
  Ctmc c(two_state(0.5, 1.5));
  const std::vector<double> p0{1.0, 0.0};
  const auto avg = c.time_average(p0, 2000.0, 400);
  const auto pi = c.steady_state();
  EXPECT_NEAR(avg[0], pi[0], 5e-3);
}

TEST(Ctmc, SimulationOccupancyMatchesSteadyState) {
  Ctmc c(two_state(0.2, 1.8));
  num::Rng rng(99);
  const auto occ = c.simulate_occupancy(0, 200000.0, rng);
  EXPECT_NEAR(occ[0], 0.9, 0.01);
  EXPECT_NEAR(occ[1], 0.1, 0.01);
}

TEST(Ctmc, SimulationStopsInAbsorbingState) {
  // State 1 absorbing.
  num::Matrix q{{-1.0, 1.0}, {0.0, 0.0}};
  Ctmc c(q);
  num::Rng rng(1);
  const auto path = c.simulate(0, 1e6, rng);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.back().state, 1u);
}

TEST(Ctmc, SimulateRejectsBadStart) {
  Ctmc c(two_state(1.0, 1.0));
  num::Rng rng(1);
  EXPECT_THROW(c.simulate(5, 1.0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace pfm::ctmc
