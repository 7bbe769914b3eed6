// Golden fingerprints of predictor training: the FNV-1a-64 of the HSMM
// predictor's scores over its own training sequences, and of the bytes of
// the frozen artifact of a small-budget UBF predictor, both trained on a
// short fixed-seed simulated SCP trace. Baum-Welch, k-means, PWA
// selection, the kernel-shape search and the least-squares fit all feed
// these bits, so a change that claims to make training faster without
// changing the models must leave both values alone.
//
// The values depend on libm only (glibc's exp/log/sqrt/pow), not on the C++
// standard library: num::Rng owns its engine and every sampler.
// An intended change to seeded numbers regenerates them: the failure
// message prints the new value.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "prediction/frozen.hpp"
#include "prediction/hsmm.hpp"
#include "prediction/ubf.hpp"
#include "telecom/simulator.hpp"

namespace pfm {
namespace {

constexpr std::uint64_t kHsmmScores = 0x358cb86a71a14dbdULL;
constexpr std::uint64_t kUbfArtifact = 0x182caaabdc575562ULL;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a64(std::uint64_t h, unsigned char byte) {
  h ^= byte;
  return h * 0x100000001b3ULL;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

pred::WindowGeometry geometry() { return {600.0, 300.0, 300.0}; }

mon::MonitoringDataset trace() {
  telecom::SimConfig cfg;
  cfg.seed = 9;
  cfg.duration = 3.0 * 86400.0;
  telecom::ScpSimulator sim(cfg);
  sim.run();
  return sim.take_trace();
}

TEST(TrainingGolden, HsmmScoresAndUbfArtifactAreUnchanged) {
  const auto data = trace();
  const auto g = geometry();

  const auto failing = data.failure_sequences(g.data_window, g.lead_time);
  const auto quiet = data.nonfailure_sequences(g.data_window, g.lead_time,
                                               g.prediction_window, 300.0);
  ASSERT_FALSE(failing.empty());
  ASSERT_FALSE(quiet.empty());
  pred::HsmmPredictorConfig hsmm_cfg;
  hsmm_cfg.windows = g;
  pred::HsmmPredictor hsmm(hsmm_cfg);
  hsmm.train(failing, quiet);
  std::uint64_t scores = kFnvOffset;
  for (const auto* seqs : {&failing, &quiet}) {
    for (const auto& s : *seqs) {
      const auto bits = std::bit_cast<std::uint64_t>(hsmm.score(s));
      for (int b = 0; b < 64; b += 8) {
        scores = fnv1a64(scores, static_cast<unsigned char>(bits >> b));
      }
    }
  }

  pred::UbfConfig ubf_cfg;
  ubf_cfg.windows = g;
  ubf_cfg.num_kernels = 4;
  ubf_cfg.pwa_iterations = 12;
  ubf_cfg.shape_evaluations = 80;
  ubf_cfg.max_train_windows = 800;
  pred::UbfPredictor ubf(ubf_cfg);
  ubf.train(data);
  const std::string path = ::testing::TempDir() + "/pfm" +
                           std::to_string(::getpid()) + "_training_golden.pfz";
  ASSERT_EQ(pred::freeze(ubf.export_model(), path), pred::FrozenError::kOk);
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  in.close();
  std::remove(path.c_str());
  ASSERT_FALSE(bytes.empty());
  std::uint64_t artifact = kFnvOffset;
  for (const char c : bytes) {
    artifact = fnv1a64(artifact, static_cast<unsigned char>(c));
  }

  EXPECT_EQ(scores, kHsmmScores) << "HSMM scores hash " << hex(scores);
  EXPECT_EQ(artifact, kUbfArtifact) << "UBF artifact hash " << hex(artifact);
}

}  // namespace
}  // namespace pfm
