// Frozen compiled-predictor artifact suite (DESIGN.md §11): the
// train -> freeze -> serve round trip must be bit-identical on the score
// grid, the batch sweep both predictors share must not depend on batch
// composition, corrupt artifacts must fail with typed errors (never UB —
// this suite is in the sanitizer label set), and a frozen fleet must
// export byte-identically to the live fleet it was frozen from.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "numerics/rng.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "prediction/frozen.hpp"
#include "prediction/kernels.hpp"
#include "prediction/ubf.hpp"
#include "property.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"
#include "telecom/simulator.hpp"

namespace pfm {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Process-unique artifact paths: ctest runs every gtest case as its own
// process, possibly in parallel, and they all share TempDir() — a bare
// fixed filename would let two corruption cases race on the same bytes.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/pfm" + std::to_string(::getpid()) + "_" +
         name;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A small synthetic model (no training cost) for artifact-level tests.
pred::MixtureModel synthetic_model(std::uint64_t seed = 11,
                                   std::size_t num_kernels = 5,
                                   std::size_t dim = 3) {
  num::Rng rng(seed);
  pred::MixtureModel m;
  m.name = "UBF";
  m.mixture_kernels = true;
  m.num_raw_vars = dim;
  for (std::size_t i = 0; i < dim; ++i) {
    m.selected.push_back(i);
    m.lo.push_back(rng.uniform(-1.0, 0.0));
    m.range.push_back(rng.uniform(0.5, 2.0));
  }
  for (std::size_t i = 0; i < num_kernels; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      m.centers.push_back(rng.uniform(-0.2, 1.2));
    }
    const double w = rng.uniform(0.05, 1.5);
    m.w.push_back(w);
    m.two_w_sq.push_back(2.0 * w * w);
    m.step_scale.push_back(0.3 * w);
    m.mixture.push_back(rng.uniform(0.0, 1.0));
    m.weights.push_back(rng.uniform(-1.5, 1.5));
  }
  m.weights.push_back(0.25);
  return m;
}

struct Corpus {
  std::vector<mon::SymptomSample> samples;
  std::vector<pred::SymptomContext> contexts;
};

Corpus score_grid(std::uint64_t seed, std::size_t batch, std::size_t dim) {
  num::Rng rng(seed);
  Corpus c;
  c.samples.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    mon::SymptomSample s;
    s.time = 600.0 + static_cast<double>(i);
    for (std::size_t j = 0; j < dim; ++j) {
      s.values.push_back(rng.uniform(-1.5, 2.5));
    }
    c.samples.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < batch; ++i) {
    pred::SymptomContext ctx;
    ctx.history = {&c.samples[i], 1};
    c.contexts.push_back(ctx);
  }
  return c;
}

// --- round trip --------------------------------------------------------------

TEST(Frozen, RoundTripPreservesEveryModelBit) {
  const auto model = synthetic_model();
  const auto path = temp_path("roundtrip.pfmfrozen");
  ASSERT_EQ(pred::freeze(model, path), pred::FrozenError::kOk);

  auto loaded = pred::FrozenPredictor::load(path);
  ASSERT_EQ(loaded.error, pred::FrozenError::kOk)
      << pred::to_string(loaded.error);
  ASSERT_NE(loaded.predictor, nullptr);
  const auto& p = *loaded.predictor;

  EXPECT_EQ(p.name(), "UBF");
  EXPECT_EQ(p.header().num_kernels, model.num_kernels());
  EXPECT_EQ(p.header().dim, model.dim());
  EXPECT_EQ(p.header().lane_width, 4u);  // fixed by format v1
  EXPECT_EQ(bits(p.windows().data_window), bits(model.windows.data_window));
  EXPECT_EQ(bits(p.windows().lead_time), bits(model.windows.lead_time));
  EXPECT_EQ(bits(p.windows().prediction_window),
            bits(model.windows.prediction_window));
}

TEST(Frozen, FrozenScoresAreBitIdenticalToTheLiveEngineOnAGrid) {
  // Per case a fresh model is frozen and served; on the same corpus the
  // frozen batch, the live batch and the frozen score() must agree bit
  // for bit.
  const auto path = temp_path("grid.pfmfrozen");
  proptest::run_cases(
      "frozen-vs-live", 301, 20, [&](num::Rng& rng, std::size_t i) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(1, 6));
        const auto dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
        const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 33));
        const auto model =
            synthetic_model(proptest::case_seed(700, i), k, dim);
        ASSERT_EQ(pred::freeze(model, path), pred::FrozenError::kOk);
        auto loaded = pred::FrozenPredictor::load(path);
        ASSERT_EQ(loaded.error, pred::FrozenError::kOk);
        const auto corpus =
            score_grid(proptest::case_seed(900, i), batch, dim);
        const auto view = model.view();

        std::vector<double> live(batch), frozen(batch);
        pred::BatchScratch live_scratch, frozen_scratch;
        pred::score_batch_soa(view, corpus.contexts, live, live_scratch);
        loaded.predictor->score_batch(corpus.contexts, frozen,
                                      frozen_scratch);
        for (std::size_t c = 0; c < batch; ++c) {
          ASSERT_EQ(bits(live[c]), bits(frozen[c])) << "context " << c;
          ASSERT_EQ(bits(frozen[c]),
                    bits(loaded.predictor->score(corpus.contexts[c])))
              << "score() vs batch, context " << c;
        }
      });
}

// --- the batch sweep ---------------------------------------------------------
//
// SimdSweep covers score_batch_soa's column-major (SoA) sweep, the one
// scoring path of the live and the frozen predictor alike.

TEST(SimdSweep, BatchCompositionNeverChangesTheBits) {
  // Scoring a corpus whole vs in two sub-batches must agree bit for bit:
  // the SoA gather re-packs columns per batch, but each context's sweep is
  // independent of its neighbours, so batch geometry is unobservable.
  proptest::run_cases(
      "sweep-composition", 202, 20, [](num::Rng& rng, std::size_t i) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(1, 6));
        const auto dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
        const auto batch = static_cast<std::size_t>(rng.uniform_int(2, 21));
        const auto cut = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(batch) - 1));
        const auto model =
            synthetic_model(proptest::case_seed(702, i), k, dim);
        const auto corpus =
            score_grid(proptest::case_seed(902, i), batch, dim);
        const auto view = model.view();
        const std::span<const pred::SymptomContext> all = corpus.contexts;

        pred::BatchScratch scratch;
        std::vector<double> whole(batch), split(batch);
        const std::span<double> halves = split;
        pred::score_batch_soa(view, all, whole, scratch);
        pred::score_batch_soa(view, all.subspan(0, cut), halves.subspan(0, cut),
                              scratch);
        pred::score_batch_soa(view, all.subspan(cut), halves.subspan(cut),
                              scratch);
        for (std::size_t c = 0; c < batch; ++c) {
          ASSERT_EQ(bits(whole[c]), bits(split[c]))
              << "batch=" << batch << " cut=" << cut << " context " << c;
        }
      });
}

TEST(SimdSweep, ScalarSweepIsBitIdenticalToScoreOne) {
  proptest::run_cases(
      "scalar-vs-score-one", 203, 15, [](num::Rng&, std::size_t i) {
        const auto model = synthetic_model(proptest::case_seed(703, i), 5, 4);
        const auto corpus = score_grid(proptest::case_seed(903, i), 9, 4);
        const auto view = model.view();
        pred::BatchScratch scratch;
        std::vector<double> out(corpus.contexts.size());
        pred::score_batch_soa(view, corpus.contexts, out, scratch);
        for (std::size_t c = 0; c < corpus.contexts.size(); ++c) {
          ASSERT_EQ(bits(out[c]),
                    bits(pred::score_one(view, corpus.contexts[c])))
              << "context " << c;
        }
      });
}

TEST(Frozen, ServeOnlyContractAndErrorPaths) {
  const auto model = synthetic_model();
  const auto path = temp_path("serveonly.pfmfrozen");
  ASSERT_EQ(pred::freeze(model, path), pred::FrozenError::kOk);
  auto loaded = pred::FrozenPredictor::load(path);
  ASSERT_EQ(loaded.error, pred::FrozenError::kOk);

  mon::MonitoringDataset empty(mon::SymptomSchema({"x"}));
  EXPECT_THROW(loaded.predictor->train(empty), std::logic_error);

  const auto corpus = score_grid(7, 4, model.dim());
  std::vector<double> out(3);  // wrong size
  EXPECT_THROW(loaded.predictor->score_batch(corpus.contexts, out),
               std::invalid_argument);
  pred::BatchScratch scratch;
  EXPECT_THROW(loaded.predictor->score_batch(corpus.contexts, out, scratch),
               std::invalid_argument);

  pred::SymptomContext empty_ctx;
  EXPECT_THROW(loaded.predictor->score(empty_ctx), std::invalid_argument);
}

// --- corrupt artifacts -------------------------------------------------------

class FrozenCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = synthetic_model();
    path_ = temp_path("corrupt.pfmfrozen");
    ASSERT_EQ(pred::freeze(model_, path_), pred::FrozenError::kOk);
    artifact_ = read_file(path_);
    ASSERT_GE(artifact_.size(), sizeof(pred::FrozenHeader));
  }

  /// Writes a mutated copy and returns the typed load error.
  pred::FrozenError load_mutated(const std::vector<unsigned char>& data) {
    const auto p = temp_path("mutated.pfmfrozen");
    write_file(p, data);
    return pred::FrozenPredictor::load(p).error;
  }

  pred::MixtureModel model_;
  std::string path_;
  std::vector<unsigned char> artifact_;
};

TEST_F(FrozenCorruption, MissingFileIsAnIoError) {
  EXPECT_EQ(pred::FrozenPredictor::load(temp_path("does-not-exist")).error,
            pred::FrozenError::kIo);
}

TEST_F(FrozenCorruption, TruncationAtEveryBoundaryIsTyped) {
  // Sweep truncation points: inside the header, at the header boundary,
  // inside the payload, one byte short of complete. All typed, none UB.
  const std::vector<std::size_t> cuts = {
      0, 1, 7, sizeof(pred::FrozenHeader) - 1, sizeof(pred::FrozenHeader),
      sizeof(pred::FrozenHeader) + 1, artifact_.size() / 2,
      artifact_.size() - 1};
  for (std::size_t cut : cuts) {
    auto data = artifact_;
    data.resize(cut);
    EXPECT_EQ(load_mutated(data), pred::FrozenError::kTruncated)
        << "cut=" << cut;
  }
}

TEST_F(FrozenCorruption, BadMagicIsTyped) {
  auto data = artifact_;
  data[0] ^= 0xff;
  EXPECT_EQ(load_mutated(data), pred::FrozenError::kBadMagic);
}

TEST_F(FrozenCorruption, UnsupportedVersionIsTyped) {
  auto data = artifact_;
  const std::uint32_t version = 2;
  std::memcpy(data.data() + 8, &version, sizeof(version));
  EXPECT_EQ(load_mutated(data), pred::FrozenError::kBadVersion);
}

TEST_F(FrozenCorruption, WrongLaneWidthIsTyped) {
  // lane_width sits after magic (8) + version (4) + flags (4); format v1
  // fixes it at 4.
  auto data = artifact_;
  const std::uint32_t lanes = 8;
  std::memcpy(data.data() + 16, &lanes, sizeof(lanes));
  EXPECT_EQ(load_mutated(data), pred::FrozenError::kLaneMismatch);
}

TEST_F(FrozenCorruption, PayloadBitFlipFailsTheChecksum) {
  for (std::size_t offset :
       {sizeof(pred::FrozenHeader), sizeof(pred::FrozenHeader) + 17,
        artifact_.size() - 2}) {
    auto data = artifact_;
    data[offset] ^= 0x01;
    EXPECT_EQ(load_mutated(data), pred::FrozenError::kChecksumMismatch)
        << "offset=" << offset;
  }
}

TEST_F(FrozenCorruption, InconsistentCountsAreMalformed) {
  // num_kernels sits after magic(8)+u32x4(16)+name(16) = offset 40.
  auto data = artifact_;
  const std::uint64_t zero = 0;
  std::memcpy(data.data() + 40, &zero, sizeof(zero));
  EXPECT_EQ(load_mutated(data), pred::FrozenError::kMalformed);

  data = artifact_;
  const std::uint64_t huge = 1ull << 32;
  std::memcpy(data.data() + 40, &huge, sizeof(huge));
  EXPECT_EQ(load_mutated(data), pred::FrozenError::kMalformed);
}

TEST_F(FrozenCorruption, GarbageBytesNeverCrash) {
  // Pure fuzz ring: random mutations of a valid artifact must always
  // produce a typed error or a clean load — never UB (ASan/UBSan run
  // this test via the sanitize workflow's Frozen filter).
  proptest::run_cases(
      "frozen-fuzz", 302, 60, [&](num::Rng& rng, std::size_t) {
        auto data = artifact_;
        const auto mutations =
            static_cast<std::size_t>(rng.uniform_int(1, 16));
        for (std::size_t m = 0; m < mutations; ++m) {
          const auto pos = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(data.size()) - 1));
          data[pos] = static_cast<unsigned char>(rng.uniform_int(0, 255));
        }
        if (rng.bernoulli(0.3)) {
          data.resize(static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(data.size()))));
        }
        const auto result = pred::FrozenPredictor::load(
            [&] {
              const auto p = temp_path("fuzz.pfmfrozen");
              write_file(p, data);
              return p;
            }());
        if (result.error == pred::FrozenError::kOk) {
          ASSERT_NE(result.predictor, nullptr);
        } else {
          ASSERT_EQ(result.predictor, nullptr);
          EXPECT_NE(std::string(pred::to_string(result.error)), "unknown error");
        }
      });
}

TEST(Frozen, FreezeRejectsMalformedModels) {
  auto model = synthetic_model();
  model.weights.pop_back();  // missing bias
  EXPECT_EQ(pred::freeze(model, temp_path("bad.pfmfrozen")),
            pred::FrozenError::kMalformed);
  auto empty = pred::MixtureModel{};
  EXPECT_EQ(pred::freeze(empty, temp_path("bad2.pfmfrozen")),
            pred::FrozenError::kMalformed);
  EXPECT_EQ(pred::freeze(synthetic_model(), "/nonexistent-dir/x.pfmfrozen"),
            pred::FrozenError::kIo);
}

// --- train -> freeze -> serve through the fleet ------------------------------

constexpr double kDuration = 0.25 * 86400.0;

pred::WindowGeometry geometry() { return {600.0, 300.0, 300.0}; }

std::shared_ptr<const pred::UbfPredictor> trained_ubf() {
  static const std::shared_ptr<const pred::UbfPredictor> shared = [] {
    telecom::SimConfig cfg;
    cfg.seed = 5;
    cfg.duration = 3.0 * 86400.0;
    telecom::ScpSimulator sim(cfg);
    sim.run();
    pred::UbfConfig ubf_cfg;
    ubf_cfg.windows = geometry();
    ubf_cfg.num_kernels = 4;
    ubf_cfg.selection = pred::VariableSelection::kForward;
    ubf_cfg.shape_evaluations = 80;
    ubf_cfg.max_train_windows = 900;
    auto ubf = std::make_shared<pred::UbfPredictor>(ubf_cfg);
    ubf->train(sim.take_trace());
    return ubf;
  }();
  return shared;
}

struct Artifacts {
  std::string prometheus;
  std::string json_line;
};

Artifacts run_fleet(std::shared_ptr<const pred::SymptomPredictor> predictor) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = 2;
  obs::Observability hub(ocfg);

  telecom::SimConfig sim;
  sim.seed = 21;
  sim.duration = kDuration;
  sim.leak_mtbf = 21600.0;

  runtime::FleetConfig cfg;
  cfg.mea.windows = geometry();
  cfg.mea.warning_threshold = 0.6;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = 2;
  cfg.obs = &hub;

  runtime::FleetController fleet(runtime::make_scp_fleet(sim, 4), cfg);
  fleet.add_symptom_predictor(std::move(predictor));
  fleet.add_action(
      [] { return std::make_unique<act::StateCleanupAction>(0.70); });
  fleet.run();

  Artifacts out;
  out.prometheus = obs::prometheus_text(hub.metrics(), /*include_wall=*/false);
  out.json_line = obs::metrics_json_line(hub.metrics(), /*include_wall=*/false);
  return out;
}

TEST(Frozen, TrainFreezeServeFleetExportsAreByteIdentical) {
  const auto ubf = trained_ubf();

  // export_model() must reproduce the live score cache verbatim.
  const auto model = ubf->export_model();
  EXPECT_EQ(model.name, ubf->name());
  EXPECT_EQ(model.selected, ubf->selected_variables());

  // Freeze the exported model, then serve from the artifact.
  const std::string path =
      ::testing::TempDir() + "/" + model.name + "_0.pfmfrozen";
  ASSERT_EQ(pred::freeze(model, path), pred::FrozenError::kOk);

  auto loaded = pred::FrozenPredictor::load(path);
  ASSERT_EQ(loaded.error, pred::FrozenError::kOk)
      << pred::to_string(loaded.error);
  std::shared_ptr<const pred::SymptomPredictor> frozen =
      std::move(loaded.predictor);

  const auto live = run_fleet(ubf);
  const auto served = run_fleet(frozen);
  EXPECT_EQ(live.prometheus, served.prometheus);
  EXPECT_EQ(live.json_line, served.json_line);
}

}  // namespace
}  // namespace pfm
