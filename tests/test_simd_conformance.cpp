// Differential conformance suite of the SIMD scoring layer (DESIGN.md
// §11). Three rings, progressively wider:
//
//  1. num::simd primitives: the dispatched backend must be bit-identical
//     to the portable reference lanes on every input (including the
//     padded-remainder tails), and vexp must stay within 1 ULP of libm
//     across the full double range — overflow, underflow, denormals, NaN.
//  2. The Eq. 1 kernel sweep: sweep_simd vs sweep_scalar within the
//     documented ULP envelope, batch-composition invariant, and
//     threshold-decision identical on the conformance corpus.
//  3. Full-fleet replays: BatchKernel::kSimd exports byte-identical to
//     kScalar across threads {1,2,8} and shards {1,4,16}, clean and
//     under a hostile fault plan — the same artifact set the fleet
//     conformance suite pins.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "injection/injector.hpp"
#include "numerics/simd.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "prediction/baselines.hpp"
#include "prediction/kernels.hpp"
#include "prediction/ubf.hpp"
#include "property.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scp_system.hpp"
#include "telecom/simulator.hpp"

namespace pfm {
namespace {

namespace simd = num::simd;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// ULP distance via the ordered integer mapping (handles the sign
/// boundary; infinite for mixed NaN/non-NaN pairs).
std::uint64_t ulp_diff(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) == std::isnan(b)
               ? 0
               : std::numeric_limits<std::uint64_t>::max();
  }
  auto ordered = [](double x) {
    const auto u = std::bit_cast<std::int64_t>(x);
    return u >= 0 ? u : std::numeric_limits<std::int64_t>::min() - u;
  };
  const std::int64_t ia = ordered(a);
  const std::int64_t ib = ordered(b);
  return ia >= ib ? static_cast<std::uint64_t>(ia - ib)
                  : static_cast<std::uint64_t>(ib - ia);
}

/// The final-score agreement policy (DESIGN.md §11): tight in ULP for
/// well-conditioned scores, with an absolute escape hatch where kernel
/// cancellation makes relative error meaningless.
void expect_score_close(double simd_score, double scalar_score,
                        const char* what) {
  const bool ok = ulp_diff(simd_score, scalar_score) <= 256 ||
                  std::abs(simd_score - scalar_score) <= 1e-12;
  EXPECT_TRUE(ok) << what << ": simd=" << simd_score
                  << " scalar=" << scalar_score
                  << " ulp=" << ulp_diff(simd_score, scalar_score);
}

// === ring 1: primitives ======================================================

TEST(SimdExp, BackendReportsConsistently) {
  const std::string name = simd::backend_name();
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar") << name;
  EXPECT_EQ(simd::vectorized(), name != "scalar");
}

TEST(SimdExp, Within2UlpOfLibmAcrossTheNormalRange) {
  // Dense deterministic grid over the whole finite exp domain. The hard
  // conformance contract is backend bit-identity (below); this test is
  // the accuracy floor, and 2 ULP is the documented bound for the
  // Cephes-style rational polynomial (glibc itself is faithfully rounded
  // but not correctly rounded, so the measured gap combines both).
  constexpr int kSteps = 200000;
  const double lo = simd::detail::kExpUnderflow - 2.0;
  const double hi = simd::detail::kExpOverflow + 2.0;
  std::vector<double> x(kSteps), y(kSteps);
  for (int i = 0; i < kSteps; ++i) {
    x[i] = lo + (hi - lo) * static_cast<double>(i) /
                    static_cast<double>(kSteps - 1);
  }
  simd::vexp(x.data(), y.data(), x.size());
  std::uint64_t worst = 0;
  for (int i = 0; i < kSteps; ++i) {
    worst = std::max(worst, ulp_diff(y[i], std::exp(x[i])));
  }
  EXPECT_LE(worst, 2u) << "vexp drifted from libm";
}

TEST(SimdExp, EdgeCasesMatchLibmSemantics) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> x = {
      0.0, -0.0, 1.0, -1.0, inf, -inf, nan,
      simd::detail::kExpOverflow, simd::detail::kExpOverflow + 1e-9,
      simd::detail::kExpUnderflow, simd::detail::kExpUnderflow - 1e-9,
      709.0, -745.0, -708.0, 708.0};
  std::vector<double> y(x.size());
  simd::vexp(x.data(), y.data(), x.size());
  EXPECT_EQ(bits(y[0]), bits(1.0));
  EXPECT_EQ(bits(y[1]), bits(1.0));
  EXPECT_EQ(y[4], inf);
  EXPECT_EQ(bits(y[5]), bits(0.0));
  EXPECT_TRUE(std::isnan(y[6])) << "NaN must pass through";
  EXPECT_EQ(y[8], inf) << "above the overflow threshold";
  EXPECT_EQ(bits(y[10]), bits(0.0)) << "below the underflow threshold";
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(ulp_diff(y[i], std::exp(x[i])), 1u) << "x=" << x[i];
  }
}

TEST(SimdExp, GradualUnderflowMatchesLibmThroughDenormals) {
  // The denormal band: results here are representable only with gradual
  // underflow; a flush-to-zero implementation fails loudly.
  std::vector<double> x, y;
  for (double v = -709.0; v > simd::detail::kExpUnderflow; v -= 0.37) {
    x.push_back(v);
  }
  y.resize(x.size());
  simd::vexp(x.data(), y.data(), x.size());
  bool saw_denormal = false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ref = std::exp(x[i]);
    if (ref > 0.0 && ref < std::numeric_limits<double>::min()) {
      saw_denormal = true;
    }
    EXPECT_LE(ulp_diff(y[i], ref), 1u) << "x=" << x[i];
  }
  EXPECT_TRUE(saw_denormal) << "band did not reach denormal outputs";
}

TEST(SimdExp, DispatchedBackendIsBitIdenticalToPortableLanes) {
  proptest::run_cases(
      "vexp-backend-vs-portable", /*suite_seed=*/101, /*num_cases=*/40,
      [](num::Rng& rng, std::size_t) {
        const auto gen = proptest::sized_vector_of(
            1, 67, proptest::rough_double(700.0));
        const auto x = gen(rng);
        std::vector<double> a(x.size()), b(x.size());
        simd::vexp(x.data(), a.data(), x.size());
        simd::detail::vexp_portable(x.data(), b.data(), x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          ASSERT_EQ(bits(a[i]), bits(b[i]))
              << "x=" << x[i] << " backend=" << simd::backend_name();
        }
      });
}

TEST(SimdOps, AxpyIsBitIdenticalToTheScalarStatement) {
  proptest::run_cases(
      "axpy", 102, 30, [](num::Rng& rng, std::size_t) {
        const auto gen =
            proptest::sized_vector_of(1, 41, proptest::rough_double(10.0));
        const auto x = gen(rng);
        auto y = proptest::vector_of(x.size(), proptest::rough_double(10.0))(rng);
        const double a = rng.uniform(-3.0, 3.0);
        auto y_ref = y;
        for (std::size_t i = 0; i < x.size(); ++i) y_ref[i] += a * x[i];
        simd::axpy(a, x.data(), y.data(), x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          ASSERT_EQ(bits(y[i]), bits(y_ref[i])) << "i=" << i;
        }
      });
}

TEST(SimdOps, DotIsDeterministicAndBackendInvariant) {
  proptest::run_cases(
      "dot", 103, 30, [](num::Rng& rng, std::size_t) {
        const auto gen =
            proptest::sized_vector_of(1, 53, proptest::rough_double(4.0));
        const auto a = gen(rng);
        const auto b =
            proptest::vector_of(a.size(), proptest::rough_double(4.0))(rng);
        const double d1 = simd::dot(a.data(), b.data(), a.size());
        const double d2 = simd::dot(a.data(), b.data(), a.size());
        const double dp = simd::detail::dot_portable(a.data(), b.data(),
                                                     a.size());
        ASSERT_EQ(bits(d1), bits(d2)) << "dot must be deterministic";
        ASSERT_EQ(bits(d1), bits(dp)) << "dot must be backend-invariant";
      });
}

TEST(SimdOps, SquaredDistanceMatchesTheScalarSweepBitForBit) {
  proptest::run_cases(
      "sqdist", 104, 30, [](num::Rng& rng, std::size_t) {
        const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 23));
        const auto dim = static_cast<std::size_t>(rng.uniform_int(1, 9));
        const auto features = proptest::vector_of(
            batch * dim, proptest::uniform(-0.5, 1.5))(rng);
        const auto center =
            proptest::vector_of(dim, proptest::uniform(-0.5, 1.5))(rng);
        std::vector<double> d2(batch), ref(batch);
        simd::squared_distance_soa(features.data(), batch, dim, center.data(),
                                   d2.data());
        for (std::size_t c = 0; c < batch; ++c) {
          double s = 0.0;
          for (std::size_t j = 0; j < dim; ++j) {
            const double d = features[j * batch + c] - center[j];
            s += d * d;
          }
          ref[c] = s;
        }
        for (std::size_t c = 0; c < batch; ++c) {
          ASSERT_EQ(bits(d2[c]), bits(ref[c])) << "c=" << c;
        }
      });
}

TEST(SimdOps, ActivationAndSigmoidsMatchPortableLanesOnEveryBatchSize) {
  // Remainder handling: every batch size from 1 through 3 lane blocks,
  // dispatched backend vs the portable lanes, in-place and out-of-place.
  for (std::size_t n = 1; n <= 3 * simd::kLanes + 1; ++n) {
    num::Rng rng(500 + n);
    std::vector<double> d2(n), act_a(n), act_b(n);
    for (auto& v : d2) v = rng.uniform(0.0, 9.0);
    const double w = 0.4, two_w_sq = 2.0 * w * w, step_scale = 0.3 * w;
    simd::mixture_activation(d2.data(), n, w, two_w_sq, step_scale, 0.7,
                             true, act_a.data());
    simd::detail::mixture_activation_portable(d2.data(), n, w, two_w_sq,
                                              step_scale, 0.7, true,
                                              act_b.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(act_a[i]), bits(act_b[i])) << "n=" << n << " i=" << i;
    }
    // In-place: act aliases d2 (the kernels.cpp call shape).
    auto alias = d2;
    simd::mixture_activation(alias.data(), n, w, two_w_sq, step_scale, 0.7,
                             true, alias.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(alias[i]), bits(act_a[i])) << "aliased n=" << n;
    }

    std::vector<double> s_a(n), s_b(n);
    for (std::size_t i = 0; i < n; ++i) s_a[i] = s_b[i] = rng.uniform(-4.0, 4.0);
    simd::score_sigmoid(s_a.data(), n);
    simd::detail::score_sigmoid_portable(s_b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(s_a[i]), bits(s_b[i])) << "score n=" << n;
    }

    std::vector<double> zl(n), zs(n), t_a(n), t_b(n);
    for (std::size_t i = 0; i < n; ++i) {
      zl[i] = rng.uniform(-5.0, 5.0);
      zs[i] = rng.uniform(-5.0, 5.0);
    }
    simd::trend_sigmoid(zl.data(), zs.data(), t_a.data(), n);
    simd::detail::trend_sigmoid_portable(zl.data(), zs.data(), t_b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(t_a[i]), bits(t_b[i])) << "trend n=" << n;
    }
  }
}

TEST(SimdOps, PaddedRemainderLanesNeverLeakIntoValidOutputs) {
  // Composition invariance: processing [0, n) in one call must equal
  // processing any prefix/suffix split — lanes are independent and the
  // tail padding never contributes to a valid slot.
  proptest::run_cases(
      "remainder-composition", 105, 25, [](num::Rng& rng, std::size_t) {
        const auto n = static_cast<std::size_t>(rng.uniform_int(2, 37));
        const auto cut = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
        const auto x = proptest::vector_of(
            n, proptest::rough_double(700.0))(rng);
        std::vector<double> whole(n), split(n);
        simd::vexp(x.data(), whole.data(), n);
        simd::vexp(x.data(), split.data(), cut);
        simd::vexp(x.data() + cut, split.data() + cut, n - cut);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(whole[i]), bits(split[i]))
              << "n=" << n << " cut=" << cut << " i=" << i;
        }
      });
}

TEST(SimdOps, SigmoidLaneMatchesNumSigmoidWithin1Ulp) {
  proptest::run_cases(
      "sigmoid-ulp", 106, 20, [](num::Rng& rng, std::size_t) {
        const auto z = proptest::rough_double(50.0)(rng);
        const double lane = simd::detail::sigmoid_lane(z);
        const double e = std::exp(z >= 0.0 ? -z : z);
        const double ref = z >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
        ASSERT_LE(ulp_diff(lane, ref), 2u) << "z=" << z;
      });
}

// === ring 2: the Eq. 1 kernel sweep =========================================

/// Synthetic but well-formed mixture model: everything the sweeps consume,
/// without paying for training. Width-derived constants are built with
/// the exact reference expressions, like rebuild_score_cache().
pred::MixtureModel synthetic_model(num::Rng& rng, std::size_t num_kernels,
                                   std::size_t dim) {
  pred::MixtureModel m;
  m.name = "UBF";
  m.mixture_kernels = true;
  m.num_raw_vars = dim;  // all level features: contexts need 1 sample only
  for (std::size_t i = 0; i < dim; ++i) {
    m.selected.push_back(i);
    const double lo = rng.uniform(-1.0, 0.0);
    m.lo.push_back(lo);
    m.range.push_back(rng.uniform(0.5, 2.0));
  }
  for (std::size_t i = 0; i < num_kernels; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      m.centers.push_back(rng.uniform(-0.2, 1.2));
    }
    const double w = std::max(rng.uniform(0.05, 1.5), 1e-6);
    m.w.push_back(w);
    m.two_w_sq.push_back(2.0 * w * w);
    m.step_scale.push_back(0.3 * w);
    m.mixture.push_back(rng.uniform(0.0, 1.0));
    m.weights.push_back(rng.uniform(-1.5, 1.5));
  }
  m.weights.push_back(rng.uniform(-0.5, 0.5));  // bias
  return m;
}

/// One-sample contexts over `model.dim()` raw variables.
struct Corpus {
  std::vector<mon::SymptomSample> samples;
  std::vector<pred::SymptomContext> contexts;
};

Corpus synthetic_corpus(num::Rng& rng, std::size_t batch, std::size_t dim) {
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

TEST(SimdSweep, MatchesScalarSweepWithinTheUlpEnvelope) {
  proptest::run_cases(
      "sweep-ulp", 201, 25, [](num::Rng& rng, std::size_t) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(1, 8));
        const auto dim = static_cast<std::size_t>(rng.uniform_int(1, 6));
        const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 33));
        const auto model = synthetic_model(rng, k, dim);
        const auto corpus = synthetic_corpus(rng, batch, dim);
        const auto view = model.view();

        pred::BatchScratch scalar_scratch, simd_scratch;
        simd_scratch.kernel = pred::BatchKernel::kSimd;
        std::vector<double> scalar_out(batch), simd_out(batch);
        pred::score_batch_soa(view, corpus.contexts, scalar_out,
                              scalar_scratch);
        pred::score_batch_soa(view, corpus.contexts, simd_out, simd_scratch);
        for (std::size_t i = 0; i < batch; ++i) {
          expect_score_close(simd_out[i], scalar_out[i], "sweep");
          // Threshold decisions must agree at the operating points the
          // fleet uses — this is what keeps kSimd exports byte-identical.
          for (double thr : {0.3, 0.5, 0.6, 0.7}) {
            ASSERT_EQ(simd_out[i] >= thr, scalar_out[i] >= thr)
                << "threshold flip at " << thr << ": simd=" << simd_out[i]
                << " scalar=" << scalar_out[i];
          }
        }
      });
}

TEST(SimdSweep, BatchCompositionNeverChangesTheBits) {
  // Scoring a corpus whole vs in two sub-batches must agree bit for bit —
  // the SoA gather re-packs columns per batch, and the sweep's lanes are
  // independent, so batch geometry is unobservable.
  proptest::run_cases(
      "sweep-composition", 202, 20, [](num::Rng& rng, std::size_t) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(1, 6));
        const auto dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
        const auto batch = static_cast<std::size_t>(rng.uniform_int(2, 21));
        const auto cut = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(batch) - 1));
        const auto model = synthetic_model(rng, k, dim);
        const auto corpus = synthetic_corpus(rng, batch, dim);
        const auto view = model.view();
        std::span<const pred::SymptomContext> all = corpus.contexts;

        pred::BatchScratch scratch;
        scratch.kernel = pred::BatchKernel::kSimd;
        std::vector<double> whole(batch), split(batch);
        pred::score_batch_soa(view, all, whole, scratch);
        pred::score_batch_soa(view, all.subspan(0, cut),
                              std::span<double>(split).subspan(0, cut),
                              scratch);
        pred::score_batch_soa(view, all.subspan(cut),
                              std::span<double>(split).subspan(cut), scratch);
        for (std::size_t i = 0; i < batch; ++i) {
          ASSERT_EQ(bits(whole[i]), bits(split[i]))
              << "batch=" << batch << " cut=" << cut << " i=" << i;
        }
      });
}

TEST(SimdSweep, ScalarSweepIsBitIdenticalToScoreOne) {
  proptest::run_cases(
      "scalar-vs-score-one", 203, 15, [](num::Rng& rng, std::size_t) {
        const auto model = synthetic_model(rng, 5, 4);
        const auto corpus = synthetic_corpus(rng, 9, 4);
        const auto view = model.view();
        pred::BatchScratch scratch;
        std::vector<double> out(corpus.contexts.size());
        pred::score_batch_soa(view, corpus.contexts, out, scratch);
        for (std::size_t i = 0; i < corpus.contexts.size(); ++i) {
          ASSERT_EQ(bits(out[i]),
                    bits(pred::score_one(view, corpus.contexts[i])))
              << "i=" << i;
        }
      });
}

// === ring 3: full-fleet replays =============================================

constexpr double kDuration = 0.3 * 86400.0;

pred::WindowGeometry geometry() { return {600.0, 300.0, 300.0}; }

/// Ensemble trained once per process — UBF with greedy-forward selection
/// kept cheap (this suite's focus is the serving path, not the wrapper
/// search), plus the trend + eventset arena exercisers.
struct Ensemble {
  std::shared_ptr<const pred::SymptomPredictor> ubf;
  std::shared_ptr<const pred::SymptomPredictor> trend;
  std::shared_ptr<const pred::EventPredictor> eventset;
};

const Ensemble& ensemble() {
  static const Ensemble shared = [] {
    telecom::SimConfig cfg;
    cfg.seed = 5;
    cfg.duration = 4.0 * 86400.0;
    telecom::ScpSimulator sim(cfg);
    sim.run();
    const auto trace = sim.take_trace();
    const auto g = geometry();

    pred::UbfConfig ubf_cfg;
    ubf_cfg.windows = g;
    ubf_cfg.num_kernels = 4;
    ubf_cfg.selection = pred::VariableSelection::kForward;
    ubf_cfg.shape_evaluations = 80;
    ubf_cfg.max_train_windows = 900;
    auto ubf = std::make_shared<pred::UbfPredictor>(ubf_cfg);
    ubf->train(trace);

    auto trend = std::make_shared<pred::TrendPredictor>(g);
    trend->train(trace);

    auto eventset = std::make_shared<pred::EventsetPredictor>();
    eventset->train(trace.failure_sequences(g.data_window, g.lead_time),
                    trace.nonfailure_sequences(g.data_window, g.lead_time,
                                               g.prediction_window, 300.0));

    Ensemble out;
    out.ubf = std::move(ubf);
    out.trend = std::move(trend);
    out.eventset = std::move(eventset);
    return out;
  }();
  return shared;
}

struct Artifacts {
  std::string prometheus;
  std::string trace_json;
  std::string json_line;
  std::uint64_t dropped = 0;
  std::size_t warnings = 0;
};

struct RunSpec {
  std::size_t nodes = 6;
  std::size_t threads = 1;
  pred::BatchKernel kernel = pred::BatchKernel::kScalar;
  runtime::FleetScheduler scheduler = runtime::FleetScheduler::kLockstep;
  std::size_t num_shards = 1;
  std::size_t epoch_ticks = 1;
  bool hostile = false;
};

inj::FaultPlan hostile_plan() {
  inj::FaultPlan plan;
  plan.seed = 77;
  plan.nodes[1].crash_at = 10000.0;
  plan.default_node.drop_sample_p = 0.03;
  plan.default_node.corrupt_sample_p = 0.02;
  plan.predictors[0].nan_p = 0.05;
  plan.predictors[0].throw_p = 0.02;
  plan.actions[0].fail_p = 0.3;
  return plan;
}

Artifacts run_fleet(const RunSpec& spec) {
  obs::ObservabilityConfig ocfg;
  ocfg.shards = spec.threads;
  ocfg.trace_capacity = 1 << 16;
  obs::Observability hub(ocfg);

  telecom::SimConfig sim;
  sim.seed = 21;
  sim.duration = kDuration;
  sim.leak_mtbf = 21600.0;

  runtime::FleetConfig cfg;
  cfg.mea.windows = geometry();
  cfg.mea.warning_threshold = 0.6;
  cfg.mea.action_cooldown = 600.0;
  cfg.num_threads = spec.threads;
  cfg.kernel = spec.kernel;
  cfg.scheduler = spec.scheduler;
  cfg.num_shards = spec.num_shards;
  cfg.epoch_ticks = spec.epoch_ticks;
  cfg.obs = &hub;

  const auto& e = ensemble();
  auto nodes = runtime::make_scp_fleet(sim, spec.nodes);
  inj::FaultInjector injector(hostile_plan());
  injector.set_observability(&hub);

  auto make_cleanup = [] {
    return std::make_unique<act::StateCleanupAction>(0.70);
  };

  runtime::FleetController fleet(
      spec.hostile ? injector.wrap_fleet(std::move(nodes)) : std::move(nodes),
      cfg);
  if (spec.hostile) {
    fleet.add_symptom_predictor(injector.wrap_symptom_predictor(0, e.ubf));
    fleet.add_symptom_predictor(injector.wrap_symptom_predictor(1, e.trend));
    fleet.add_event_predictor(injector.wrap_event_predictor(0, e.eventset));
    fleet.add_action(injector.wrap_action_factory(0, make_cleanup));
  } else {
    fleet.add_symptom_predictor(e.ubf);
    fleet.add_symptom_predictor(e.trend);
    fleet.add_event_predictor(e.eventset);
    fleet.add_action(make_cleanup);
  }
  fleet.run();

  Artifacts out;
  out.prometheus = obs::prometheus_text(hub.metrics(), /*include_wall=*/false);
  out.trace_json = obs::chrome_trace_json(hub.trace(), /*include_wall=*/false);
  out.json_line = obs::metrics_json_line(hub.metrics(), /*include_wall=*/false);
  out.dropped = hub.trace().dropped();
  out.warnings = fleet.telemetry().warnings_raised;
  return out;
}

void expect_identical(const Artifacts& a, const Artifacts& b) {
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.json_line, b.json_line);
}

/// kSimd vs kScalar across thread counts: every sim-time export byte
/// for byte. ULP-level score differences are allowed by the policy but
/// must never surface in a threshold decision on this corpus.
void run_thread_matrix(bool hostile) {
  RunSpec base;
  base.hostile = hostile;
  const auto canonical = run_fleet(base);
  ASSERT_EQ(canonical.dropped, 0u);
  EXPECT_GT(canonical.warnings, 0u) << "scenario too tame to pin decisions";

  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    SCOPED_TRACE(std::string(hostile ? "hostile" : "clean") +
                 " simd threads=" + std::to_string(threads));
    RunSpec spec = base;
    spec.threads = threads;
    spec.kernel = pred::BatchKernel::kSimd;
    const auto run = run_fleet(spec);
    ASSERT_EQ(run.dropped, 0u);
    expect_identical(canonical, run);
  }
}

TEST(SimdFleet, CleanExportsByteIdenticalAcrossThreadCounts) {
  run_thread_matrix(/*hostile=*/false);
}

TEST(SimdFleet, HostileExportsByteIdenticalAcrossThreadCounts) {
  run_thread_matrix(/*hostile=*/true);
}

/// The sharded event-driven replays: per shard count, kSimd must match
/// kScalar exactly (results legitimately depend on the shard count —
/// shards batch and breaker-bank independently — so each count is its
/// own reference).
TEST(SimdFleet, ShardedExportsByteIdenticalPerShardCount) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{4},
                             std::size_t{16}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunSpec reference;
    reference.nodes = 16;
    reference.scheduler = runtime::FleetScheduler::kEventDriven;
    reference.num_shards = shards;
    reference.epoch_ticks = 4;
    const auto canonical = run_fleet(reference);
    ASSERT_EQ(canonical.dropped, 0u);

    RunSpec spec = reference;
    spec.kernel = pred::BatchKernel::kSimd;
    spec.threads = 2;
    const auto run = run_fleet(spec);
    ASSERT_EQ(run.dropped, 0u);
    expect_identical(canonical, run);
  }
}

}  // namespace
}  // namespace pfm
