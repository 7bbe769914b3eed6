#pragma once

#include <cstdint>
#include <vector>

#include "prediction/kernels.hpp"
#include "prediction/predictor.hpp"

namespace pfm::pred {

/// Variable-selection strategy for UBF (Sect. 3.2 / [35]).
enum class VariableSelection : std::uint8_t {
  kAll = 0,       ///< no selection: use every monitored variable
  kForward = 1,   ///< greedy forward selection
  kBackward = 2,  ///< greedy backward elimination
  kPwa = 3,       ///< Probabilistic Wrapper Approach (the paper's method)
  kExpert = 4     ///< fixed, human-chosen variable list
};

/// Configuration of the UBF failure predictor.
struct UbfConfig {
  WindowGeometry windows;

  /// Number of basis functions.
  std::size_t num_kernels = 8;

  /// true: universal basis functions (Gaussian/sigmoid mixture per Eq. 1,
  /// with trainable mixture weights); false: plain radial basis functions
  /// (the ablation baseline UBF was introduced to improve upon).
  bool mixture_kernels = true;

  VariableSelection selection = VariableSelection::kPwa;
  /// Variable indices used when selection == kExpert.
  std::vector<std::size_t> expert_variables;

  /// When true, the feature space is augmented with the trailing slope of
  /// every monitored variable (computed over the data window). Slow
  /// resource exhaustion such as memory leaks is far better captured by
  /// level + trend than by the instantaneous level alone; [35] likewise
  /// derives aggregate variables before selection.
  bool include_trend_features = true;

  /// Subset-evaluation budget of the PWA search.
  std::size_t pwa_iterations = 90;
  /// Nelder-Mead budget for the kernel-shape optimization.
  std::size_t shape_evaluations = 400;

  /// Cap on training windows (subsampled, class-stratified) to bound
  /// training cost on long traces.
  std::size_t max_train_windows = 3000;

  /// Ridge damping of the least-squares weight fit.
  double ridge = 1e-6;

  std::uint64_t seed = 7;
};

/// Universal Basis Functions failure predictor (Hoffmann/Malek [37]).
///
/// Pipeline per Fig. 5: (1) select the most indicative variables with the
/// Probabilistic Wrapper Approach, (2) fit UBF kernels mapping monitoring
/// vectors onto the failure-proneness target, (3) apply during runtime.
/// One basis function is the Eq. 1 mixture
///   k_i(x) = m_i * gaussian(x; c_i, w_i) + (1 - m_i) * sigmoid(x; c_i, w_i)
/// whose mixture weight m_i and width w_i are tuned by derivative-free
/// optimization on a validation split; output weights come from a ridge
/// least-squares fit.
class UbfPredictor final : public SymptomPredictor {
 public:
  explicit UbfPredictor(UbfConfig config);

  std::string name() const override;
  void train(const mon::MonitoringDataset& data) override;
  double score(const SymptomContext& context) const override;

  using SymptomPredictor::score_batch;
  /// Arena-backed SoA scoring: gathers the selected features of the whole
  /// batch into contiguous per-feature columns inside `scratch`, then
  /// sweeps each Eq. 1 kernel over all contexts at once using cached
  /// width-derived constants. Every arithmetic step mirrors score()
  /// expression-for-expression, so the results are bit-identical to it
  /// — the conformance suite pins it.
  void score_batch(std::span<const SymptomContext> contexts,
                   std::span<double> out,
                   BatchScratch& scratch) const override;

  /// Indices into the (possibly trend-augmented) feature space of the
  /// selected variables: index j < schema.size() is the level of variable
  /// j; index j >= schema.size() is the slope of variable
  /// j - schema.size(). Empty before training.
  const std::vector<std::size_t>& selected_variables() const noexcept {
    return selected_;
  }

  /// Human-readable names of the selected features ("free_mem_min_mb",
  /// "free_mem_min_mb.slope", ...).
  std::vector<std::string> selected_feature_names(
      const mon::SymptomSchema& schema) const;

  /// Validation AUC achieved by the final model during training.
  double training_validation_auc() const noexcept { return validation_auc_; }

  /// Owning snapshot of the trained scoring model — everything the Eq. 1
  /// sweep needs, with the width-derived constants copied verbatim from
  /// the score cache. This is what the freeze path serializes; a
  /// FrozenPredictor loaded from the resulting artifact scores
  /// bit-identically to this predictor because both run the same
  /// kernels.hpp engine over the same numbers.
  /// Throws std::logic_error before train().
  MixtureModel export_model() const;

 private:
  struct Kernel {
    std::vector<double> center;
    double width = 1.0;
    double mixture = 1.0;  ///< m_i in Eq. 1; 1 = pure Gaussian
  };

  double evaluate_kernel(const Kernel& k, std::span<const double> x) const;
  /// Eq. 1 at distance d from the kernel center.
  double kernel_at(const Kernel& k, double d) const;
  std::vector<double> features_of(std::span<const double> raw) const;
  double raw_score(std::span<const double> selected_features) const;
  /// Builds the augmented (level + slope) feature vector from a context.
  std::vector<double> augmented_features(const SymptomContext& ctx) const;
  /// Precomputes the width-derived kernel constants and the per-variable
  /// projection ranges used by the SoA path. Each cached value is built
  /// with the exact expression the reference path evaluates inline
  /// (clamped width, 2.0*w*w, 0.3*w, hi-lo), so substituting the cache
  /// cannot change a single bit.
  void rebuild_score_cache();
  /// Non-owning view over the score cache, handed to the shared
  /// kernels.hpp gather/sweep engine. Valid only while trained.
  MixtureModelView score_view() const noexcept;

  UbfConfig config_;
  std::size_t num_raw_vars_ = 0;
  std::vector<std::size_t> selected_;
  std::vector<double> feature_lo_, feature_hi_;  // scaling of selected vars
  std::vector<Kernel> kernels_;
  std::vector<double> weights_;  // one per kernel + bias
  double validation_auc_ = 0.0;
  bool trained_ = false;

  // SoA scoring cache (see rebuild_score_cache()).
  std::vector<double> kernel_w_;           // max(width, 1e-6)
  std::vector<double> kernel_two_w_sq_;    // 2.0 * w * w (Gaussian scale)
  std::vector<double> kernel_step_scale_;  // 0.3 * w (sigmoid scale)
  std::vector<double> kernel_mixture_;     // m_i per kernel
  std::vector<double> kernel_centers_;     // num_kernels x dim, row-major
  std::vector<double> feature_range_;      // hi - lo per selected variable
};

}  // namespace pfm::pred
