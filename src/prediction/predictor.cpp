#include "prediction/predictor.hpp"

#include <cmath>
#include <stdexcept>

namespace pfm::pred {

void SymptomPredictor::score_batch(std::span<const SymptomContext> contexts,
                                   std::span<double> out,
                                   BatchScratch& /*scratch*/) const {
  if (contexts.size() != out.size()) {
    throw std::invalid_argument("score_batch: contexts/out size mismatch");
  }
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    out[i] = score(contexts[i]);
  }
}

void SymptomPredictor::score_batch(std::span<const SymptomContext> contexts,
                                   std::span<double> out) const {
  BatchScratch scratch;
  score_batch(contexts, out, scratch);
}

void EventPredictor::score_batch(std::span<const mon::ErrorSequence> sequences,
                                 std::span<double> out,
                                 BatchScratch& /*scratch*/) const {
  if (sequences.size() != out.size()) {
    throw std::invalid_argument("score_batch: sequences/out size mismatch");
  }
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    out[i] = score(sequences[i]);
  }
}

void EventPredictor::score_batch(std::span<const mon::ErrorSequence> sequences,
                                 std::span<double> out) const {
  BatchScratch scratch;
  score_batch(sequences, out, scratch);
}

void WindowGeometry::validate() const {
  // Each condition is stated positively so that a NaN field fails it.
  if (!(std::isfinite(data_window) && data_window > 0.0)) {
    throw std::invalid_argument(
        "WindowGeometry: data_window must be finite and > 0");
  }
  if (!(std::isfinite(lead_time) && lead_time >= 0.0)) {
    throw std::invalid_argument(
        "WindowGeometry: lead_time must be finite and >= 0");
  }
  if (!(std::isfinite(prediction_window) && prediction_window > 0.0)) {
    throw std::invalid_argument(
        "WindowGeometry: prediction_window must be finite and > 0");
  }
}

}  // namespace pfm::pred
