#include "noise/correlated.h"

#include <stdexcept>

namespace antalloc {

CorrelatedFeedback::CorrelatedFeedback(
    std::shared_ptr<const FeedbackModel> base, double rho)
    : base_(std::move(base)), rho_(rho) {
  if (base_ == nullptr) {
    throw std::invalid_argument("CorrelatedFeedback: null base model");
  }
  if (!(rho >= 0.0 && rho <= 1.0)) {
    throw std::invalid_argument("CorrelatedFeedback: rho in [0, 1]");
  }
  name_ = "correlated(" + std::string(base_->name()) + ")";
}

double CorrelatedFeedback::lack_probability(Round t, TaskId j, double deficit,
                                            double demand) const {
  // Marginals are untouched by the correlation structure.
  return base_->lack_probability(t, j, deficit, demand);
}

void CorrelatedFeedback::begin_round(Round t,
                                     std::span<const double> deficits,
                                     std::span<const Count> demands,
                                     rng::Xoshiro256& gen) {
  const std::size_t k = deficits.size();
  shared_.assign(k, false);
  shared_value_.assign(k, Feedback::kLack);
  for (std::size_t j = 0; j < k; ++j) {
    if (!gen.bernoulli(rho_)) continue;
    shared_[j] = true;
    const double p = base_->lack_probability(
        t, static_cast<TaskId>(j), deficits[j],
        static_cast<double>(demands[j]));
    shared_value_[j] = gen.bernoulli(p) ? Feedback::kLack : Feedback::kOverload;
  }
}

double CorrelatedFeedback::conditional_lack_probability(Round t, TaskId j,
                                                        double deficit,
                                                        double demand) const {
  // A shared cell is decided: uniform() < 1.0 always holds and uniform() <
  // 0.0 never does, so every ant reads the shared value whatever its draw.
  const auto ju = static_cast<std::size_t>(j);
  if (ju < shared_.size() && shared_[ju]) {
    return shared_value_[ju] == Feedback::kLack ? 1.0 : 0.0;
  }
  return base_->lack_probability(t, j, deficit, demand);
}

}  // namespace antalloc
