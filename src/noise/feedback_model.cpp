#include "noise/feedback_model.h"

namespace antalloc {

void FeedbackModel::begin_round(Round /*t*/, std::span<const double> /*deficits*/,
                                std::span<const Count> /*demands*/,
                                rng::Xoshiro256& /*gen*/) {}

double FeedbackModel::conditional_lack_probability(Round t, TaskId j,
                                                   double deficit,
                                                   double demand) const {
  return lack_probability(t, j, deficit, demand);
}

Feedback FeedbackModel::sample(Round t, TaskId j, std::int64_t /*ant*/,
                               double deficit, double demand,
                               rng::Xoshiro256& gen) const {
  const double p = conditional_lack_probability(t, j, deficit, demand);
  return gen.bernoulli(p) ? Feedback::kLack : Feedback::kOverload;
}

}  // namespace antalloc
