// Correlated-noise wrapper (Remark 3.4): the paper's guarantees survive
// arbitrarily correlated feedback as long as each ant's *marginal* error
// probability outside the grey zone stays ~ n^{-c}.
//
// Implementation: with probability `rho`, all ants share one draw for a
// given (round, task); with probability 1-rho the draws are independent.
// Either way the per-ant marginal equals the base model's probability, so
// `lack_probability` is unchanged — only the joint distribution differs.
// begin_round makes the shared draws; `conditional_lack_probability` then
// returns exactly 1.0 (shared lack) or 0.0 (shared overload) for a shared
// task and the base marginal for any other, so given the round's state the
// per-ant draws are independent again and FeedbackAccess's per-round table
// applies unchanged. Only the agent engine can run this model
// (iid_across_ants() == false).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "noise/feedback_model.h"

namespace antalloc {

class CorrelatedFeedback final : public FeedbackModel {
 public:
  // rho in [0, 1]: probability that a (round, task) cell is fully shared.
  CorrelatedFeedback(std::shared_ptr<const FeedbackModel> base, double rho);

  std::string_view name() const override { return name_; }
  bool iid_across_ants() const override { return false; }

  double lack_probability(Round t, TaskId j, double deficit,
                          double demand) const override;

  void begin_round(Round t, std::span<const double> deficits,
                   std::span<const Count> demands,
                   rng::Xoshiro256& gen) override;

  double conditional_lack_probability(Round t, TaskId j, double deficit,
                                      double demand) const override;

 private:
  std::shared_ptr<const FeedbackModel> base_;
  double rho_;
  std::string name_;
  // Per-task state for the current round: shared (and the shared value) or
  // independent. Rebuilt by begin_round.
  std::vector<bool> shared_;
  std::vector<Feedback> shared_value_;
};

}  // namespace antalloc
