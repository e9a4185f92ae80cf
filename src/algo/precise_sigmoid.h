// Algorithm Precise Sigmoid (paper §5, Theorem 3.2).
//
// Same skeleton as Algorithm Ant but with a step size of ε·γ/cχ and phases
// of 2m rounds, m = ⌈2cχ/ε + 1⌉ (rounded up to odd): each ant takes m
// feedback samples per half-phase and uses their *median*. Because the
// sigmoid error probability at deficit x decays exponentially in x, a median
// of Θ(1/ε) samples is as reliable at step ε·γ/cχ as a single sample is at
// step γ — so the whole Theorem 3.1 argument goes through at the smaller
// step, giving average regret εγ·Σd + O(1) with O(log 1/ε) memory.
//
// One interpretation note: the paper's pseudocode scales the pause
// probability by ε (ε·cs·γ/cχ) but prints the permanent-leave probability
// as γ/(cχ·cd) without the ε. An un-scaled leave step can overshoot the
// ε-narrow stable zone for small ε, so we default to the ε-scaled value
// ε·γ/(cχ·cd) — consistent with "the rest of the algorithm is exactly the
// same as Algorithm Ant" at step size εγ/cχ — and keep the verbatim variant
// behind a flag (see DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

#include "algo/algorithm.h"
#include "rng/poisson_binomial.h"

namespace antalloc {

struct PreciseSigmoidParams {
  double gamma = 0.02;   // learning rate γ (≥ γ*)
  double epsilon = 0.5;  // precision parameter ε in (0, 1)
  double cchi = 10.0;    // cχ
  double cs = 2.4;
  double cd = 19.0;
  bool verbatim_leave_probability = false;  // use γ/(cχ·cd) instead of ε·γ/(cχ·cd)

  // Half-phase sample count m = ⌈2cχ/ε + 1⌉, forced odd so the median is
  // unambiguous.
  std::int32_t window() const;
  Round phase_length() const { return 2 * static_cast<Round>(window()); }

  double pause_probability() const { return epsilon * cs * gamma / cchi; }
  double leave_probability() const {
    const double base = gamma / (cchi * cd);
    return verbatim_leave_probability ? base : epsilon * base;
  }
};

// Strict-majority count threshold for a window of `m` samples: the median is
// lack iff at least majority_threshold(m) of them are lack.
std::int32_t majority_threshold(std::int32_t m);

// Probability that the median of independent samples with per-round lack
// probabilities `probs` is lack (Poisson-binomial strict-majority tail).
double median_lack_probability(std::span<const double> probs);

class PreciseSigmoidAgent final : public AgentAlgorithm {
 public:
  explicit PreciseSigmoidAgent(PreciseSigmoidParams params);

  std::string_view name() const override { return "precise-sigmoid"; }
  const PreciseSigmoidParams& params() const { return params_; }

  void reset(Count n_ants, std::int32_t k, std::span<const TaskId> initial,
             std::uint64_t seed) override;
  void step(Round t, const FeedbackAccess& fb, std::span<const TaskId> prev,
            std::span<TaskId> next) override;
  // Drops commitments to dying tasks; a flushed worker goes dormant (no
  // sampling, no joining) until the next phase start, and every ant's stale
  // lack counts for the dead task are zeroed so they cannot out-vote a
  // later rebirth.
  void on_lifecycle(Round t, const ActiveSet& active) override;

 private:
  std::uint16_t& lack_count(std::int64_t ant, TaskId j) {
    return counts_[static_cast<std::size_t>(ant) *
                       static_cast<std::size_t>(k_) +
                   static_cast<std::size_t>(j)];
  }
  void accumulate(const FeedbackAccess& fb, Count n_ants);

  PreciseSigmoidParams params_;
  std::uint64_t seed_ = 0;
  std::int32_t k_ = 0;
  std::int32_t m_ = 0;
  std::vector<TaskId> current_task_;
  std::vector<std::uint16_t> counts_;     // active window lack counts, n*k
  std::vector<std::uint64_t> med1_lack_;  // first-window median bitmask
  std::vector<std::uint8_t> dormant_;     // flushed mid-phase; idle until r==1
};

class PreciseSigmoidAggregate final : public AggregateKernel {
 public:
  explicit PreciseSigmoidAggregate(PreciseSigmoidParams params);

  std::string_view name() const override { return "precise-sigmoid"; }
  const PreciseSigmoidParams& params() const { return params_; }

  void reset(const Allocation& initial, std::uint64_t seed) override;
  RoundOutput step(Round t, const DemandVector& demands,
                   const FeedbackModel& fm) override;
  Count apply_lifecycle(Round t, const ActiveSet& active) override;

 private:
  PreciseSigmoidParams params_;
  std::int32_t m_ = 0;
  rng::Xoshiro256 gen_;     // count stream: every load-shaping draw
  rng::Xoshiro256 ledger_;  // paused share of the leavers (switches only)
  Count idle_ = 0;
  // Ants flushed off dying tasks; they rejoin the idle pool at the next
  // phase start (the agent automaton's flushed workers are dormant until
  // then).
  Count flushed_ = 0;
  std::vector<Count> assigned_;
  std::vector<Count> paused_;
  std::vector<Count> visible_;
  std::vector<Count> prev_visible_;
  std::vector<std::vector<double>> window1_;  // per task: per-round lack prob
  std::vector<std::vector<double>> window2_;
  std::vector<double> med1_lack_;
  std::vector<double> scratch_;
  std::vector<double> join_marginals_;
  std::vector<Count> joins_;
  rng::ChoiceMarginalsWorkspace choice_ws_;
  std::vector<std::uint8_t> task_active_;     // lifecycle flags (1 = active)
};

}  // namespace antalloc
