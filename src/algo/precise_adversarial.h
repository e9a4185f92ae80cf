// Algorithm Precise Adversarial (paper Appendix C, Theorem 3.6).
//
// Phases of r1 + r2 rounds with r1 = ⌈32/ε⌉, r2 = 4·r1, in two sub-phases:
//
//  Sub-phase 1 (rounds r = 1 .. r1): working ants thin out *cumulatively* —
//  each still-working ant pauses with probability εγ/32 per round — so the
//  load sweeps downward through the grey zone in steps of ≈ εγ·W/32. Each
//  ant records rmin, the first round whose own-task sample flipped to lack:
//  at that moment the deficit was within ≈ εγ·d of zero.
//
//  Sub-phase 2 (rounds r1+1 .. r1+r2−1): every ant replays its status from
//  round rmin, freezing the load at the near-zero-deficit level for 4× as
//  long as the sweep took. End of phase (r = 0): ants whose samples were
//  overload all phase long leave w.p. εγ/32; idle ants whose samples were
//  lack all phase long join a uniformly random such task.
//
// Interpretation note: the pseudocode line "at ← idle w.p. εγ/32 /
// currentTask otherwise" would, read literally, also resume previously
// paused ants, which keeps the load *constant* instead of sweeping and makes
// rmin meaningless. We implement the sweep the proof sketch describes
// (pauses accumulate within sub-phase 1); see DESIGN.md §5.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/algorithm.h"

namespace antalloc {

struct PreciseAdversarialParams {
  double gamma = 0.02;   // learning rate γ ∈ [γ*, 1/16]
  double epsilon = 0.5;  // precision parameter ε ∈ (0, 1)

  std::int32_t r1() const;
  std::int32_t r2() const { return 4 * r1(); }
  Round phase_length() const { return r1() + r2(); }
  double pause_probability() const { return epsilon * gamma / 32.0; }
  double leave_probability() const { return epsilon * gamma / 32.0; }
};

class PreciseAdversarialAgent final : public AgentAlgorithm {
 public:
  explicit PreciseAdversarialAgent(PreciseAdversarialParams params);

  std::string_view name() const override { return "precise-adversarial"; }
  const PreciseAdversarialParams& params() const { return params_; }

  void reset(Count n_ants, std::int32_t k, std::span<const TaskId> initial,
             std::uint64_t seed) override;
  void step(Round t, const FeedbackAccess& fb, std::span<const TaskId> prev,
            std::span<TaskId> next) override;
  // Drops commitments to dying tasks; a flushed worker's all-lack mask is
  // cleared, which keeps it idle until the phase-start reset.
  void on_lifecycle(Round t, const ActiveSet& active) override;

 private:
  PreciseAdversarialParams params_;
  std::uint64_t seed_ = 0;
  std::int32_t k_ = 0;
  std::vector<TaskId> current_task_;
  std::vector<std::int32_t> pause_round_;  // r at which the ant paused; INT32_MAX if working
  std::vector<std::int32_t> first_lack_;   // rmin candidate (r1 if no lack seen)
  std::vector<std::uint64_t> all_lack_;    // running AND of lack, per task bit
  std::vector<std::uint8_t> all_over_;     // running AND of own-task overload
};

// Count-level kernel; exact for deterministic feedback (all ants of a task
// see the same signals, so rmin is common per task).
class PreciseAdversarialAggregate final : public AggregateKernel {
 public:
  explicit PreciseAdversarialAggregate(PreciseAdversarialParams params);

  std::string_view name() const override { return "precise-adversarial"; }
  const PreciseAdversarialParams& params() const { return params_; }

  bool supports(const FeedbackModel& fm) const override {
    return fm.deterministic();
  }

  void reset(const Allocation& initial, std::uint64_t seed) override;
  RoundOutput step(Round t, const DemandVector& demands,
                   const FeedbackModel& fm) override;
  Count apply_lifecycle(Round t, const ActiveSet& active) override;

 private:
  PreciseAdversarialParams params_;
  rng::Xoshiro256 gen_;     // count stream: every load-shaping draw
  rng::Xoshiro256 ledger_;  // paused share of the leavers (switches only)
  Count idle_ = 0;
  // Ants flushed off dying tasks; they rejoin the idle pool at the next
  // phase start (flushed agent automata have empty all-lack masks until
  // then).
  Count flushed_ = 0;
  std::vector<std::uint8_t> task_active_;  // lifecycle flags (1 = active)
  std::vector<Count> assigned_;
  std::vector<Count> active_;          // still-working count in sub-phase 1
  std::vector<Count> visible_;
  std::vector<Count> prev_visible_;
  std::vector<std::vector<Count>> active_history_;  // active count after round r
  std::vector<std::int32_t> first_lack_;            // rmin per task
  std::vector<std::uint8_t> all_lack_;
  std::vector<std::uint8_t> all_over_;
};

}  // namespace antalloc
