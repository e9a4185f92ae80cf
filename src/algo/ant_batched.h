// Batched (count-level) runner for Algorithm Ant (algo/ant.h).
//
// State is counts only: per task the committed ants and, of those, the
// working ones; plus the idle pool and the flushed pool. Per round the
// runner draws one Binomial count per (task, decision) from the
// BulkSampler's count stream — seeded exactly like AntAggregate's generator,
// so per-round loads are bit-identical to the aggregate kernel for a matched
// seed — and consumes the independent selection stream draw for draw as a
// per-ant-id realization would, so the exact switch ledger is a function of
// the same seeds. The picks nothing observes (pauses, joins) are skipped:
// BulkSampler::skip only adds them to a pending count, and the next leave
// pick pays the whole count as one O(log m) jump-ahead of the generator, so
// a round costs O(k + leavers) generator steps plus one jump per phase,
// independent of how many ants pause or join.
//
// Law (why this equals the per-ant automaton):
//  * odd round — each worker pauses i.i.d. w.p. cs*gamma, so the paused
//    count is Binomial(n_j, cs*gamma); WHICH workers pause is never
//    observed, so the pause selection only advances the stream.
//  * even round — each committed ant leaves i.i.d. w.p.
//    (1-p1)(1-p2)*gamma/cd independent of its pause coin, so leavers are a
//    uniform subset of ALL committed ants, working and paused alike. The
//    exact switch count needs the working/paused split of that subset (a
//    paused leaver never switches: it was already idle-visible), which is
//    hypergeometric: sequential uniform picks, each a working ant w.p.
//    working_rem / size. These leave picks are the only selection draws
//    whose values matter. Idle ants join i.i.d. with per-task marginals
//    uniform_choice_marginals(p1*p2); the Multinomial counts carry the law
//    and the join picks only advance the stream.
//  * lifecycle — the committed ants of a dying task move to the flushed
//    pool and rejoin the idle pool at the next phase start, exactly the
//    aggregate kernel's flushed-pool contract (a mid-phase flush blocks
//    joins until the phase ends).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "algo/ant.h"
#include "algo/batched.h"
#include "rng/bulk_sampler.h"

namespace antalloc {

class AntBatchedRunner final : public BatchedAgentRunner {
 public:
  explicit AntBatchedRunner(AntParams params) : params_(params) {}

  void reset(Count n_ants, std::int32_t k, std::span<const Count> initial,
             std::uint64_t seed) override;
  Count apply_lifecycle(Round t, const ActiveSet& active,
                        std::span<Count> loads) override;
  std::int64_t step(Round t, std::span<const double> p_lack,
                    std::uint64_t active_mask,
                    std::span<Count> loads) override;

 private:
  std::int64_t step_odd(std::span<const double> p_lack,
                        std::uint64_t active_mask, std::span<Count> loads);
  std::int64_t step_even(std::span<const double> p_lack,
                         std::uint64_t active_mask, std::span<Count> loads);

  AntParams params_;
  std::optional<rng::BulkSampler> sampler_;
  std::vector<Count> committed_;       // per task: working + paused
  std::vector<Count> working_;         // per task: visible workers
  Count idle_ = 0;                     // joinable ants (phase-start idle pool)
  Count flushed_ = 0;                  // evicted mid-phase; idle next phase
  std::vector<double> p1_lack_;        // first-sample lack prob per task
  std::vector<double> join_probs_;     // p1 * p2 per task (even rounds)
  std::vector<double> join_marginals_;
  std::vector<std::int64_t> joins_;
  std::vector<std::uint8_t> task_active_;  // lifecycle flags (1 = active)
};

}  // namespace antalloc
