#include "algo/ant_batched.h"

#include <stdexcept>

#include "rng/splitmix.h"

namespace antalloc {

void AntBatchedRunner::reset(Count n_ants, std::int32_t k,
                             std::span<const Count> initial,
                             std::uint64_t seed) {
  if (k > kMaxAgentTasks) {
    throw std::invalid_argument("AntBatchedRunner: k exceeds kMaxAgentTasks");
  }
  if (n_ants < 0) {
    throw std::invalid_argument("AntBatchedRunner: negative colony size");
  }
  if (k < 0 || initial.size() != static_cast<std::size_t>(k)) {
    throw std::invalid_argument(
        "AntBatchedRunner: initial loads must have size k");
  }
  // Checked before any arithmetic on them: the per-task vectors are sized
  // from k and the idle pool is n minus the initial loads.
  Count assigned = 0;
  for (const Count load : initial) {
    if (load < 0 || load > n_ants - assigned) {
      throw std::invalid_argument(
          "AntBatchedRunner: initial loads must be non-negative and sum to "
          "at most n");
    }
    assigned += load;
  }
  // Count stream = AntAggregate's seed derivation (bit-compatible loads for
  // matched seeds); selection stream = its own tag.
  sampler_.emplace(rng::hash_combine(seed, 0xA99Au),
                   rng::hash_combine(seed, 0xBA7Cull));
  const auto ku = static_cast<std::size_t>(k);
  committed_.assign(initial.begin(), initial.end());
  working_.assign(initial.begin(), initial.end());
  idle_ = n_ants - assigned;
  flushed_ = 0;
  p1_lack_.assign(ku, 0.0);
  join_probs_.assign(ku, 0.0);
  join_marginals_.assign(ku, 0.0);
  joins_.assign(ku, 0);
  task_active_.assign(ku, 1);
}

Count AntBatchedRunner::apply_lifecycle(Round /*t*/, const ActiveSet& active,
                                        std::span<Count> loads) {
  Count switched = 0;
  for (std::size_t j = 0; j < committed_.size(); ++j) {
    const bool now_active = active[static_cast<TaskId>(j)];
    if (!now_active && task_active_[j] != 0) {
      // Retire: every committed ant (paused ones are already idle-visible
      // and do not switch again) moves to the flushed pool, which rejoins
      // the idle pool at the next phase start.
      switched += working_[j];
      flushed_ += committed_[j];
      committed_[j] = 0;
      working_[j] = 0;
      p1_lack_[j] = 0.0;
      loads[j] = 0;
    }
    task_active_[j] = now_active ? 1 : 0;
  }
  return switched;
}

std::int64_t AntBatchedRunner::step(Round t, std::span<const double> p_lack,
                                    std::uint64_t active_mask,
                                    std::span<Count> loads) {
  return (t % 2 == 1) ? step_odd(p_lack, active_mask, loads)
                      : step_even(p_lack, active_mask, loads);
}

std::int64_t AntBatchedRunner::step_odd(std::span<const double> p_lack,
                                        std::uint64_t active_mask,
                                        std::span<Count> loads) {
  // Phase start: ants flushed off dying tasks re-enter the idle pool and
  // become joinable at this phase's decision round.
  idle_ += flushed_;
  flushed_ = 0;

  // First round of the phase: record the first-sample distribution, then
  // pause a Binomial(n_j, cs*gamma) share of each task's workers. The
  // count-stream draw order (skip dormant, one binomial per active task)
  // matches AntAggregate::step exactly; the selection stream owes one pick
  // per paused ant, paid lazily by the next leave pick.
  std::int64_t switches = 0;
  for (std::size_t j = 0; j < committed_.size(); ++j) {
    if (((active_mask >> j) & 1) == 0) {
      p1_lack_[j] = 0.0;  // dormant: unconditional overload
      continue;
    }
    p1_lack_[j] = p_lack[j];
    const std::int64_t pauses =
        sampler_->binomial(committed_[j], params_.pause_probability());
    sampler_->skip(pauses);
    working_[j] = committed_[j] - pauses;
    switches += pauses;
    loads[j] = working_[j];
  }
  return switches;
}

std::int64_t AntBatchedRunner::step_even(std::span<const double> p_lack,
                                         std::uint64_t active_mask,
                                         std::span<Count> loads) {
  // Second round of the phase: permanent leaves and idle-pool joins. Joins
  // come from the ants idle at the START of the phase — leavers cannot
  // rejoin in their own decision round.
  const Count joinable = idle_;
  std::int64_t switches = 0;

  for (std::size_t j = 0; j < committed_.size(); ++j) {
    if (((active_mask >> j) & 1) == 0) {
      join_probs_[j] = 0.0;  // dormant: no joins, nothing assigned to leave
      continue;
    }
    const double p2 = p_lack[j];
    // Per committed ant: P(leave) = P(s1 = s2 = overload) * gamma/cd,
    // independent of the pause coin — so leavers are a uniform subset of
    // all committed ants, working and paused alike.
    const double p_leave =
        (1.0 - p1_lack_[j]) * (1.0 - p2) * params_.leave_probability();
    const std::int64_t leaves = sampler_->binomial(committed_[j], p_leave);
    // Sequential uniform removal: each leaver is a working ant with
    // probability working_rem / size — the hypergeometric split.
    std::int64_t size = committed_[j];
    std::int64_t working_rem = working_[j];
    for (std::int64_t s = 0; s < leaves; ++s) {
      if (sampler_->pick(static_cast<std::uint64_t>(size)) <
          static_cast<std::uint64_t>(working_rem)) {
        --working_rem;
      }
      --size;
    }
    // Exact switches: working leavers go visible -> idle; surviving paused
    // ants resume (idle-visible -> working); a paused leaver stays
    // idle-visible and does not switch.
    switches += (working_[j] - working_rem) + (size - working_rem);
    committed_[j] = size;
    idle_ += leaves;
    // Per idle ant: P(both samples lack) for the join rule.
    join_probs_[j] = p1_lack_[j] * p2;
  }

  // Join counts use the same count-stream calls as the aggregate kernel:
  // exact marginals, then one conditional-binomial chain. The selection
  // stream owes one pick per joiner, paid lazily by the next leave pick.
  sampler_->join_marginals(join_probs_, join_marginals_);
  sampler_->multinomial_rest(joinable, join_marginals_, joins_);

  std::int64_t joined = 0;
  for (std::size_t j = 0; j < committed_.size(); ++j) {
    if (((active_mask >> j) & 1) == 0) continue;
    committed_[j] += joins_[j];
    joined += joins_[j];
    working_[j] = committed_[j];
    loads[j] = working_[j];
  }
  sampler_->skip(joined);
  idle_ -= joined;
  return switches + joined;
}

}  // namespace antalloc
