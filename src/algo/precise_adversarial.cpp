#include "algo/precise_adversarial.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/bits.h"
#include "rng/binomial.h"
#include "rng/hypergeometric.h"
#include "rng/multinomial.h"

namespace antalloc {
namespace {

constexpr std::int32_t kNeverPaused = std::numeric_limits<std::int32_t>::max();

void validate(const PreciseAdversarialParams& p) {
  if (!(p.gamma > 0.0) || p.gamma > 1.0 / 16.0 + 1e-12) {
    throw std::invalid_argument("PreciseAdversarialParams: gamma in (0, 1/16]");
  }
  if (!(p.epsilon > 0.0) || p.epsilon >= 1.0) {
    throw std::invalid_argument("PreciseAdversarialParams: epsilon in (0, 1)");
  }
}

std::uint64_t full_mask(std::int32_t k) {
  return k >= 64 ? ~0ull : ((1ull << k) - 1);
}

}  // namespace

std::int32_t PreciseAdversarialParams::r1() const {
  return static_cast<std::int32_t>(std::ceil(32.0 / epsilon));
}

// ---------------------------------------------------------------------------
// Agent form
// ---------------------------------------------------------------------------

PreciseAdversarialAgent::PreciseAdversarialAgent(
    PreciseAdversarialParams params)
    : params_(params) {
  validate(params_);
}

void PreciseAdversarialAgent::reset(Count n_ants, std::int32_t k,
                                    std::span<const TaskId> initial,
                                    std::uint64_t seed) {
  if (k > kMaxAgentTasks) {
    throw std::invalid_argument(
        "PreciseAdversarialAgent: k exceeds kMaxAgentTasks");
  }
  seed_ = seed;
  k_ = k;
  const auto nu = static_cast<std::size_t>(n_ants);
  current_task_.assign(initial.begin(), initial.end());
  pause_round_.assign(nu, kNeverPaused);
  first_lack_.assign(nu, params_.r1());
  all_lack_.assign(nu, full_mask(k));
  all_over_.assign(nu, 1);
}

void PreciseAdversarialAgent::step(Round t, const FeedbackAccess& fb,
                                   std::span<const TaskId> prev,
                                   std::span<TaskId> next) {
  const auto n = static_cast<std::int64_t>(prev.size());
  const std::int32_t r1 = params_.r1();
  const Round phase = params_.phase_length();
  const auto r = static_cast<std::int32_t>(t % phase);

  for (std::int64_t i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);

    if (r == 1) {
      // Phase start: commit, clear per-phase memory.
      current_task_[iu] = prev[iu];
      pause_round_[iu] = kNeverPaused;
      first_lack_[iu] = r1;
      all_lack_[iu] = full_mask(k_);
      all_over_[iu] = 1;
    }
    const TaskId ct = current_task_[iu];

    // --- Sample this round's feedback and fold it into the phase memory.
    if (ct == kIdle) {
      // Idle ants track the all-lack mask over every task, all phase long.
      all_lack_[iu] &= fb.sample_lack_mask(i);
    } else {
      const Feedback f = fb.sample(i, ct);
      if (f == Feedback::kLack) {
        all_over_[iu] = 0;
        if (r < r1 && first_lack_[iu] == r1) first_lack_[iu] = r;
      } else {
        all_lack_[iu] &= ~(1ull << ct);
      }
    }

    rng::Xoshiro256 gen(rng::hash_words(seed_ ^ 0xADF1u,
                                        static_cast<std::uint64_t>(t),
                                        static_cast<std::uint64_t>(i)));

    // --- Assignment update by sub-phase position. Rounds that don't move
    // this ant carry the previous assignment through unchanged.
    TaskId out = prev[iu];
    if (ct == kIdle) {
      if (r == 0) {
        // Join a uniformly random task whose feedback was lack all phase.
        const std::uint64_t mask = all_lack_[iu];
        if (mask == 0) {
          out = kIdle;
        } else {
          const int pick = static_cast<int>(gen.uniform_below(
              static_cast<std::uint64_t>(std::popcount(mask))));
          out = static_cast<TaskId>(nth_set_bit(mask, pick));
        }
      }
    } else if (r >= 2 && r < r1) {
      // Cumulative thinning sweep.
      if (pause_round_[iu] == kNeverPaused &&
          gen.bernoulli(params_.pause_probability())) {
        pause_round_[iu] = r;
      }
      out = pause_round_[iu] == kNeverPaused ? ct : kIdle;
    } else if (r == r1) {
      // Freeze at the status held in round rmin.
      const bool was_idle_at_rmin = pause_round_[iu] <= first_lack_[iu];
      out = was_idle_at_rmin ? kIdle : ct;
    } else if (r == 0) {
      // End of phase: resume, unless leaving after an all-overload phase.
      const bool leave = all_over_[iu] != 0 &&
                         gen.bernoulli(params_.leave_probability());
      out = leave ? kIdle : ct;
    }
    // r in [r1+1, r1+r2-1]: keep the frozen assignment (out == prev).
    next[iu] = out;
  }
}

void PreciseAdversarialAgent::on_lifecycle(Round /*t*/,
                                           const ActiveSet& active) {
  const std::uint64_t mask = active.mask64();
  for (std::size_t i = 0; i < current_task_.size(); ++i) {
    all_lack_[i] &= mask;
    TaskId& ct = current_task_[i];
    if (ct != kIdle && !active[ct]) {
      // Flushed worker: an empty all-lack mask keeps it idle through the
      // end-of-phase join; the phase-start reset restores it to a normal
      // idle ant.
      ct = kIdle;
      all_lack_[i] = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregate form (deterministic feedback only)
// ---------------------------------------------------------------------------

PreciseAdversarialAggregate::PreciseAdversarialAggregate(
    PreciseAdversarialParams params)
    : params_(params) {
  validate(params_);
}

void PreciseAdversarialAggregate::reset(const Allocation& initial,
                                        std::uint64_t seed) {
  gen_ = rng::Xoshiro256(rng::hash_combine(seed, 0xADF2u));
  ledger_ = rng::Xoshiro256(rng::hash_combine(seed, 0xADEDu));
  const auto k = static_cast<std::size_t>(initial.num_tasks());
  assigned_.assign(initial.loads().begin(), initial.loads().end());
  active_ = assigned_;
  visible_ = assigned_;
  prev_visible_ = assigned_;
  active_history_.assign(k, {});
  first_lack_.assign(k, params_.r1());
  all_lack_.assign(k, 1);
  all_over_.assign(k, 1);
  task_active_.assign(k, 1);
  idle_ = initial.idle();
  flushed_ = 0;
}

Count PreciseAdversarialAggregate::apply_lifecycle(Round /*t*/,
                                                   const ActiveSet& active) {
  Count switched = 0;
  for (std::size_t j = 0; j < assigned_.size(); ++j) {
    const bool now_active = active[static_cast<TaskId>(j)];
    if (!now_active && task_active_[j] != 0) {
      switched += visible_[j];
      flushed_ += assigned_[j];
      assigned_[j] = 0;
      active_[j] = 0;
      visible_[j] = 0;
      // The replay history must not resurrect pre-death loads at the
      // sub-phase-2 freeze.
      for (auto& h : active_history_[j]) h = 0;
      all_lack_[j] = 0;
    }
    task_active_[j] = now_active ? 1 : 0;
  }
  return switched;
}

AggregateKernel::RoundOutput PreciseAdversarialAggregate::step(
    Round t, const DemandVector& demands, const FeedbackModel& fm) {
  const auto k = static_cast<std::size_t>(demands.num_tasks());
  const std::int32_t r1 = params_.r1();
  const Round phase = params_.phase_length();
  const auto r = static_cast<std::int32_t>(t % phase);
  std::int64_t switches = 0;
  prev_visible_ = visible_;

  if (r == 1) {
    // Phase start: ants flushed off dying tasks rejoin the idle pool.
    idle_ += flushed_;
    flushed_ = 0;
    for (std::size_t j = 0; j < k; ++j) {
      active_[j] = assigned_[j];
      active_history_[j].assign(static_cast<std::size_t>(r1) + 1, assigned_[j]);
      first_lack_[j] = r1;
      all_lack_[j] = 1;
      all_over_[j] = 1;
    }
  }

  // Common deterministic feedback per task for this round. Dormant tasks
  // answer unconditional overload, which clears their all-lack flag so the
  // end-of-phase join rule never targets them.
  for (std::size_t j = 0; j < k; ++j) {
    if (task_active_[j] == 0) {
      all_lack_[j] = 0;
      continue;
    }
    const auto tj = static_cast<TaskId>(j);
    const double deficit = static_cast<double>(demands[tj] - prev_visible_[j]);
    const double p = fm.lack_probability(t, tj, deficit,
                                         static_cast<double>(demands[tj]));
    const bool lack = p >= 0.5;
    if (lack) {
      all_over_[j] = 0;
      if (r >= 1 && r < r1 && first_lack_[j] == r1) first_lack_[j] = r;
    } else {
      all_lack_[j] = 0;
    }
  }

  if (r >= 2 && r < r1) {
    for (std::size_t j = 0; j < k; ++j) {
      const Count pauses =
          rng::binomial(gen_, active_[j], params_.pause_probability());
      active_[j] -= pauses;
      active_history_[j][static_cast<std::size_t>(r)] = active_[j];
      // Later rounds default to this value until they pause further.
      for (std::size_t rr = static_cast<std::size_t>(r) + 1;
           rr < active_history_[j].size(); ++rr) {
        active_history_[j][rr] = active_[j];
      }
      visible_[j] = active_[j];
      switches += pauses;
    }
    return {visible_, switches};
  }

  if (r == r1) {
    // Freeze at the load held in round rmin.
    for (std::size_t j = 0; j < k; ++j) {
      const auto rmin = static_cast<std::size_t>(first_lack_[j]);
      const Count frozen = active_history_[j][rmin];
      switches += std::abs(visible_[j] - frozen);
      visible_[j] = frozen;
    }
    return {visible_, switches};
  }

  if (r != 0) return {visible_, 0};  // sub-phase 2: frozen

  // End of phase: leaves, joins, everyone else resumes.
  Count lack_tasks = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (all_lack_[j] != 0) ++lack_tasks;
  }
  std::vector<double> join_probs(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    if (all_lack_[j] != 0) {
      join_probs[j] = 1.0 / static_cast<double>(lack_tasks);
    }
  }
  std::vector<Count> joins(k, 0);
  if (lack_tasks > 0) {
    joins = rng::multinomial(gen_, idle_, join_probs);
  }
  for (std::size_t j = 0; j < k; ++j) {
    // Committed ants not in the frozen visible load sit out the rest of the
    // phase as idle-visible; the leavers are a uniform subset of all
    // committed ants, so the paused ones among them are hypergeometric.
    const Count paused = assigned_[j] - visible_[j];
    Count leaves = 0;
    Count paused_leaves = 0;
    if (all_over_[j] != 0) {
      leaves = rng::binomial(gen_, assigned_[j], params_.leave_probability());
      paused_leaves =
          rng::hypergeometric(ledger_, leaves, paused, assigned_[j]);
    }
    assigned_[j] += joins[j] - leaves;
    idle_ += leaves - joins[j];
    // Joiners, working leavers and resuming paused ants switch once each; a
    // paused leaver stays idle.
    switches += joins[j] + leaves + paused - 2 * paused_leaves;
    visible_[j] = assigned_[j];
    active_[j] = assigned_[j];
  }
  return {visible_, switches};
}

}  // namespace antalloc
