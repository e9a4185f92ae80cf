#include "agent/agent_sim.h"

#include <stdexcept>
#include <string>

#include "aggregate/aggregate_sim.h"
#include "metrics/round_loop.h"
#include "rng/splitmix.h"

namespace antalloc {
namespace {

// Lays ants out to match the requested initial loads: the first loads[0]
// ants on task 0, the next loads[1] on task 1, ..., the rest idle.
std::vector<TaskId> initial_assignment(Count n_ants,
                                       std::span<const Count> loads) {
  std::vector<TaskId> assignment(static_cast<std::size_t>(n_ants), kIdle);
  std::size_t next = 0;
  for (std::size_t j = 0; j < loads.size(); ++j) {
    for (Count c = 0; c < loads[j]; ++c) {
      assignment[next++] = static_cast<TaskId>(j);
    }
  }
  return assignment;
}

}  // namespace

std::string_view to_string(SamplingMode mode) {
  return mode == SamplingMode::kBatched ? "batched" : "per-ant";
}

SamplingMode parse_sampling_mode(std::string_view s) {
  if (s == "per-ant") return SamplingMode::kPerAnt;
  if (s == "batched") return SamplingMode::kBatched;
  throw std::invalid_argument("unknown sampling mode '" + std::string(s) +
                              "' (expected per-ant|batched)");
}

SimResult run_agent_sim(AgentAlgorithm& algo, FeedbackModel& fm,
                        const DemandSchedule& schedule,
                        const AgentSimConfig& cfg) {
  const std::int32_t k = schedule.num_tasks();
  if (k > kMaxAgentTasks) {
    throw std::invalid_argument("run_agent_sim: k exceeds kMaxAgentTasks");
  }
  // Batched sampling applies only when the algorithm offers a kernel and the
  // per-ant draws are exchangeable (i.i.d. given the loads); anything else
  // falls back to the per-ant stream, which is always correct.
  if (cfg.sampling == SamplingMode::kBatched && fm.iid_across_ants()) {
    if (AggregateKernel* kernel = algo.batched_runner()) {
      return run_aggregate_sim(*kernel, fm, schedule,
                               AggregateSimConfig{.n_ants = cfg.n_ants,
                                                  .rounds = cfg.rounds,
                                                  .seed = cfg.seed,
                                                  .metrics = cfg.metrics,
                                                  .initial_loads =
                                                      cfg.initial_loads});
    }
  }

  const Allocation init = starting_allocation(cfg.n_ants, k, cfg.initial_loads);
  std::vector<Count> loads(init.loads().begin(), init.loads().end());
  std::vector<TaskId> assignment = initial_assignment(cfg.n_ants, loads);
  std::vector<TaskId> next_assignment(assignment.size(), kIdle);
  algo.reset(cfg.n_ants, k, assignment, cfg.seed);

  std::vector<double> deficits(static_cast<std::size_t>(k), 0.0);
  rng::Xoshiro256 model_gen(rng::hash_combine(cfg.seed, 0xBEEFull));

  return drive_rounds(
      schedule, cfg.rounds, cfg.n_ants, cfg.metrics, loads,
      [&](Round t, const ActiveSet& active) {
        // Deterministic retirement: workers of a dying task go straight to
        // kIdle, and the step's diff runs against this post-flush snapshot.
        Count flushed = 0;
        for (auto& a : assignment) {
          if (a != kIdle && !active[a]) {
            --loads[static_cast<std::size_t>(a)];
            a = kIdle;
            ++flushed;
          }
        }
        algo.on_lifecycle(t, active);
        return flushed;
      },
      [&](Round t, const DemandVector& demands, const ActiveSet& active) {
        // Feedback in round t reflects the loads at time t-1; dormant tasks
        // are outside the problem, so their deficit is pinned to zero (their
        // feedback is unconditionally overload regardless).
        const std::uint64_t active_mask = active.mask64();
        for (std::int32_t j = 0; j < k; ++j) {
          const auto ju = static_cast<std::size_t>(j);
          deficits[ju] = ((active_mask >> j) & 1)
                             ? static_cast<double>(demands[j] - loads[ju])
                             : 0.0;
        }
        fm.begin_round(t, deficits, demands.values(), model_gen);
        const FeedbackAccess fb(fm, t, deficits, demands.values(), cfg.seed,
                                active_mask);

        algo.step(t, fb, assignment, next_assignment);

        // Fused incremental diff: update loads and count exact switches,
        // then swap the double-buffered assignments — no per-round O(n)
        // copy or O(k) refill.
        std::int64_t switches = 0;
        for (std::size_t i = 0; i < assignment.size(); ++i) {
          const TaskId was = assignment[i];
          const TaskId now = next_assignment[i];
          if (now == was) continue;
          ++switches;
          if (was != kIdle) --loads[static_cast<std::size_t>(was)];
          if (now != kIdle) ++loads[static_cast<std::size_t>(now)];
        }
        assignment.swap(next_assignment);
        return RoundStep{.loads = loads, .switches = switches};
      });
}

SimResult run_agent_sim(AgentAlgorithm& algo, FeedbackModel& fm,
                        const DemandVector& demands,
                        const AgentSimConfig& cfg) {
  return run_agent_sim(algo, fm, DemandSchedule(demands), cfg);
}

}  // namespace antalloc
