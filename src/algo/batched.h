// Batched (count-level) execution of a per-ant automaton.
//
// A BatchedAgentRunner is an optional fast path an AgentAlgorithm can offer
// the agent engine: instead of per-ant step() calls it advances the whole
// colony per round with bulk draws (rng/bulk_sampler.h) over per-task
// counts. The runner must preserve the automaton's LAW exactly — same
// per-round load distribution, same exact switch counts — while being free
// to use a different RNG stream. The engine gates it behind
// AgentSimConfig::sampling and falls back to the per-ant path whenever the
// noise is not i.i.d. across ants.
//
// State invariants every implementation maintains (see docs/ARCHITECTURE):
//  * state is per-task counts plus an idle and a flushed pool, never ant
//    ids: every ant is counted in exactly one task, the idle pool or the
//    flushed pool, so the counts always sum to n;
//  * a task's committed count splits into working (visible) and paused
//    ants; the working count is the task's visible load;
//  * the flushed pool (ants evicted by mid-phase task death) merges into
//    the idle pool only at a phase start, mirroring the aggregate kernels'
//    flushed pools;
//  * state is O(k) and sized at reset, so steady-state rounds perform zero
//    heap allocations and memory does not grow with the colony.
#pragma once

#include <cstdint>
#include <span>

#include "core/demand.h"
#include "core/types.h"

namespace antalloc {

class BatchedAgentRunner {
 public:
  virtual ~BatchedAgentRunner() = default;

  // Prepares count state for a colony of n ants over k tasks whose round-0
  // per-task loads are `initial` (size k; the remaining ants are idle).
  virtual void reset(Count n_ants, std::int32_t k,
                     std::span<const Count> initial, std::uint64_t seed) = 0;

  // Lifecycle transition, called before step(t) whenever the active-task
  // set changes: flush every worker of a newly inactive task to the
  // runner's flushed pool and zero that task's visible load in `loads`.
  // Returns the number of VISIBLE workers flushed (the engine counts them
  // as that round's flush switches).
  virtual Count apply_lifecycle(Round t, const ActiveSet& active,
                                std::span<Count> loads) = 0;

  // Executes round t. `p_lack[j]` is the per-ant marginal lack probability
  // of task j this round (0 for inactive tasks), `active_mask` the
  // lifecycle mask, and `loads` the visible per-task loads, which the
  // runner updates in place to W_t. Returns the round's exact switch count
  // (assignment changes vs round t-1, excluding lifecycle flushes).
  virtual std::int64_t step(Round t, std::span<const double> p_lack,
                            std::uint64_t active_mask,
                            std::span<Count> loads) = 0;
};

}  // namespace antalloc
