// Allocation bookkeeping: per-task loads plus the idle pool, with the
// invariant sum(loads) + idle == n maintained at all times.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/demand.h"
#include "core/types.h"

namespace antalloc {

class Allocation {
 public:
  // Starts from explicit per-task loads (remaining ants idle).
  Allocation(Count n_ants, std::vector<Count> loads);

  // All ants idle over k tasks. A named factory rather than an
  // (n, k) constructor: a single-element brace list like {Count{5}} would
  // otherwise prefer the integral overload over the loads vector.
  static Allocation all_idle(Count n_ants, std::int32_t k);

  Count n_ants() const { return n_; }
  std::int32_t num_tasks() const { return static_cast<std::int32_t>(loads_.size()); }
  Count load(TaskId j) const { return loads_[static_cast<std::size_t>(j)]; }
  Count idle() const { return idle_; }
  std::span<const Count> loads() const { return loads_; }

  Count deficit(TaskId j, const DemandVector& d) const {
    return d[j] - load(j);
  }

  // Moves `count` ants from idle onto task j (count may be 0).
  void join(TaskId j, Count count);

  // Moves `count` ants from task j back to idle.
  void leave(TaskId j, Count count);

  // Task retirement: moves every worker of task j back to idle and returns
  // how many ants moved. The deterministic half of a lifecycle transition —
  // a dying task's workers do not drain stochastically, they are flushed.
  Count flush_to_idle(TaskId j);

  // Applies an active-task set: flushes every inactive task's workers to
  // idle (activation needs no transition — a reborn task starts from zero
  // load and recruits organically). Returns the total number of ants moved.
  Count retire_inactive(const ActiveSet& active);

  // Replaces the loads wholesale (e.g. adversarial restart scenarios); the
  // new loads must fit within n.
  void set_loads(std::span<const Count> loads);

  // Sum over tasks of |d(j) - W(j)|: the instantaneous regret r(t).
  Count instantaneous_regret(const DemandVector& d) const;

 private:
  Count n_;
  Count idle_;
  std::vector<Count> loads_;
};

// Initial-allocation kinds for self-stabilization experiments: all ants
// idle, ants spread evenly over tasks, everything crammed onto task 0, or a
// multinomial draw over tasks+idle.
enum class InitialKind { kIdle, kUniform, kAdversarial, kRandom };

// Parses "idle" | "uniform" | "adversarial" | "random"; throws
// std::invalid_argument naming the valid kinds otherwise.
InitialKind parse_initial_kind(std::string_view kind);
std::string_view to_string(InitialKind kind);
std::vector<std::string> initial_kind_names();

Allocation make_initial_allocation(InitialKind kind, Count n_ants,
                                   std::int32_t k, std::uint64_t seed);

// The allocation a run starts from: explicit per-task `loads` (remaining
// ants idle), or all ants idle when `loads` is empty. Throws
// std::invalid_argument unless `loads` has one entry per task and the
// entries fit within the colony.
Allocation starting_allocation(Count n_ants, std::int32_t k,
                               std::span<const Count> loads);

}  // namespace antalloc
