#include "aggregate/aggregate_sim.h"

#include <stdexcept>
#include <string>

#include "metrics/round_loop.h"

namespace antalloc {

SimResult run_aggregate_sim(AggregateKernel& kernel, const FeedbackModel& fm,
                            const DemandSchedule& schedule,
                            const AggregateSimConfig& cfg) {
  if (!kernel.supports(fm)) {
    throw std::invalid_argument(
        std::string("aggregate kernel '") + std::string(kernel.name()) +
        "' cannot simulate feedback model '" + std::string(fm.name()) +
        "' exactly; use the agent engine");
  }
  const Allocation init =
      starting_allocation(cfg.n_ants, schedule.num_tasks(), cfg.initial_loads);
  kernel.reset(init, cfg.seed);

  return drive_rounds(
      schedule, cfg.rounds, cfg.n_ants, cfg.metrics, init.loads(),
      [&](Round t, const ActiveSet& active) {
        return kernel.apply_lifecycle(t, active);
      },
      [&](Round t, const DemandVector& demands, const ActiveSet&) {
        const AggregateKernel::RoundOutput out = kernel.step(t, demands, fm);
        return RoundStep{.loads = out.loads, .switches = out.switches};
      });
}

SimResult run_aggregate_sim(AggregateKernel& kernel, const FeedbackModel& fm,
                            const DemandVector& demands,
                            const AggregateSimConfig& cfg) {
  return run_aggregate_sim(kernel, fm, DemandSchedule(demands), cfg);
}

}  // namespace antalloc
