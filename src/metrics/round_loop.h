// The round driver every engine runs under. It is the one owner of the
// per-round lifecycle policy, so the per-ant engine, the batched agent path
// and the aggregate engine differ only in their flush and step callbacks.
//
// Each round t: look up the schedule segment in force; where its active set
// differs from the one in force (round 1 included: engines start all-active,
// the assumption their initial allocation was built under) call
// flush(t, active), which retires the workers of newly dormant tasks and
// returns how many visible workers it moved to idle; call
// step(t, demands, active); record one RoundView. The flush is a switch event
// of round t, so an ant flushed and re-recruited in the same round counts
// twice (task -> idle -> task) on every engine. The callbacks are template
// arguments: no per-round indirection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "core/demand.h"
#include "metrics/regret.h"

namespace antalloc {

// What an engine's step reports: the visible loads W(j)_t after round t
// (borrowed from the engine until its next flush or step) and the
// assignment changes the step made.
struct RoundStep {
  std::span<const Count> loads;
  std::int64_t switches = 0;
};

// Runs rounds 1..`rounds` and returns the summary, finished on the last
// round's loads (`initial_loads` when no round runs).
template <class Flush, class Step>
SimResult drive_rounds(const DemandSchedule& schedule, Round rounds,
                       Count n_ants, MetricsRecorder::Options metrics,
                       std::span<const Count> initial_loads, Flush&& flush,
                       Step&& step) {
  MetricsRecorder recorder(schedule.num_tasks(), n_ants, std::move(metrics));
  const bool lifecycle = schedule.has_lifecycle();
  ActiveSet active = ActiveSet::all(schedule.num_tasks());
  std::size_t prev_segment = static_cast<std::size_t>(-1);
  std::span<const Count> loads = initial_loads;

  for (Round t = 1; t <= rounds; ++t) {
    // One segment lookup per round serves both the demands and (on segment
    // changes only) the active set.
    const std::size_t segment = schedule.segment_index_at(t);
    const DemandVector& demands = schedule.segment_demands(segment);
    std::int64_t flushed = 0;
    if (lifecycle && segment != prev_segment &&
        schedule.segment_active(segment) != active) {
      active = schedule.segment_active(segment);
      flushed = flush(t, std::as_const(active));
    }
    prev_segment = segment;
    const RoundStep out = step(t, demands, std::as_const(active));
    loads = out.loads;
    recorder.record_round(RoundView{.t = t,
                                    .loads = loads,
                                    .demands = &demands,
                                    .active = &active,
                                    .switches = flushed + out.switches,
                                    .flushes = flushed});
  }
  return recorder.finish(loads);
}

}  // namespace antalloc
