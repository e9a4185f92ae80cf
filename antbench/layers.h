// Layer passes of the traced run. Every pass is driven by state captured
// from the workload's own run (recorded rounds, deficits, (n, p) pairs,
// frames), never by constants, and runs inside a span named after the layer
// so its self time and item count land in the tracer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/demand.h"
#include "core/types.h"
#include "metrics/metric.h"
#include "metrics/regret.h"
#include "algo/algorithm.h"
#include "noise/feedback_model.h"

namespace antbench {

using antalloc::Count;
using antalloc::Round;

// One replicate's RoundView stream, held by value.
struct RecordedRun {
  std::int32_t k = 0;
  Count n_ants = 0;
  antalloc::MetricsRecorder::Options recorder{};  // names left to the caller
  std::shared_ptr<const antalloc::DemandSchedule> schedule;
  std::vector<Round> t;
  std::vector<Count> loads;  // rounds × k
  std::vector<std::int64_t> switches;
  std::vector<std::int64_t> flushes;

  std::size_t rounds() const { return t.size(); }
  antalloc::RoundView view(std::size_t i) const;
};

// Reads a whole trace file into memory.
RecordedRun load_trace(const std::string& path);

// A RoundSink that copies every RoundView it sees into a RecordedRun.
class CaptureSink final : public antalloc::RoundSink {
 public:
  CaptureSink(RecordedRun* out, const antalloc::DemandSchedule& schedule,
              Count n_ants);
  void on_round(const antalloc::RoundView& view) override;

 private:
  RecordedRun* out_;
};

// metrics: feeds every recorded round into a fresh MetricsRecorder with the
// given selection. Span "metrics.recorder", items = rounds.
void pass_recorder(const std::vector<RecordedRun>& runs,
                   const std::vector<std::string>& metric_names);

// rng: binomial draws on the (n, p) pairs the recorded rounds imply — n the
// recorded per-task loads and the idle pool, p the model's lack probability
// at the recorded deficit. Span "rng.binomial", items = draws.
void pass_binomial(const std::vector<RecordedRun>& runs,
                   const antalloc::FeedbackModel& fm, std::uint64_t seed);

// noise: per-ant FeedbackModel::sample calls at the recorded deficits
// (begin_round once per recorded round). Span `span_name`, items = samples.
void pass_noise_sample(const std::vector<RecordedRun>& runs,
                       antalloc::FeedbackModel& fm, const char* span_name,
                       std::uint64_t seed);

// agent: drives `algo` open loop (no engine, no recorder) over the run's
// rounds at n_ants, feeding it through FeedbackAccess either the recorded
// deficits or a constant deficit (the state an open-loop microbench holds
// the colony in). Span `span_name`, items = ant-rounds. Returns ns per
// ant-round.
double pass_openloop(const RecordedRun& run, antalloc::AgentAlgorithm& algo,
                     antalloc::FeedbackModel& fm, const double* constant,
                     const char* span_name, std::uint64_t seed);

// io: writes every run through TraceWriter into `dir`, then reads every
// file back with TraceReader. Spans "io.trace_write" / "io.trace_read",
// items = bytes. Returns the bytes written; deletes the files.
std::uint64_t pass_trace_io(const std::vector<RecordedRun>& runs,
                            const std::string& dir);

// Measures the machine ceilings (traced run only) and sets the four roofline.* metrics. The bytes per
// per-ant ant-round and binomial draws per aggregate round are COMPUTED from
// the engines' structure, not measured; the report line says so and states
// the cache and array sizes.
void report_roofline(std::int32_t k, LayerMetrics& m, Outcome& out);

}  // namespace antbench
