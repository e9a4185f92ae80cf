// Agent-based engine: simulates every ant explicitly.
//
// This is the literal model of the paper — per-ant constant-memory automata,
// per-ant feedback draws — and the only engine that can run non-i.i.d.
// (correlated, per-ant adversarial) noise or memory-limited ants. Use the
// aggregate engine for large colonies under i.i.d. noise; the two agree in
// distribution (tested).
//
// Sampling modes. The engine offers two statistically equivalent ways to
// realize each round:
//  * kPerAnt — the legacy stream: every (ant, task) coin comes from its own
//    generator keyed by hash_words(seed, round, ant, task), flipped against
//    the round's table of conditional lack probabilities (FeedbackAccess
//    asks the model for k of them per round, after begin_round). Bit-exact
//    with the committed golden traces; works for every algorithm and
//    feedback model, including correlated ones.
//  * kBatched — the fast path: the algorithm's own count-level kernel
//    (AgentAlgorithm::batched_runner) runs under run_aggregate_sim, so a
//    batched agent run IS an aggregate run with the same seed: loads,
//    regret and the exact switch ledger are bit-identical to the aggregate
//    engine's. Requires an algorithm that offers a kernel and an
//    i.i.d.-across-ants feedback model; the engine silently falls back to
//    kPerAnt otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "algo/algorithm.h"
#include "core/allocation.h"
#include "core/demand.h"
#include "metrics/regret.h"

namespace antalloc {

enum class SamplingMode : std::uint8_t {
  kPerAnt = 0,   // legacy per-ant RNG stream (golden-trace pinned)
  kBatched = 1,  // the algorithm's count-level kernel
};

// "per-ant" / "batched"; throws std::invalid_argument on anything else.
SamplingMode parse_sampling_mode(std::string_view s);
std::string_view to_string(SamplingMode mode);

struct AgentSimConfig {
  Count n_ants = 0;
  Round rounds = 0;
  std::uint64_t seed = 1;
  MetricsRecorder::Options metrics{};
  // Initial per-task loads (remaining ants idle). Empty = all idle.
  std::vector<Count> initial_loads{};
  // Defaults to the legacy stream so direct engine callers (golden traces,
  // replay fixtures) stay bit-exact; campaigns and the CLI default to
  // kBatched.
  SamplingMode sampling = SamplingMode::kPerAnt;
};

// Runs `algo` under `fm` for cfg.rounds rounds against the demand schedule.
// Switches are counted exactly (assignment diffs between rounds).
SimResult run_agent_sim(AgentAlgorithm& algo, FeedbackModel& fm,
                        const DemandSchedule& schedule,
                        const AgentSimConfig& cfg);

// Convenience overload for a constant demand vector.
SimResult run_agent_sim(AgentAlgorithm& algo, FeedbackModel& fm,
                        const DemandVector& demands,
                        const AgentSimConfig& cfg);

}  // namespace antalloc
