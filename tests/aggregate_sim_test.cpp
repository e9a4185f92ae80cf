// Engine-level tests for the aggregate simulator: model compatibility,
// determinism, conservation of ants, and large-n tractability.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>

#include "agent/agent_sim.h"
#include "aggregate/aggregate_sim.h"
#include "algo/ant.h"
#include "noise/correlated.h"
#include "noise/sigmoid.h"

namespace antalloc {
namespace {

TEST(AggregateSim, RejectsNonIidModels) {
  AntAggregate kernel(AntParams{.gamma = 0.05});
  const CorrelatedFeedback fm(std::make_shared<SigmoidFeedback>(1.0), 0.5);
  const DemandVector demands({Count{100}});
  AggregateSimConfig cfg{.n_ants = 1000, .rounds = 10, .seed = 1};
  EXPECT_THROW(run_aggregate_sim(kernel, fm, demands, cfg),
               std::invalid_argument);
}

TEST(AggregateSim, DeterministicGivenSeed) {
  const DemandVector demands({Count{500}, Count{700}});
  const SigmoidFeedback fm(1.0);
  auto run_once = [&](std::uint64_t seed) {
    AntAggregate kernel(AntParams{.gamma = 0.05});
    AggregateSimConfig cfg{.n_ants = 5000, .rounds = 500, .seed = seed};
    return run_aggregate_sim(kernel, fm, demands, cfg);
  };
  const auto a = run_once(55);
  const auto b = run_once(55);
  const auto c = run_once(56);
  EXPECT_EQ(a.final_loads, b.final_loads);
  EXPECT_DOUBLE_EQ(a.total_regret, b.total_regret);
  EXPECT_TRUE(a.final_loads != c.final_loads ||
              a.total_regret != c.total_regret);
}

TEST(AggregateSim, ConservesAnts) {
  AntAggregate kernel(AntParams{.gamma = 0.05});
  const SigmoidFeedback fm(1.0);
  const DemandVector demands({Count{800}, Count{600}, Count{400}});
  kernel.reset(Allocation(5000, {Count{100}, Count{4000}, Count{0}}), 9);
  for (Round t = 1; t <= 1000; ++t) {
    const auto out = kernel.step(t, demands, fm);
    const Count assigned = std::accumulate(out.loads.begin(), out.loads.end(),
                                           Count{0});
    ASSERT_GE(assigned, 0);
    ASSERT_LE(assigned, 5000) << "round " << t;
  }
}

TEST(AggregateSim, MillionAntColonyIsFast) {
  // The whole point of the aggregate engine: n = 2^20 ants, k = 8 tasks,
  // thousands of rounds in well under a second.
  AntAggregate kernel(AntParams{.gamma = 0.02});
  const SigmoidFeedback fm(0.05);
  const DemandVector demands = uniform_demands(8, 50'000);
  AggregateSimConfig cfg{.n_ants = 1 << 20,
                         .rounds = 2000,
                         .seed = 77,
                         .metrics = {.gamma = 0.02, .warmup = 1000}};
  const auto start = std::chrono::steady_clock::now();
  const auto res = run_aggregate_sim(kernel, fm, demands, cfg);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  for (TaskId j = 0; j < 8; ++j) {
    EXPECT_NEAR(
        static_cast<double>(res.final_loads[static_cast<std::size_t>(j)]),
        50'000.0, 5.0 * 0.02 * 50'000.0 + 100.0);
  }
}

TEST(AggregateSim, InitialLoadsValidated) {
  AntAggregate kernel(AntParams{.gamma = 0.05});
  const SigmoidFeedback fm(1.0);
  const DemandVector demands({Count{100}});
  AggregateSimConfig cfg{.n_ants = 50, .rounds = 1, .seed = 1,
                         .metrics = {}, .initial_loads = {Count{60}}};
  EXPECT_THROW(run_aggregate_sim(kernel, fm, demands, cfg),
               std::invalid_argument);
}

TEST(AggregateSim, RebalancesAfterDemandChange) {
  // Self-stabilization over a change point: one task's demand drops and the
  // other's rises, and the colony must re-converge to the new demands.
  const double gamma = 0.05;
  DemandSchedule schedule(DemandVector({Count{1000}, Count{800}}));
  schedule.add_change(3001, DemandVector({Count{400}, Count{1400}}));
  AntAggregate kernel(AntParams{.gamma = gamma});
  const SigmoidFeedback fm(0.7);
  AggregateSimConfig cfg{.n_ants = 8000,
                         .rounds = 7000,
                         .seed = 3,
                         .metrics = {.gamma = gamma}};
  const auto res = run_aggregate_sim(kernel, fm, schedule, cfg);
  EXPECT_NEAR(static_cast<double>(res.final_loads[0]), 400.0,
              5.0 * gamma * 400.0 + 20.0);
  EXPECT_NEAR(static_cast<double>(res.final_loads[1]), 1400.0,
              5.0 * gamma * 1400.0 + 20.0);
}

TEST(AggregateSim, ZeroRoundRunsReturnInitialLoadsOnEveryEngine) {
  const std::vector<Count> initial{Count{30}, Count{20}};
  const DemandVector demands({Count{100}, Count{100}});
  SigmoidFeedback fm(1.0);

  AntAggregate kernel(AntParams{.gamma = 0.05});
  const AggregateSimConfig agg{.n_ants = 400, .rounds = 0, .seed = 1,
                               .metrics = {}, .initial_loads = initial};
  const SimResult aggregate = run_aggregate_sim(kernel, fm, demands, agg);
  EXPECT_EQ(aggregate.rounds, 0);
  EXPECT_EQ(aggregate.final_loads, initial);

  for (const SamplingMode sampling :
       {SamplingMode::kPerAnt, SamplingMode::kBatched}) {
    AntAgent algo(AntParams{.gamma = 0.05});
    const AgentSimConfig cfg{.n_ants = 400, .rounds = 0, .seed = 1,
                             .metrics = {}, .initial_loads = initial,
                             .sampling = sampling};
    const SimResult agent = run_agent_sim(algo, fm, demands, cfg);
    EXPECT_EQ(agent.rounds, 0) << to_string(sampling);
    EXPECT_EQ(agent.final_loads, initial) << to_string(sampling);
  }
}

}  // namespace
}  // namespace antalloc
