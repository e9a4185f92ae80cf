// Correctness rails for the batched agent fast path (SamplingMode::kBatched),
// which runs the algorithm's own count-level kernel (AntAggregate) under
// run_aggregate_sim:
//
//  1. BIT-LEVEL: a batched agent run and an aggregate run with the same seed
//     are the same computation, so final loads, every regret integral AND
//     the switch count are bit-identical — through run_agent_sim /
//     run_aggregate_sim directly and through run_experiment's
//     Engine::kAgent / Engine::kAggregate.
//  2. LAW-LEVEL: the kernel counts switches EXACTLY. A paused ant that also
//     leaves was idle-visible already and does not switch; the kernel draws
//     how many leavers were paused (hypergeometric) from its ledger
//     generator. Under exact feedback with overload-certain tasks the exact
//     even-round switch probability per committed ant is p + q - 2pq, far
//     from the p + q that counting every paused leaver twice gives. The
//     per-ant engine counts switches exactly by construction (assignment
//     diffs); batched, aggregate and per-ant means must all sit at the exact
//     value.
//  3. FIXTURE: a committed golden trace of the batched stream; a live batched
//     run must reproduce the replayed scalars exactly.
//  4. BYTES AT SCALE: literal final loads, switches and regret of batched
//     runs over the whole scenario registry at n = 65536 (and one run at
//     n = 2^20) pin the count stream and the switch ledger at the colony
//     sizes the fast path is for.
//
// The batched golden fixture was produced by (regenerate + re-pin in the same
// commit as any intentional batched-stream change):
//
//   ./build/examples/antalloc_cli --algo=ant --engine=agent --noise=sigmoid \
//     --lambda=0.7 --n=2000 --k=2 --demand=300 --rounds=3000 --gamma=0.05 \
//     --seed=20260612 --sampling=batched --plot=false \
//     --trace-out=tests/data/golden_ant_agent_batched.trace
#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "aggregate/aggregate_sim.h"
#include "agent/agent_sim.h"
#include "algo/ant.h"
#include "io/trace_reader.h"
#include "metrics/metric.h"
#include "noise/exact.h"
#include "noise/sigmoid.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "stats/summary.h"

#ifndef ANTALLOC_TEST_DATA_DIR
#define ANTALLOC_TEST_DATA_DIR "tests/data"
#endif

namespace antalloc {
namespace {

struct CrossCheckCase {
  std::string name;
  DemandSchedule schedule;
  Count n_ants;
  Round rounds;
  std::vector<Count> initial_loads;
};

std::vector<CrossCheckCase> cross_check_cases() {
  std::vector<CrossCheckCase> cases;
  // The golden-run shape: two tasks, cold start.
  cases.push_back({"two-task-cold",
                   DemandSchedule(DemandVector({Count{300}, Count{200}})),
                   2000, 3000, {}});
  // Four heterogeneous tasks, warm start.
  cases.push_back(
      {"four-task-warm",
       DemandSchedule(DemandVector({Count{100}, Count{80}, Count{60},
                                    Count{40}})),
       1000, 1000, {Count{120}, Count{60}, Count{60}, Count{20}}});
  // Demand shock without lifecycle.
  {
    DemandSchedule shock(DemandVector({Count{60}, Count{120}}));
    shock.add_change(401, DemandVector({Count{140}, Count{40}}));
    cases.push_back({"demand-shock", std::move(shock), 800, 1200, {}});
  }
  // Task death and rebirth: exercises apply_lifecycle, the flushed pool and
  // the dormant-task skip in the count-stream draw order.
  {
    DemandSchedule life(DemandVector({Count{80}, Count{60}, Count{40}}));
    life.add_change(301, DemandVector({Count{80}, Count{60}, Count{0}}),
                    ActiveSet({1, 1, 0}));
    life.add_change(601, DemandVector({Count{80}, Count{60}, Count{50}}),
                    ActiveSet({1, 1, 1}));
    cases.push_back({"task-death-rebirth", std::move(life), 800, 1200, {}});
  }
  return cases;
}

TEST(AgentBatched, LoadsBitIdenticalToAggregateKernel) {
  const AntParams params{.gamma = 0.05};
  for (const auto& c : cross_check_cases()) {
    SCOPED_TRACE(c.name);
    for (const std::uint64_t seed : {20260612ull, 7ull}) {
      SCOPED_TRACE("seed=" + std::to_string(seed));

      AntAgent algo(params);
      SigmoidFeedback fm(0.7);
      AgentSimConfig acfg{.n_ants = c.n_ants,
                          .rounds = c.rounds,
                          .seed = seed,
                          .metrics = {.gamma = params.gamma},
                          .initial_loads = c.initial_loads,
                          .sampling = SamplingMode::kBatched};
      const auto batched = run_agent_sim(algo, fm, c.schedule, acfg);

      AntAggregate kernel(params);
      AggregateSimConfig kcfg{.n_ants = c.n_ants,
                              .rounds = c.rounds,
                              .seed = seed,
                              .metrics = {.gamma = params.gamma},
                              .initial_loads = c.initial_loads};
      const auto aggregate = run_aggregate_sim(kernel, fm, c.schedule, kcfg);

      // One kernel, one seed => the same run, switch ledger included.
      EXPECT_EQ(batched.final_loads, aggregate.final_loads);
      EXPECT_EQ(batched.total_regret, aggregate.total_regret);
      EXPECT_EQ(batched.post_warmup_regret, aggregate.post_warmup_regret);
      EXPECT_EQ(batched.violation_rounds, aggregate.violation_rounds);
      EXPECT_EQ(batched.switches, aggregate.switches);
    }
  }
}

TEST(AgentBatched, ExperimentEnginesAgreeBitForBit) {
  // The same identity through run_experiment's engine switch, over every
  // registry scenario (lifecycle families included).
  const DemandVector base({Count{90}, Count{60}, Count{40}});
  for (const Scenario& sc : registry_scenarios(base, 500, /*seed=*/3)) {
    SCOPED_TRACE(sc.name);
    ExperimentConfig cfg;
    cfg.algo = {.name = "ant", .gamma = 0.05};
    cfg.n_ants = 1200;
    cfg.rounds = 500;
    cfg.seed = 41;
    cfg.initial = sc.initial;
    cfg.initial_loads = sc.initial_loads;
    SigmoidFeedback fm(0.3);
    cfg.engine = Engine::kAgent;
    cfg.sampling = SamplingMode::kBatched;
    const SimResult agent = run_experiment(cfg, fm, sc.schedule);
    cfg.engine = Engine::kAggregate;
    const SimResult aggregate = run_experiment(cfg, fm, sc.schedule);
    EXPECT_EQ(agent.final_loads, aggregate.final_loads);
    EXPECT_EQ(agent.switches, aggregate.switches);
    EXPECT_EQ(agent.total_regret, aggregate.total_regret);
  }
}

TEST(AgentBatched, ExactSwitchLawMatchesPerAntEngine) {
  // Exact feedback, demand 1, every ant committed to task 0 with load >> 1:
  // both samples are overload-certain, so per phase each committed ant
  // independently pauses with p = cs*gamma and leaves with q = gamma/cd.
  // Exact switches per ant per phase: p (odd round) + p + q - 2pq (even
  // round: working leaver or resuming paused survivor; a paused leaver does
  // NOT switch). Counting paused leavers twice would add p + q instead —
  // with p = 0.9, q = 0.833 that is 2.63 n versus the exact 1.13 n per
  // phase, a 2.3x separation no tolerance below can absorb.
  const AntParams params{.gamma = 0.5, .cs = 1.8, .cd = 0.6};
  const double p = params.pause_probability();
  const double q = params.leave_probability();
  constexpr Count kAnts = 8192;
  constexpr int kReplicates = 24;
  const DemandVector demands({Count{1}});
  const std::vector<Count> initial{kAnts};

  const auto mean_switches = [&](Engine engine, SamplingMode mode,
                                 std::uint64_t base_seed) {
    const auto results = run_replicated_experiment(
        {.algo = {.name = "ant",
                  .gamma = params.gamma,
                  .cs = params.cs,
                  .cd = params.cd},
         .engine = engine,
         .n_ants = kAnts,
         .rounds = 2,  // one full phase
         .seed = base_seed,
         .initial_loads = initial,
         .metrics = {.gamma = params.gamma},
         .sampling = mode},
        [] { return std::make_unique<ExactFeedback>(); },
        DemandSchedule(demands), kReplicates);
    RunningStats stats;
    for (const auto& r : results) {
      stats.add(static_cast<double>(r.switches));
    }
    return stats;
  };

  const RunningStats per_ant =
      mean_switches(Engine::kAgent, SamplingMode::kPerAnt, 500);
  const RunningStats batched =
      mean_switches(Engine::kAgent, SamplingMode::kBatched, 600);
  const RunningStats aggregate =
      mean_switches(Engine::kAggregate, SamplingMode::kBatched, 700);

  const double n = static_cast<double>(kAnts);
  const double exact = n * (p + (p + q - 2.0 * p * q));
  const double double_counted = n * (p + (p + q));

  for (const RunningStats* arm : {&per_ant, &batched, &aggregate}) {
    const double tol =
        5.0 * std::sqrt(per_ant.stderr_mean() * per_ant.stderr_mean() +
                        arm->stderr_mean() * arm->stderr_mean()) +
        0.01 * exact;
    EXPECT_NEAR(arm->mean(), exact, tol);
    EXPECT_NEAR(arm->mean(), per_ant.mean(), tol);
    // Far below the law that counts every paused leaver as a switch.
    EXPECT_LT(arm->mean(), 0.6 * double_counted);
  }
}

TEST(AgentBatched, GoldenTraceReplayMatchesLiveRun) {
  const std::string path =
      std::string(ANTALLOC_TEST_DATA_DIR) + "/golden_ant_agent_batched.trace";
  TraceReader reader(path);
  EXPECT_EQ(reader.info().rounds, 3000);
  EXPECT_EQ(reader.info().num_tasks, 2);
  EXPECT_EQ(reader.info().n_ants, 2000);
  EXPECT_EQ(reader.info().seed, 20260612ull);
  const SimResult replayed = replay_trace(reader, metric_names());

  // Mirrors the CLI invocation above: --demand=300 --k=2 is uniform demands
  // and the CLI records with warmup = rounds/2.
  AntAgent algo(AntParams{.gamma = 0.05});
  SigmoidFeedback fm(0.7);
  const DemandVector demands = uniform_demands(2, 300);
  AgentSimConfig cfg{.n_ants = 2000,
                     .rounds = 3000,
                     .seed = 20260612,
                     .metrics = {.gamma = 0.05, .warmup = 1500},
                     .sampling = SamplingMode::kBatched};
  const auto live = run_agent_sim(algo, fm, demands, cfg);

  EXPECT_EQ(live.final_loads, replayed.final_loads);
  EXPECT_DOUBLE_EQ(live.total_regret, replayed.total_regret);
  EXPECT_DOUBLE_EQ(live.post_warmup_regret, replayed.post_warmup_regret);
  EXPECT_EQ(live.switches, replayed.switches);
  EXPECT_EQ(live.violation_rounds, replayed.violation_rounds);

  // The batched stream is a DIFFERENT realization than the per-ant golden
  // (tests/data/golden_ant_agent.trace pins final loads {322, 323} and
  // 294369 switches) — equal in law, not in bits. Guard against the two
  // fixtures silently becoming the same file.
  EXPECT_NE(live.switches, 294369);
}

// Batched stream pins: Algorithm Ant on the batched path for every registry
// scenario (lifecycle families included) at n = 65536, k = 4, plus one
// constant-demand run at n = 2^20. The loads and regret have not moved
// since the batched path had its own runner (they are the kernel's count
// stream); the switches are the kernel's exact ledger, re-pinned when the
// hypergeometric ledger generator replaced the runner's selection stream.
// Any change to the count-stream draw order or to the ledger moves them. On
// a mismatch the failure message prints the actual row, ready to re-pin.
struct BatchedPin {
  const char* scenario;
  Count n_ants;
  std::vector<Count> final_loads;
  std::int64_t switches;
  double total_regret;
};

const std::vector<BatchedPin>& batched_pins() {
  static const std::vector<BatchedPin> pins = {
      {"constant", 65536, {7478, 7441, 7374, 7399}, 3283834, 16500757},
      {"single-shock", 65536, {21986, 7516, 7339, 7490}, 3950625, 19735581},
      {"staircase", 65536, {21947, 13634, 9597, 7390}, 4150132, 14223979},
      {"day-night", 65536, {7435, 7435, 7305, 7476}, 3285911, 18266593},
      {"mass-death", 65536, {9597, 7573, 7405, 7431}, 3310358, 14819654},
      {"correlated-shocks", 65536, {8523, 7478, 7419, 7479}, 3315247, 16848041},
      {"ramp-drift", 65536, {8935, 7690, 7374, 7371}, 3293908, 14311916},
      {"seasonal", 65536, {7723, 7467, 7414, 7377}, 3283189, 16527016},
      {"adversarial-phase", 65536, {7419, 7484, 7318, 7453}, 3286996, 16514103},
      {"growth-death", 65536, {7415, 7445, 7403, 7506}, 3284821, 16339698},
      {"task-death", 65536, {7788, 7455, 7435, 0}, 2961110, 13920268},
      {"task-birth", 65536, {7483, 7377, 7344, 21825}, 3482023, 17693140},
      {"task-churn", 65536, {7360, 7502, 0, 23773}, 3536189, 18658575},
      {"constant", 1048576, {176811, 176848, 177533, 177086}, 32368924,
       172497996},
  };
  return pins;
}

struct PinRun {
  Scenario scenario;
  Count n_ants;
  Round rounds;
};

SimResult batched_pin_run(const PinRun& run) {
  ExperimentConfig cfg;
  cfg.algo = {.name = "ant", .gamma = 0.05};
  cfg.engine = Engine::kAgent;
  cfg.sampling = SamplingMode::kBatched;
  cfg.n_ants = run.n_ants;
  cfg.rounds = run.rounds;
  cfg.seed = 20261018;
  cfg.initial = run.scenario.initial;
  cfg.initial_loads = run.scenario.initial_loads;
  cfg.metrics.gamma = 0.05;
  SigmoidFeedback fm(0.05);
  return run_experiment(cfg, fm, run.scenario.schedule);
}

TEST(AgentBatched, StreamPinnedByValue) {
  constexpr Round kRounds = 600;
  const DemandVector base(
      {Count{6000}, Count{4000}, Count{3000}, Count{2000}});
  std::vector<PinRun> runs;
  for (Scenario& sc : registry_scenarios(base, kRounds, /*seed=*/9)) {
    runs.push_back({std::move(sc), 65536, kRounds});
  }
  ScenarioSpec constant;
  constant.name = "constant";
  runs.push_back({make_scenario(constant,
                                DemandVector({Count{96000}, Count{64000},
                                              Count{48000}, Count{32000}}),
                                300),
                  Count{1} << 20, 300});

  std::size_t checked = 0;
  for (const PinRun& run : runs) {
    const SimResult res = batched_pin_run(run);

    std::ostringstream actual;
    actual << "{\"" << run.scenario.family << "\", " << run.n_ants << ", {";
    for (std::size_t j = 0; j < res.final_loads.size(); ++j) {
      actual << (j ? ", " : "") << res.final_loads[j];
    }
    actual << "}, " << res.switches << ", " << std::setprecision(17)
           << res.total_regret << "},";

    const BatchedPin* pin = nullptr;
    for (const BatchedPin& p : batched_pins()) {
      if (run.scenario.family == p.scenario && run.n_ants == p.n_ants) {
        pin = &p;
      }
    }
    if (pin == nullptr) {
      ADD_FAILURE() << "no pin; actual " << actual.str();
      continue;
    }
    ++checked;
    EXPECT_EQ(res.final_loads, pin->final_loads) << actual.str();
    EXPECT_EQ(res.switches, pin->switches) << actual.str();
    EXPECT_EQ(res.total_regret, pin->total_regret) << actual.str();
  }
  EXPECT_EQ(checked, batched_pins().size()) << "stale pins in the table";
}

TEST(AgentBatched, RejectsInconsistentInitialLoads) {
  // Loads of the wrong size, a negative load, loads summing past n and a
  // negative colony are refused before the kernel sees them.
  AntAgent algo(AntParams{.gamma = 0.05});
  SigmoidFeedback fm(0.7);
  const DemandVector demands({Count{30}, Count{20}});
  const auto run = [&](std::vector<Count> initial, Count n_ants = 100) {
    AgentSimConfig cfg{.n_ants = n_ants,
                       .rounds = 4,
                       .seed = 1,
                       .initial_loads = std::move(initial),
                       .sampling = SamplingMode::kBatched};
    return run_agent_sim(algo, fm, demands, cfg);
  };
  EXPECT_THROW(run({10, 20, 30}), std::invalid_argument);
  EXPECT_THROW(run({10}), std::invalid_argument);
  EXPECT_THROW(run({10, -1}), std::invalid_argument);
  EXPECT_THROW(run({60, 50}), std::invalid_argument);
  EXPECT_THROW(run({}, -1), std::invalid_argument);
  EXPECT_NO_THROW(run({60, 40}));
}

}  // namespace
}  // namespace antalloc
