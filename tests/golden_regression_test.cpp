// Golden regression tests: exact final loads of short, fixed-seed runs. Any
// change to an algorithm's sampling order, a kernel's update rule or the RNG
// plumbing shows up here immediately. If a change is INTENTIONAL, re-derive
// the constants by running the snippets below and update them in the same
// commit as the behaviour change.
#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aggregate/aggregate_sim.h"
#include "agent/agent_sim.h"
#include "algo/ant.h"
#include "algo/registry.h"
#include "io/trace_reader.h"
#include "metrics/metric.h"
#include "noise/adversarial.h"
#include "noise/correlated.h"
#include "noise/exact.h"
#include "noise/sigmoid.h"
#include "rng/xoshiro.h"

#ifndef ANTALLOC_TEST_DATA_DIR
#define ANTALLOC_TEST_DATA_DIR "tests/data"
#endif

namespace antalloc {
namespace {

SimResult golden_aggregate(const std::string& algo_name) {
  AlgoConfig algo{.name = algo_name, .gamma = 0.05, .epsilon = 0.5};
  auto kernel = make_aggregate_kernel(algo);
  SigmoidFeedback fm(0.7);
  const DemandVector demands({Count{300}, Count{200}});
  AggregateSimConfig cfg{.n_ants = 2000, .rounds = 3000, .seed = 20260612,
                         .metrics = {.gamma = 0.05}};
  return run_aggregate_sim(*kernel, fm, demands, cfg);
}

SimResult golden_agent(const std::string& algo_name) {
  AlgoConfig algo{.name = algo_name, .gamma = 0.05, .epsilon = 0.5};
  auto agent = make_agent_algorithm(algo);
  SigmoidFeedback fm(0.7);
  const DemandVector demands({Count{300}, Count{200}});
  AgentSimConfig cfg{.n_ants = 2000, .rounds = 3000, .seed = 20260612,
                     .metrics = {.gamma = 0.05}};
  return run_agent_sim(*agent, fm, demands, cfg);
}

// The expected values below were produced by this build and locked in; the
// tests assert exact equality (the engines are deterministic by design).
TEST(Golden, RngStreamFirstDraws) {
  rng::Xoshiro256 gen(12345);
  EXPECT_EQ(gen(), 13720838825685603483ull);
  auto stream = rng::stream_for(1, 2, 3, 4);
  const auto first = stream();
  auto stream2 = rng::stream_for(1, 2, 3, 4);
  EXPECT_EQ(first, stream2());
}

class GoldenLoads : public ::testing::Test {
 protected:
  static void check_stable(const SimResult& a, const SimResult& b) {
    EXPECT_EQ(a.final_loads, b.final_loads);
    EXPECT_DOUBLE_EQ(a.total_regret, b.total_regret);
  }
};

TEST_F(GoldenLoads, AggregateRunsAreStableWithinProcess) {
  for (const auto& name : algorithm_names()) {
    // The precise-adversarial kernel is exact only for deterministic
    // feedback, and the threshold baseline is agent-only; their golden
    // coverage lives in the agent variant below.
    if (name == "precise-adversarial" || !has_aggregate_kernel(name)) continue;
    check_stable(golden_aggregate(name), golden_aggregate(name));
  }
}

TEST_F(GoldenLoads, AgentRunsAreStableWithinProcess) {
  for (const auto& name : algorithm_names()) {
    check_stable(golden_agent(name), golden_agent(name));
  }
}

TEST_F(GoldenLoads, AntAggregateSnapshot) {
  const auto res = golden_aggregate("ant");
  // Loads must be sane and exactly reproducible across builds with the same
  // RNG; sanity bounds guard against silent distribution changes without
  // hardcoding platform-independent exact values for std::binomial_distribution
  // (whose algorithm libstdc++ may legally change between versions).
  EXPECT_GE(res.final_loads[0], 250);
  EXPECT_LE(res.final_loads[0], 350);
  EXPECT_GE(res.final_loads[1], 160);
  EXPECT_LE(res.final_loads[1], 240);
}

// Replay determinism golden: a committed trace fixture re-driven through
// the FULL metric registry must reproduce these scalars bit-for-bit on any
// machine — the replay path has no RNG, no engine, no platform-dependent
// distribution; it is a pure fold over committed bytes. A failure here
// means either the trace format's decoding or a Metric's fold changed.
//
// The fixture was produced by (regenerate + re-pin in the same commit if a
// metric's definition intentionally changes):
//
//   ./build/examples/antalloc_cli --algo=ant --engine=agent --noise=sigmoid \
//     --lambda=0.7 --n=2000 --k=2 --demand=300 --rounds=3000 --gamma=0.05 \
//     --seed=20260612 --plot=false --sampling=per-ant \
//     --trace-out=tests/data/golden_ant_agent.trace
//
// (--sampling=per-ant matters: the CLI defaults to the batched stream, which
// writes tests/data/golden_ant_agent_batched.trace instead.)
TEST_F(GoldenLoads, ReplayOfCommittedFixtureReproducesScalars) {
  const std::string path =
      std::string(ANTALLOC_TEST_DATA_DIR) + "/golden_ant_agent.trace";
  TraceReader reader(path);
  EXPECT_EQ(reader.info().rounds, 3000);
  EXPECT_EQ(reader.info().num_tasks, 2);
  EXPECT_EQ(reader.info().n_ants, 2000);
  EXPECT_EQ(reader.info().seed, 20260612ull);
  EXPECT_EQ(reader.info().config_hash, 0ull);  // ad-hoc (non-campaign) trace
  EXPECT_EQ(reader.info().gamma, 0.05);
  EXPECT_EQ(reader.info().warmup, 1500);

  const SimResult res = replay_trace(reader, metric_names());

  // Legacy always-on fields.
  EXPECT_EQ(res.final_loads, (std::vector<Count>{322, 323}));
  EXPECT_EQ(res.total_regret, 543486.0);
  EXPECT_EQ(res.regret_plus, 388094.59999999031);
  EXPECT_EQ(res.regret_near, 154907.80000000045);
  EXPECT_EQ(res.regret_minus, 483.60000000000002);
  EXPECT_EQ(res.post_warmup_rounds, 1500);
  EXPECT_EQ(res.post_warmup_regret, 58778.0);
  EXPECT_EQ(res.violation_rounds, 747);
  EXPECT_EQ(res.switches, 294369);

  // Every registered metric scalar, exact.
  const std::pair<const char*, double> pinned[] = {
      {"regret", 39.185333333333332},
      {"violations", 747.0},
      {"switches_per_ant_round", 0.049061500000000001},
      {"regret_plus", 388094.59999999031},
      {"regret_near", 154907.80000000045},
      {"regret_minus", 483.60000000000002},
      {"closeness", 1.3061777777777783},
      {"convergence_round", 695.0},
      {"last_violation", 790.0},
      {"band_occupancy", 0.97701647875108411},
      {"osc_crossing_rate", 0.70990330110036681},
      {"osc_max_abs_deficit", 730.0},
      {"osc_mean_abs_deficit", 90.581000000000003},
  };
  for (const auto& [name, value] : pinned) {
    EXPECT_EQ(res.metric(name), value) << name;
  }
}

// The per-ant fixture is also what the per-ant engine produces TODAY: a
// live run of the recipe above must land on the replayed scalars exactly
// (AgentBatched.GoldenTraceReplayMatchesLiveRun is the batched twin).
TEST_F(GoldenLoads, PerAntTraceReplayMatchesLiveRun) {
  const std::string path =
      std::string(ANTALLOC_TEST_DATA_DIR) + "/golden_ant_agent.trace";
  TraceReader reader(path);
  const SimResult replayed = replay_trace(reader, metric_names());

  // --demand=300 --k=2 is uniform demands; the CLI records with warmup =
  // rounds/2.
  AntAgent algo(AntParams{.gamma = 0.05});
  SigmoidFeedback fm(0.7);
  const DemandVector demands = uniform_demands(2, 300);
  const AgentSimConfig cfg{.n_ants = 2000,
                           .rounds = 3000,
                           .seed = 20260612,
                           .metrics = {.gamma = 0.05, .warmup = 1500},
                           .sampling = SamplingMode::kPerAnt};
  const SimResult live = run_agent_sim(algo, fm, demands, cfg);

  EXPECT_EQ(live.final_loads, replayed.final_loads);
  EXPECT_EQ(live.switches, replayed.switches);
  EXPECT_EQ(live.total_regret, replayed.total_regret);
  EXPECT_EQ(live.post_warmup_regret, replayed.post_warmup_regret);
  EXPECT_EQ(live.violation_rounds, replayed.violation_rounds);
}

TEST_F(GoldenLoads, AntAgentSnapshot) {
  // The agent engine only uses our own RNG (counter-based streams), so its
  // trajectory is fully portable: lock the exact final loads.
  const auto res = golden_agent("ant");
  const auto res2 = golden_agent("ant");
  ASSERT_EQ(res.final_loads, res2.final_loads);
  EXPECT_GE(res.final_loads[0], 250);
  EXPECT_LE(res.final_loads[0], 350);
  const Count assigned = res.final_loads[0] + res.final_loads[1];
  EXPECT_LE(assigned, 2000);
}

// Per-ant stream pins: every registered agent algorithm under every noise
// family the per-ant engine takes (i.i.d. sigmoid, Remark 3.4 correlated
// noise, a grey-zone adversary, exact feedback), at a size small enough to
// run the whole matrix in well under a second. The literals were produced
// by this build; any change to how FeedbackAccess derives a draw, to a
// model's probabilities or to an algorithm's sampling order moves them. On
// a mismatch the failure message prints the actual row, ready to re-pin.
std::unique_ptr<FeedbackModel> pin_noise(const std::string& noise) {
  if (noise == "sigmoid") return std::make_unique<SigmoidFeedback>(0.05);
  if (noise == "correlated") {
    return std::make_unique<CorrelatedFeedback>(
        std::make_shared<SigmoidFeedback>(0.05), 0.3);
  }
  if (noise == "anti-gradient") {
    return std::make_unique<AdversarialFeedback>(
        0.1, make_anti_gradient_adversary());
  }
  if (noise == "exact") return std::make_unique<ExactFeedback>();
  throw std::invalid_argument("pin_noise: " + noise);
}

struct PerAntPin {
  const char* algo;
  const char* noise;
  std::vector<Count> final_loads;
  std::int64_t switches;
  double total_regret;
};

const std::vector<PerAntPin>& per_ant_pins() {
  static const std::vector<PerAntPin> pins = {
      {"ant", "sigmoid", {168, 126, 89}, 22977, 58864},
      {"ant", "correlated", {168, 125, 90}, 23059, 59175},
      {"ant", "anti-gradient", {196, 92, 72}, 21680, 49093},
      {"ant", "exact", {128, 85, 72}, 19753, 39495},
      {"precise-sigmoid", "sigmoid", {123, 131, 140}, 460, 79984},
      {"precise-sigmoid", "correlated", {123, 131, 140}, 460, 79984},
      {"precise-sigmoid", "anti-gradient", {123, 131, 140}, 460, 79984},
      {"precise-sigmoid", "exact", {122, 131, 140}, 459, 79803},
      {"precise-adversarial", "sigmoid", {258, 7, 0}, 317, 119856},
      {"precise-adversarial", "correlated", {286, 12, 0}, 350, 128399},
      {"precise-adversarial", "anti-gradient", {137, 123, 124}, 454, 86361},
      {"precise-adversarial", "exact", {137, 123, 124}, 454, 86361},
      {"trivial", "sigmoid", {17, 12, 6}, 174193, 86706},
      {"trivial", "correlated", {210, 7, 0}, 170675, 84054},
      {"trivial", "anti-gradient", {0, 85, 0}, 173615, 88197},
      {"trivial", "exact", {0, 0, 0}, 184024, 92276},
      {"sharp-threshold", "sigmoid", {98, 75, 50}, 92063, 34989},
      {"sharp-threshold", "correlated", {50, 117, 29}, 93430, 42574},
      {"sharp-threshold", "anti-gradient", {132, 74, 61}, 100745, 53898},
      {"sharp-threshold", "exact", {202, 71, 22}, 100285, 52293},
      {"threshold", "sigmoid", {121, 75, 43}, 16527, 6868},
      {"threshold", "correlated", {69, 82, 36}, 17851, 21012},
      {"threshold", "anti-gradient", {79, 139, 34}, 24160, 38234},
      {"threshold", "exact", {75, 110, 33}, 25634, 38676},
      {"oracle", "sigmoid", {120, 80, 40}, 240, 0},
      {"oracle", "correlated", {120, 80, 40}, 240, 0},
      {"oracle", "anti-gradient", {120, 80, 40}, 240, 0},
      {"oracle", "exact", {120, 80, 40}, 240, 0},
  };
  return pins;
}

TEST(PerAntStream, PinnedByValueForEveryAlgorithmAndNoise) {
  const std::vector<std::string> noises = {"sigmoid", "correlated",
                                           "anti-gradient", "exact"};
  const DemandVector demands({Count{120}, Count{80}, Count{40}});
  std::size_t checked = 0;
  for (const std::string& algo_name : algorithm_names()) {
    for (const std::string& noise : noises) {
      auto algo = make_agent_algorithm(
          AlgoConfig{.name = algo_name, .gamma = 0.05, .epsilon = 0.9});
      auto fm = pin_noise(noise);
      const AgentSimConfig cfg{.n_ants = 400,
                               .rounds = 480,
                               .seed = 4242,
                               .metrics = {.gamma = 0.05},
                               .sampling = SamplingMode::kPerAnt};
      const SimResult res = run_agent_sim(*algo, *fm, demands, cfg);

      std::ostringstream actual;
      actual << "{\"" << algo_name << "\", \"" << noise << "\", {";
      for (std::size_t j = 0; j < res.final_loads.size(); ++j) {
        actual << (j ? ", " : "") << res.final_loads[j];
      }
      actual << "}, " << res.switches << ", " << std::setprecision(17)
             << res.total_regret << "},";

      const PerAntPin* pin = nullptr;
      for (const PerAntPin& p : per_ant_pins()) {
        if (algo_name == p.algo && noise == p.noise) pin = &p;
      }
      if (pin == nullptr) {
        ADD_FAILURE() << "no pin for " << algo_name << " x " << noise
                      << "; actual " << actual.str();
        continue;
      }
      ++checked;
      EXPECT_EQ(res.final_loads, pin->final_loads) << actual.str();
      EXPECT_EQ(res.switches, pin->switches) << actual.str();
      EXPECT_EQ(res.total_regret, pin->total_regret) << actual.str();
    }
  }
  EXPECT_EQ(checked, per_ant_pins().size()) << "stale pins in the table";
}

}  // namespace
}  // namespace antalloc
