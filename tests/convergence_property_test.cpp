// Property-style parameterized sweeps of the paper's core guarantees:
//
//  * Theorem 3.1 band: after convergence, Algorithm Ant keeps every task's
//    |deficit| within 5γ·d + 3 in almost every round, for a grid of
//    (γ, k, noise, initial allocation).
//  * Self-stabilization: the band is re-entered after arbitrary starts.
//  * Regret decomposition sanity: R = R+ + R≈ + R- exactly.
#include <gtest/gtest.h>

#include <string>

#include "aggregate/aggregate_sim.h"
#include "algo/registry.h"
#include "core/allocation.h"
#include "noise/adversarial.h"
#include "noise/sigmoid.h"

namespace antalloc {
namespace {

struct ConvergenceCase {
  double gamma;
  std::int32_t k;
  std::string noise;    // "sigmoid-1", "sigmoid-0.2", "adv-honest", "adv-anti"
  std::string initial;  // "idle", "adversarial", "uniform", "random"
};

std::unique_ptr<FeedbackModel> make_noise(const std::string& kind) {
  if (kind == "sigmoid-1") return std::make_unique<SigmoidFeedback>(1.0);
  if (kind == "sigmoid-0.2") return std::make_unique<SigmoidFeedback>(0.2);
  if (kind == "adv-honest") {
    return std::make_unique<AdversarialFeedback>(0.02,
                                                 make_honest_adversary());
  }
  return std::make_unique<AdversarialFeedback>(0.02,
                                               make_anti_gradient_adversary());
}

class AntConvergence : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(AntConvergence, DeficitsEnterAndStayInBand) {
  const auto param = GetParam();
  const Count demand_per_task = 2000;
  const DemandVector demands = uniform_demands(param.k, demand_per_task);
  const Count n = 4 * demands.total();

  AlgoConfig cfg;
  cfg.name = "ant";
  cfg.gamma = param.gamma;
  auto kernel = make_aggregate_kernel(cfg);
  auto fm = make_noise(param.noise);

  const Round rounds = 6000;
  const Round warmup = 4000;
  const Allocation init = make_initial_allocation(
      parse_initial_kind(param.initial), n, param.k, 99);

  AggregateSimConfig sim{
      .n_ants = n,
      .rounds = rounds,
      .seed = 1234,
      .metrics = {.gamma = param.gamma, .warmup = warmup, .trace_stride = 2},
      .initial_loads = {init.loads().begin(), init.loads().end()}};
  const auto res = run_aggregate_sim(*kernel, *fm, demands, sim);

  // (a) Average post-warmup regret within the Theorem 3.1 budget
  //     (5γ·Σd + 3k), with slack 1.5x for finite-size effects.
  const double budget =
      5.0 * param.gamma * static_cast<double>(demands.total()) +
      3.0 * param.k;
  EXPECT_LT(res.post_warmup_average(), 1.5 * budget)
      << "gamma=" << param.gamma << " k=" << param.k << " " << param.noise
      << " " << param.initial;

  // (b) Per-task post-warmup deficits inside the band in >= 95% of recorded
  //     rounds.
  const std::size_t skip = res.trace.size() / 2;
  std::int64_t in_band = 0;
  std::int64_t total = 0;
  const double band =
      5.0 * param.gamma * static_cast<double>(demand_per_task) + 3.0;
  for (std::size_t i = skip; i < res.trace.size(); ++i) {
    for (TaskId j = 0; j < param.k; ++j) {
      ++total;
      const auto d = static_cast<double>(res.trace.deficit_at(i, j));
      if (std::abs(d) <= 1.2 * band) ++in_band;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(in_band) / static_cast<double>(total), 0.95)
      << "gamma=" << param.gamma << " k=" << param.k << " " << param.noise
      << " " << param.initial;

  // (c) Decomposition identity.
  EXPECT_NEAR(res.total_regret,
              res.regret_plus + res.regret_near + res.regret_minus,
              1e-6 * res.total_regret + 1e-6);
}

std::string case_name(const ::testing::TestParamInfo<ConvergenceCase>& info) {
  std::string name = "g" + std::to_string(static_cast<int>(
                               info.param.gamma * 1000)) +
                     "_k" + std::to_string(info.param.k) + "_" +
                     info.param.noise + "_" + info.param.initial;
  for (auto& c : name) {
    if (c == '-' || c == '.') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    GammaSweep, AntConvergence,
    ::testing::Values(ConvergenceCase{0.02, 2, "sigmoid-1", "idle"},
                      ConvergenceCase{0.04, 2, "sigmoid-1", "idle"},
                      ConvergenceCase{0.08, 2, "sigmoid-1", "idle"}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    TaskCountSweep, AntConvergence,
    ::testing::Values(ConvergenceCase{0.05, 1, "sigmoid-1", "idle"},
                      ConvergenceCase{0.05, 4, "sigmoid-1", "idle"},
                      ConvergenceCase{0.05, 8, "sigmoid-1", "idle"}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    NoiseSweep, AntConvergence,
    ::testing::Values(ConvergenceCase{0.05, 2, "sigmoid-0.2", "idle"},
                      ConvergenceCase{0.05, 2, "adv-honest", "idle"},
                      ConvergenceCase{0.05, 2, "adv-anti", "idle"}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    SelfStabilization, AntConvergence,
    ::testing::Values(ConvergenceCase{0.05, 2, "sigmoid-1", "adversarial"},
                      ConvergenceCase{0.05, 2, "sigmoid-1", "uniform"},
                      ConvergenceCase{0.05, 2, "sigmoid-1", "random"},
                      ConvergenceCase{0.05, 4, "adv-honest", "adversarial"}),
    case_name);

}  // namespace
}  // namespace antalloc
