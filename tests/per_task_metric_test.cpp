// The parameterized per-task metric families ("oscillation-per-task@K",
// "convergence-per-task@K"): each task's statistics emitted as separate
// "<scalar>.task<i>" columns. The load-bearing claims pinned here:
//  - the per-task columns are EXACT decompositions — the aggregate
//    oscillation scalars are bit-reconstructable from them by the same
//    task-order arithmetic, and the joint convergence last_violation is the
//    max of the per-task ones;
//  - K lives in the name, so column layout, config hash, and shard round
//    trips all derive from the selection string alone;
//  - the factory refuses a colony whose task count is not K, and malformed
//    K spellings are unknown metrics, not silent surprises.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/campaign_io.h"
#include "metrics/metric.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

using test_util::make_temp_dir;
using test_util::metric_matrix;

// Every replicate of every cell, replayed from the campaign's traces.
std::vector<SimResult> all_replicates(CampaignConfig cfg,
                                      const std::string& tag) {
  cfg.trace_dir = make_temp_dir(tag);
  const CampaignResult result = run_campaign(cfg);
  std::vector<SimResult> out;
  for (const CampaignCell& cell : result.cells) {
    for (SimResult& r : replay_cell_results(cfg.trace_dir, cell.flat_index,
                                            cfg.replicates, result.metrics)) {
      out.push_back(std::move(r));
    }
  }
  std::filesystem::remove_all(cfg.trace_dir);
  return out;
}

// One replicate's named scalar, asserting it exists.
double scalar(const SimResult& r, const std::string& name) {
  for (std::size_t i = 0; i < r.metric_names.size(); ++i) {
    if (r.metric_names[i] == name) return r.metric_values[i];
  }
  ADD_FAILURE() << "scalar '" << name << "' missing from replicate";
  return 0.0;
}

TEST(PerTaskMetrics, OscillationAggregatesReconstructBitExact) {
  // Both the aggregate and the fan-out run side by side on the same rounds:
  // the aggregate must equal the task-order recombination of the columns,
  // double-for-double.
  const std::vector<SimResult> replicates = all_replicates(
      metric_matrix({"oscillation", "oscillation-per-task@2"}), "per_task_osc");
  ASSERT_FALSE(replicates.empty());

  for (const SimResult& r : replicates) {
    const double rate0 = scalar(r, "osc_crossing_rate.task0");
    const double rate1 = scalar(r, "osc_crossing_rate.task1");
    EXPECT_EQ(scalar(r, "osc_crossing_rate"), (rate0 + rate1) / 2.0);

    const double mean0 = scalar(r, "osc_mean_abs_deficit.task0");
    const double mean1 = scalar(r, "osc_mean_abs_deficit.task1");
    EXPECT_EQ(scalar(r, "osc_mean_abs_deficit"), (mean0 + mean1) / 2.0);

    // The aggregate max is a running max over tasks in order, seeded at 0.
    const double max0 = scalar(r, "osc_max_abs_deficit.task0");
    const double max1 = scalar(r, "osc_max_abs_deficit.task1");
    EXPECT_EQ(scalar(r, "osc_max_abs_deficit"),
              std::max({0.0, max0, max1}));
  }
}

TEST(PerTaskMetrics, JointLastViolationIsTheTaskMax) {
  // A joint band violation IS some task's violation, so the joint
  // accumulator's last_violation equals the max over the per-task ones.
  const std::vector<SimResult> replicates = all_replicates(
      metric_matrix({"convergence", "convergence-per-task@2"}),
      "per_task_conv");
  ASSERT_FALSE(replicates.empty());

  for (const SimResult& r : replicates) {
    EXPECT_EQ(scalar(r, "last_violation"),
              std::max(scalar(r, "last_violation.task0"),
                       scalar(r, "last_violation.task1")));
    // Joint entry needs EVERY task in band at once, so it cannot precede
    // any single task's own entry (-1 = never entered).
    const double joint = scalar(r, "convergence_round");
    const double t0 = scalar(r, "convergence_round.task0");
    const double t1 = scalar(r, "convergence_round.task1");
    if (joint >= 0.0) {
      ASSERT_GE(t0, 0.0);
      ASSERT_GE(t1, 0.0);
      EXPECT_GE(joint, std::max(t0, t1));
    }
  }
}

TEST(PerTaskMetrics, ColumnLayoutDerivesFromTheName) {
  const auto osc = metric_scalars("oscillation-per-task@2");
  ASSERT_EQ(osc.size(), 6u);
  EXPECT_EQ(osc[0].name, "osc_crossing_rate.task0");
  EXPECT_EQ(osc[0].column, "osc_crossing_rate.task0_mean");
  EXPECT_EQ(osc[3].name, "osc_crossing_rate.task1");
  EXPECT_EQ(osc[5].name, "osc_mean_abs_deficit.task1");

  const auto conv = metric_scalars("convergence-per-task@3");
  ASSERT_EQ(conv.size(), 9u);
  EXPECT_EQ(conv[0].name, "convergence_round.task0");
  EXPECT_EQ(conv[8].name, "band_occupancy.task2");

  // The campaign CSV header carries the fan-out columns.
  auto cfg = metric_matrix({"regret", "oscillation-per-task@2"});
  const CampaignResult result = run_campaign(cfg);
  const std::string csv = result.to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header,
            "scenario,algo,noise,engine,replicates,regret_mean,regret_ci95,"
            "osc_crossing_rate.task0_mean,osc_max_abs_deficit.task0_mean,"
            "osc_mean_abs_deficit.task0_mean,osc_crossing_rate.task1_mean,"
            "osc_max_abs_deficit.task1_mean,osc_mean_abs_deficit.task1_mean");

  // The selection is part of the campaign identity: per-task != aggregate.
  EXPECT_NE(campaign_config_hash(metric_matrix({"oscillation-per-task@2"})),
            campaign_config_hash(metric_matrix({"oscillation"})));
}

TEST(PerTaskMetrics, FactoryRejectsWrongColonySize) {
  MetricContext two_tasks;
  two_tasks.num_tasks = 2;
  two_tasks.n_ants = 100;
  EXPECT_THROW(make_metric("oscillation-per-task@3", two_tasks),
               std::invalid_argument);
  EXPECT_THROW(make_metric("convergence-per-task@1", two_tasks),
               std::invalid_argument);
  EXPECT_NO_THROW(make_metric("oscillation-per-task@2", two_tasks));

  // Through the whole stack: a 2-task matrix cannot run a @5 selection.
  auto cfg = metric_matrix({"oscillation-per-task@5"});
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
}

TEST(PerTaskMetrics, MalformedSpellingsAreUnknownMetrics) {
  EXPECT_TRUE(has_metric("oscillation-per-task@2"));
  EXPECT_TRUE(has_metric("convergence-per-task@12"));
  EXPECT_FALSE(has_metric("oscillation-per-task@0"));
  EXPECT_FALSE(has_metric("oscillation-per-task@"));
  EXPECT_FALSE(has_metric("oscillation-per-task@3x"));
  EXPECT_FALSE(has_metric("oscillation-per-task@99999"));
  EXPECT_FALSE(has_metric("regret-per-task@2"));
  EXPECT_THROW(metric_scalars("oscillation-per-task@0"),
               std::invalid_argument);
  EXPECT_THROW(resolve_metric_names({"convergence-per-task@2x"}),
               std::invalid_argument);
  EXPECT_THROW(resolve_metric_names(
                   {"oscillation-per-task@2", "oscillation-per-task@2"}),
               std::invalid_argument);
  // The fixed registry does not list the parameterized families.
  for (const std::string& name : metric_names()) {
    EXPECT_EQ(name.find("per-task"), std::string::npos) << name;
  }
}

TEST(PerTaskMetrics, ShardRoundTripBitIdentical) {
  const std::string dir = make_temp_dir("per_task_shard");
  auto cfg = metric_matrix(
      {"regret", "oscillation-per-task@2", "convergence-per-task@2"});
  const CampaignResult full = run_campaign(cfg);

  for (std::size_t i = 0; i < 2; ++i) {
    cfg.shard = {i, 2};
    write_campaign_shard(dir, cfg, run_campaign(cfg));
  }
  const MergedCampaign merged = merge_campaign_dir(dir);
  cfg.shard = {};
  EXPECT_EQ(merged.config_hash, campaign_config_hash(cfg));
  EXPECT_EQ(merged.result.to_csv(), full.to_csv());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace antalloc
