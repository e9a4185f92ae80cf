// Campaign runner: matrix shape, per-cell engine resolution, tidy output,
// and — the load-bearing property — bit-identical results no matter how many
// threads execute the matrix.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "noise/correlated.h"
#include "noise/sigmoid.h"
#include "parallel/task_graph.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

using test_util::make_temp_dir;
using test_util::small_matrix;

// Replicate mean of cell `i`'s "regret" scalar.
double mean_regret(const CampaignResult& result, std::size_t i) {
  return result.stat(result.cells[i], "regret").mean();
}

TEST(Campaign, MatrixShapeAndLabels) {
  auto cfg = small_matrix();
  cfg.trace_dir = make_temp_dir("campaign_shape");
  const auto result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 4u);  // 2 scenarios x 2 algos x 1 noise
  // Scenario-major, then algo, then noise.
  EXPECT_EQ(result.cells[0].scenario, cfg.scenarios[0].name);
  EXPECT_EQ(result.cells[0].algo, "ant");
  EXPECT_EQ(result.cells[1].algo, "trivial");
  EXPECT_EQ(result.cells[2].scenario, cfg.scenarios[1].name);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.noise, "sigmoid");
    EXPECT_EQ(cell.engine, Engine::kAggregate);  // auto + iid noise + kernels
    EXPECT_EQ(result.stat(cell, "regret").count(), 3);
    const std::vector<SimResult> replicates =
        replay_cell_results(cfg.trace_dir, cell.flat_index, cfg.replicates);
    ASSERT_EQ(replicates.size(), 3u);
    EXPECT_GT(replicates[0].total_regret, 0.0);
  }
  std::filesystem::remove_all(cfg.trace_dir);
  // find() addresses cells by label.
  EXPECT_NE(result.find("", "trivial"), nullptr);
  EXPECT_EQ(result.find("", "oracle"), nullptr);
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  auto cfg = small_matrix();
  TaskGraph serial(1);
  TaskGraph wide(4);

  cfg.pool = &serial;
  const auto a = run_campaign(cfg);
  cfg.pool = &wide;
  const auto b = run_campaign(cfg);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(mean_regret(a, i), mean_regret(b, i)) << i;
    EXPECT_DOUBLE_EQ(a.stat(a.cells[i], "violations").mean(),
                     b.stat(b.cells[i], "violations").mean())
        << i;
  }
  // And the rendered artifacts match byte for byte.
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(Campaign, CellsAreSeedSeparated) {
  // The SAME scenario, algo and noise at two different matrix coordinates:
  // any regression to coordinate-free seeding would make the two cells
  // byte-identical, so differing regrets pin per-cell seed separation.
  auto cfg = small_matrix();
  cfg.scenarios.erase(cfg.scenarios.begin() + 1);
  cfg.scenarios.push_back(cfg.scenarios.front());
  cfg.algos = {AlgoConfig{.name = "ant", .gamma = 0.05}};
  const auto result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].scenario, result.cells[1].scenario);
  EXPECT_NE(mean_regret(result, 0), mean_regret(result, 1));
}

TEST(Campaign, PairedNoiseSeedsShareTrialSeeds) {
  // With pair_noise_seeds, cells differing ONLY in noise reuse replicate
  // seeds (common random numbers): two copies of the same factory under
  // different noise labels must produce identical results.
  auto cfg = small_matrix();
  cfg.algos = {AlgoConfig{.name = "ant", .gamma = 0.05}};
  cfg.noises.push_back(
      {"sigmoid2", [] { return std::make_unique<SigmoidFeedback>(1.0); }});
  cfg.pair_noise_seeds = true;
  const auto result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 4u);  // 2 scenarios x 1 algo x 2 noises
  EXPECT_DOUBLE_EQ(mean_regret(result, 0), mean_regret(result, 1));
  cfg.pair_noise_seeds = false;
  const auto unpaired = run_campaign(cfg);
  EXPECT_NE(mean_regret(unpaired, 0), mean_regret(unpaired, 1));
}

TEST(Campaign, NoiseAxisAndEngineResolution) {
  auto cfg = small_matrix();
  cfg.algos = {AlgoConfig{.name = "ant", .gamma = 0.05}};
  cfg.noises.push_back(
      {"correlated", [] {
         return std::make_unique<CorrelatedFeedback>(
             std::make_shared<SigmoidFeedback>(1.0), 0.5);
       }});
  const auto result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 4u);  // 2 scenarios x 1 algo x 2 noises
  const auto* iid = result.find("", "", "sigmoid");
  const auto* corr = result.find("", "", "correlated");
  ASSERT_NE(iid, nullptr);
  ASSERT_NE(corr, nullptr);
  EXPECT_EQ(iid->engine, Engine::kAggregate);
  EXPECT_EQ(corr->engine, Engine::kAgent);  // non-iid noise forces per-ant
}

TEST(Campaign, StatLooksUpScalarsByName) {
  const auto result = run_campaign(small_matrix());
  const CampaignCell& cell = result.cells[0];
  // Default selection: regret, violations, switches_per_ant_round.
  EXPECT_EQ(&result.stat(cell, "regret"), &cell.metric_stats[0]);
  EXPECT_EQ(&result.stat(cell, "violations"), &cell.metric_stats[1]);
  EXPECT_EQ(&result.stat(cell, "switches_per_ant_round"),
            &cell.metric_stats[2]);
  try {
    result.stat(cell, "convergence_round");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message names what IS available.
    const std::string message = e.what();
    EXPECT_NE(message.find("convergence_round"), std::string::npos);
    EXPECT_NE(message.find("switches_per_ant_round"), std::string::npos);
  }
}

TEST(Campaign, TableIsTidy) {
  auto cfg = small_matrix();
  const auto result = run_campaign(cfg);
  const Table table = result.table();
  EXPECT_EQ(table.num_rows(), result.cells.size());
  const std::string csv = result.to_csv();
  EXPECT_NE(csv.find("scenario,algo,noise,engine"), std::string::npos);
  EXPECT_NE(csv.find("single-shock"), std::string::npos);
}

TEST(Campaign, EmptyAxesThrow) {
  auto cfg = small_matrix();
  cfg.scenarios.clear();
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
  cfg = small_matrix();
  cfg.algos.clear();
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
  cfg = small_matrix();
  cfg.noises.clear();
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
  cfg = small_matrix();
  cfg.replicates = 0;
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
}

TEST(Campaign, TraceStrideIsRefused) {
  // Cells keep only statistics; a strided trace comes from trace replay.
  auto cfg = small_matrix();
  cfg.metrics.trace_stride = 8;
  try {
    run_campaign(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trace_stride"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace antalloc
