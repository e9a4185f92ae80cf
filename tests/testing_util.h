// Shared campaign-config builders for the test suite. campaign_test,
// campaign_schedule_test, campaign_metrics_test and the net-layer tests all
// need a small scenario×algo matrix; one parameterized builder here replaces
// the near-identical copies each file used to carry. The named wrappers
// (small_matrix / churn_matrix / metric_matrix) reproduce the historical
// per-file configs EXACTLY — same demands, rounds, seeds, replicates — so
// every number those tests pin is unchanged.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metric.h"
#include "noise/sigmoid.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "stats/summary.h"

namespace antalloc::test_util {

struct MatrixOptions {
  std::vector<std::string> families = {"constant", "single-shock"};
  std::vector<std::string> algos = {"ant", "trivial"};  // all at gamma 0.05
  std::vector<Count> demands = {120, 80};
  Round rounds = 400;
  Count n_ants = 800;
  std::uint64_t seed = 99;
  std::int64_t replicates = 3;
  double lambda = 1.0;  // sigmoid sharpness of the single noise entry
  std::vector<std::string> metrics = {};
};

// families × {ant, trivial} × one sigmoid noise, uniform starts.
inline CampaignConfig test_matrix(const MatrixOptions& o = {}) {
  const DemandVector base(o.demands);
  CampaignConfig cfg;
  for (const std::string& family : o.families) {
    ScenarioSpec spec;
    spec.name = family;
    spec.initial = InitialKind::kUniform;
    cfg.scenarios.push_back(make_scenario(spec, base, o.rounds));
  }
  for (const std::string& algo : o.algos) {
    cfg.algos.push_back(AlgoConfig{.name = algo, .gamma = 0.05});
  }
  const double lambda = o.lambda;
  cfg.noises = {{"sigmoid",
                 [lambda] { return std::make_unique<SigmoidFeedback>(lambda); }}};
  cfg.n_ants = o.n_ants;
  cfg.rounds = o.rounds;
  cfg.seed = o.seed;
  cfg.replicates = o.replicates;
  cfg.metrics.names = o.metrics;
  return cfg;
}

// campaign_test's 2×2: constant + single-shock, 400 rounds, 3 replicates.
inline CampaignConfig small_matrix() { return test_matrix(); }

// campaign_schedule_test's churn family matrix: uneven per-cell cost (the
// lifecycle scenarios re-plan at every change point) is exactly what work
// stealing reshuffles, so identical numbers mean scheduling is result-free.
inline CampaignConfig churn_matrix() {
  MatrixOptions o;
  o.families = {"task-churn", "constant"};
  o.demands = {Count{120}, Count{80}, Count{60}};
  o.rounds = 300;
  o.n_ants = 600;
  o.seed = 42;
  o.replicates = 4;
  return test_matrix(o);
}

// campaign_metrics_test's matrix with an explicit metric selection.
inline CampaignConfig metric_matrix(std::vector<std::string> metric_selection) {
  MatrixOptions o;
  o.demands = {Count{60}, Count{40}};
  o.rounds = 200;
  o.n_ants = 400;
  o.seed = 13;
  o.replicates = 2;
  o.metrics = std::move(metric_selection);
  return test_matrix(o);
}

// campaign_shard_test's 2×3×1 = 6 cells: even under 3 shards, ragged under
// 5 (6 % 5 = 1).
inline CampaignConfig shard_matrix() {
  MatrixOptions o;
  o.algos = {"ant", "trivial", "sharp-threshold"};
  o.demands = {Count{60}, Count{40}};
  o.rounds = 200;
  o.n_ants = 400;
  o.seed = 7;
  o.replicates = 2;
  return test_matrix(o);
}

// A fresh (pre-wiped) per-test scratch directory under the system temp root.
inline std::string make_temp_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("antalloc_test_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// Bit-level equality of two Welford accumulators — the "no number changed"
// assertion the campaign determinism and feed reassembly tests share.
inline void expect_stats_identical(const RunningStats& a,
                                   const RunningStats& b) {
  const auto sa = a.state();
  const auto sb = b.state();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.mean, sb.mean);
  EXPECT_EQ(sa.m2, sb.m2);
  EXPECT_EQ(sa.min, sb.min);
  EXPECT_EQ(sa.max, sb.max);
}

// The ExperimentConfig run_campaign runs for matrix coordinate (si, ai, ni),
// re-derived from the public API: cell seed hash(seed, si, ai, ni) (noise
// axis dropped under pair_noise_seeds), the resolved metric selection, the
// rounds/2 warm-up default and the engine resolved once per cell.
inline ExperimentConfig cell_experiment(const CampaignConfig& cfg,
                                        std::size_t si, std::size_t ai,
                                        std::size_t ni) {
  ExperimentConfig ecfg;
  ecfg.algo = cfg.algos[ai];
  ecfg.n_ants = cfg.n_ants;
  ecfg.rounds = cfg.rounds;
  ecfg.seed = rng::hash_words(cfg.seed, si, ai, cfg.pair_noise_seeds ? 0 : ni);
  ecfg.initial = cfg.scenarios[si].initial;
  ecfg.initial_loads = cfg.scenarios[si].initial_loads;
  ecfg.metrics = cfg.metrics;
  ecfg.metrics.names = resolve_metric_names(cfg.metrics.names);
  ecfg.sampling = cfg.sampling;
  if (ecfg.metrics.warmup == 0) ecfg.metrics.warmup = cfg.rounds / 2;
  const auto probe = cfg.noises[ni].make();
  ecfg.engine = resolve_engine(cfg.engine, ecfg.algo, *probe);
  return ecfg;
}

// One cell's replicates straight from run_replicate, in replicate order:
// the live per-replicate results a traced campaign must reproduce.
inline std::vector<SimResult> live_cell_results(const CampaignConfig& cfg,
                                                std::size_t flat) {
  const std::size_t noises = cfg.noises.size();
  const std::size_t si = flat / (cfg.algos.size() * noises);
  const std::size_t ai = flat / noises % cfg.algos.size();
  const std::size_t ni = flat % noises;
  const ExperimentConfig ecfg = cell_experiment(cfg, si, ai, ni);
  std::vector<SimResult> out;
  for (std::int64_t rep = 0; rep < cfg.replicates; ++rep) {
    out.push_back(run_replicate(ecfg, cfg.noises[ni].make,
                                cfg.scenarios[si].schedule, rep));
  }
  return out;
}

// Every data row of a shard directory's results files, split on commas and
// keyed by (cell, replicate). Each file's header must end in one
// "metric_<scalar>" column per entry of `specs`.
inline std::map<std::pair<std::size_t, std::size_t>, std::vector<std::string>>
read_results_rows(const std::string& dir,
                  const std::vector<MetricScalar>& specs) {
  std::string metric_columns;
  for (const MetricScalar& spec : specs) metric_columns += ",metric_" + spec.name;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::string>> rows;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".results.csv")) continue;
    std::ifstream in(entry.path());
    std::string line;
    std::getline(in, line);
    EXPECT_TRUE(line.ends_with(metric_columns)) << name << ": " << line;
    while (std::getline(in, line)) {
      std::vector<std::string> fields;
      std::istringstream row(line);
      for (std::string f; std::getline(row, f, ',');) fields.push_back(f);
      if (fields.size() < 2) {
        ADD_FAILURE() << name << ": short row " << line;
        continue;
      }
      rows[{std::stoull(fields[0]), std::stoull(fields[1])}] = fields;
    }
  }
  return rows;
}

// One results.csv row against the SimResult it must hold, column by
// column: the fixed fields, final_loads and every selected scalar. Doubles
// are written %.17g, so equality is exact (NaN matches NaN).
inline void expect_results_row(const std::vector<std::string>& fields,
                               const SimResult& live,
                               const std::vector<MetricScalar>& specs) {
  constexpr std::size_t kFixed = 13;
  ASSERT_EQ(fields.size(), kFixed + specs.size());
  const auto same = [](double parsed, double want) {
    return parsed == want || (std::isnan(parsed) && std::isnan(want));
  };
  EXPECT_EQ(std::stoll(fields[2]), live.rounds);
  EXPECT_EQ(std::stoll(fields[3]), live.n_ants);
  EXPECT_PRED2(same, std::stod(fields[4]), live.total_regret);
  EXPECT_PRED2(same, std::stod(fields[5]), live.regret_plus);
  EXPECT_PRED2(same, std::stod(fields[6]), live.regret_near);
  EXPECT_PRED2(same, std::stod(fields[7]), live.regret_minus);
  EXPECT_EQ(std::stoll(fields[8]), live.post_warmup_rounds);
  EXPECT_PRED2(same, std::stod(fields[9]), live.post_warmup_regret);
  EXPECT_EQ(std::stoll(fields[10]), live.violation_rounds);
  EXPECT_EQ(std::stoll(fields[11]), live.switches);
  std::vector<Count> loads;
  std::istringstream split(fields[12]);
  for (std::string w; std::getline(split, w, ';');) loads.push_back(std::stoll(w));
  EXPECT_EQ(loads, live.final_loads);
  for (std::size_t si = 0; si < specs.size(); ++si) {
    SCOPED_TRACE(specs[si].name);
    EXPECT_PRED2(same, std::stod(fields[kFixed + si]),
                 live.metric(specs[si].name));
  }
}

}  // namespace antalloc::test_util
