#include "campaign_util.h"

#include <bit>

#include "metrics/metric.h"
#include "rng/splitmix.h"
#include "sim/experiment.h"
#include "tracer.h"

namespace antbench {

using namespace antalloc;

bool stats_identical(const RunningStats& x, const RunningStats& y) {
  const RunningStats::State a = x.state();
  const RunningStats::State b = y.state();
  const auto same = [](double u, double v) {
    return std::bit_cast<std::uint64_t>(u) == std::bit_cast<std::uint64_t>(v);
  };
  return a.count == b.count && same(a.mean, b.mean) && same(a.m2, b.m2) &&
         same(a.min, b.min) && same(a.max, b.max);
}

namespace {

struct CellPlan {
  const Scenario* scenario = nullptr;
  const NoiseSpec* noise = nullptr;
  ExperimentConfig ecfg;
};

// The per-cell experiment run_campaign plans for matrix cell `cell`.
CellPlan plan_cell(const CampaignConfig& cfg, const CampaignCell& cell) {
  const std::size_t na = cfg.algos.size();
  const std::size_t nn = cfg.noises.size();
  const std::size_t si = cell.flat_index / (na * nn);
  const std::size_t ai = (cell.flat_index / nn) % na;
  const std::size_t ni = cell.flat_index % nn;
  CellPlan plan;
  plan.scenario = &cfg.scenarios[si];
  plan.noise = &cfg.noises[ni];
  ExperimentConfig& e = plan.ecfg;
  e.algo = cfg.algos[ai];
  e.engine = cell.engine;
  e.n_ants = cfg.n_ants;
  e.rounds = cfg.rounds;
  e.seed = rng::hash_words(cfg.seed, si, ai, cfg.pair_noise_seeds ? 0 : ni);
  e.initial = plan.scenario->initial;
  e.initial_loads = plan.scenario->initial_loads;
  e.metrics = cfg.metrics;
  e.metrics.names = resolve_metric_names(cfg.metrics.names);
  e.sampling = cfg.sampling;
  if (e.metrics.warmup == 0) e.metrics.warmup = cfg.rounds / 2;
  return plan;
}

}  // namespace

double tail_seconds(const FoldClock& clock, double wall_s,
                    std::size_t threads) {
  const std::size_t n = clock.fold_s.size();
  if (n <= threads) return wall_s;
  return wall_s - clock.fold_s[n - threads - 1];
}

bool cells_identical(const CampaignCell& a, const CampaignCell& b) {
  if (a.flat_index != b.flat_index || a.scenario != b.scenario ||
      a.algo != b.algo || a.noise != b.noise || a.engine != b.engine ||
      a.metric_stats.size() != b.metric_stats.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.metric_stats.size(); ++i) {
    if (!stats_identical(a.metric_stats[i], b.metric_stats[i])) return false;
  }
  return true;
}

SerialCheck serial_check(const CampaignConfig& cfg, const CampaignResult& live,
                         std::size_t pos, const char* span_name) {
  const CampaignCell& cell = live.cells[pos];
  const CellPlan plan = plan_cell(cfg, cell);
  const std::vector<MetricScalar> columns = live.scalar_columns();
  std::vector<RunningStats> stats(columns.size());
  SerialCheck out;
  const auto start = Clock::now();
  for (std::int64_t trial = 0; trial < cfg.replicates; ++trial) {
    SimResult r;
    {
      Span span(span_name, cfg.rounds);
      r = run_replicate(plan.ecfg, plan.noise->make, plan.scenario->schedule,
                        trial);
    }
    for (std::size_t c = 0; c < columns.size(); ++c) {
      stats[c].add(r.metric(columns[c].name));
    }
    out.rounds += r.rounds;
    out.switches += r.switches;
  }
  out.seconds = seconds_since(start);
  out.identical = stats.size() == cell.metric_stats.size();
  for (std::size_t c = 0; out.identical && c < stats.size(); ++c) {
    out.identical = stats_identical(stats[c], cell.metric_stats[c]);
  }
  return out;
}

RecordedRun capture_replicate(const CampaignConfig& cfg,
                              const CampaignResult& live, std::size_t pos) {
  const CellPlan plan = plan_cell(cfg, live.cells[pos]);
  RecordedRun run;
  run.recorder = resolved_metrics(plan.ecfg);
  run_replicate(plan.ecfg, plan.noise->make, plan.scenario->schedule, 0,
                [&](std::int64_t, std::uint64_t) {
                  return std::make_unique<CaptureSink>(
                      &run, plan.scenario->schedule, cfg.n_ants);
                });
  return run;
}

}  // namespace antbench
