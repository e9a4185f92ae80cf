// E6 — Self-stabilization: Algorithm Ant recovers the 5γ·d band after
// arbitrary starting allocations and mid-run demand shocks (§1, Remark 3.4:
// "our algorithm trivially also works — due to its self-stabilizing nature —
// for changing demands").
//
// The standard scenario suite runs through the campaign API (one cell per
// scenario × Algorithm Ant); per scenario we report the steady-state regret,
// the number of out-of-band rounds, and the measured recovery time after the
// last shock (rounds until the deficit re-enters the band for good). The
// campaign writes one binary trace per cell; the strided deficit trace the
// recovery time needs is rebuilt by replaying it.
#include <unistd.h>

#include <filesystem>

#include "metrics/oscillation.h"
#include "common.h"
#include "io/trace_log.h"
#include "io/trace_reader.h"
#include "sim/campaign.h"
#include "sim/scenario.h"

using namespace antalloc;

namespace {

// Rounds (relative to the trace tail) after which every task's deficit stays
// inside the band until the end of the run.
Round recovery_round(const Trace& trace, const DemandSchedule& schedule,
                     double gamma) {
  if (trace.size() == 0) return 0;
  std::size_t last_bad = 0;
  bool any_bad = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& demands = schedule.demands_at(trace.round_at(i));
    for (TaskId j = 0; j < trace.num_tasks(); ++j) {
      const double band = 5.0 * gamma * static_cast<double>(demands[j]) + 3.0;
      if (std::abs(static_cast<double>(trace.deficit_at(i, j))) > band) {
        last_bad = i;
        any_bad = true;
      }
    }
  }
  return any_bad ? trace.round_at(last_bad) : 0;
}

// A per-process scratch directory, removed on every exit path (so
// concurrent runs never share one and a throw leaves nothing behind).
struct ScratchDir {
  std::filesystem::path path;
  ScratchDir()
      : path(std::filesystem::temp_directory_path() /
             ("bench_selfstab_shocks_traces." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

// Replays one trace through a recorder with the live run's band settings,
// keeping every 8th round's deficits.
SimResult replay_with_trace(const std::string& path) {
  TraceReader reader(path);
  MetricsRecorder::Options opts = reader.recorder_options();
  opts.trace_stride = 8;
  MetricsRecorder recorder(reader.info().num_tasks, reader.info().n_ants,
                           opts);
  RoundView view;
  std::vector<Count> last_loads;
  while (reader.next(view)) {
    recorder.record_round(view);
    last_loads.assign(view.loads.begin(), view.loads.end());
  }
  return recorder.finish(last_loads);
}

}  // namespace

// A function-try-block, so a throw unwinds main's locals (the trace
// directory among them) before the process exits.
int main(int argc, char** argv) try {
  Args args(argc, argv);
  const Count demand = args.get_int("demand", 20'000);
  const std::int32_t k = static_cast<std::int32_t>(args.get_int("k", 4));
  const double lambda = args.get_double("lambda", 0.035);
  const double gamma = args.get_double("gamma", 0.05);
  const auto rounds = args.get_int("rounds", 24'000);
  args.check_unknown();

  const DemandVector base = uniform_demands(k, demand);
  const Count n = 4 * base.total();
  bench::print_header(
      "E6 / self-stabilization: recovery from hostile starts and demand "
      "shocks",
      "after every shock the deficits re-enter the 5*gamma*d band");
  bench::print_gamma_star(lambda, base, n);

  bench::BenchContext ctx("bench_selfstab_shocks",
                          {"scenario", "avg_regret(post)", "band_budget",
                           "violations", "last_violation_round",
                           "final_regret"});

  CampaignConfig campaign;
  campaign.scenarios = standard_scenarios(base, rounds);
  campaign.algos = {AlgoConfig{.name = "ant", .gamma = gamma}};
  campaign.noises = {
      {"sigmoid", [&] { return std::make_unique<SigmoidFeedback>(lambda); }}};
  campaign.engine = Engine::kAggregate;
  campaign.n_ants = n;
  campaign.rounds = rounds;
  campaign.seed = 23;
  campaign.replicates = 1;
  campaign.metrics.gamma = gamma;
  campaign.metrics.warmup = rounds * 3 / 4;  // after the last shock settles
  const ScratchDir traces;
  campaign.trace_dir = traces.path.string();

  const CampaignResult result = run_campaign(campaign);

  // Cells are scenario-major; with one algo and one noise spec the stride
  // is cells_per_scenario == 1, but derive it so axis growth stays correct.
  const std::size_t cells_per_scenario =
      campaign.algos.size() * campaign.noises.size();
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CampaignCell& cell = result.cells[i];
    const Scenario& scenario = campaign.scenarios[i / cells_per_scenario];
    const SimResult res = replay_with_trace(
        (traces.path / trace_file_name(cell.flat_index, 0)).string());

    const auto& final_demands = scenario.schedule.demands_at(rounds);
    double final_regret = 0.0;
    for (TaskId j = 0; j < k; ++j) {
      final_regret += std::abs(static_cast<double>(
          final_demands[j] - res.final_loads[static_cast<std::size_t>(j)]));
    }
    const double budget =
        5.0 * gamma * static_cast<double>(final_demands.total()) + 3.0 * k;
    const Round recovered =
        recovery_round(res.trace, scenario.schedule, gamma);
    ctx.table.add_row({cell.scenario, Table::fmt(res.post_warmup_average(), 5),
                       Table::fmt(budget, 5),
                       Table::fmt(res.violation_rounds),
                       Table::fmt(recovered), Table::fmt(final_regret, 5)});
    // Shape: recovered within a bounded window after the last shock, and
    // inside the band on average.
    const Round deadline = scenario.schedule.last_change() + 3000;
    if (recovered > deadline || res.post_warmup_average() > budget) {
      ctx.exit_code = 1;
    }
  }
  return ctx.finish();
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_selfstab_shocks: %s\n", e.what());
  return 1;
}
