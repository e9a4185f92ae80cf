// E7 — Theorem 3.2: Algorithm Precise Sigmoid reaches average regret
// ε·γ·Σd + O(1) using phases of length O(1/ε) and medians of O(1/ε) samples.
//
// Sweep ε from 1/2 down to 1/16 at fixed γ, warm-started at the operating
// point (the theorem is a t→∞ statement; cold-start drains take
// Θ(cχ·cd/(εγ)) phases — see DESIGN.md §5). The shape: measured regret falls
// ~linearly with ε and sits well below plain Ant's 5γΣd band, while the
// phase length grows as 1/ε.
#include "algo/precise_sigmoid.h"
#include "common.h"

using namespace antalloc;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const Count demand = args.get_int("demand", 40'000);
  const double lambda = args.get_double("lambda", 0.05);
  const double gamma = args.get_double("gamma", 0.2);
  const auto phases = args.get_int("phases", 200);
  const auto replicates = args.get_int("replicates", 6);
  args.check_unknown();

  const DemandVector demands({demand});
  const Count n = 4 * demand;
  bench::print_header(
      "E7 / Theorem 3.2: Precise Sigmoid regret ~ eps*gamma*sum(d)",
      "sweep eps; regret linear in eps; phase length O(1/eps)");
  bench::print_gamma_star(lambda, demands, n);

  // Plain Ant at the same gamma for reference.
  double ant_regret = 0.0;
  {
    ExperimentConfig cfg;
    cfg.algo.name = "ant";
    cfg.algo.gamma = 1.0 / 16.0;  // Ant's cap
    cfg.n_ants = n;
    cfg.rounds = 20'000;
    cfg.seed = 3;
    cfg.metrics.gamma = cfg.algo.gamma;
    cfg.metrics.warmup = 10'000;
    const auto results = run_replicated_experiment(
        cfg, [&] { return std::make_unique<SigmoidFeedback>(lambda); },
        DemandSchedule(demands), replicates);
    RunningStats s;
    for (const auto& r : results) s.add(r.post_warmup_average());
    ant_regret = s.mean();
  }
  std::printf("reference: plain Ant (gamma=1/16) avg regret = %.1f\n\n",
              ant_regret);

  bench::BenchContext ctx("bench_thm32_precise_sigmoid",
                          {"eps", "phase_len", "window_m", "avg_regret",
                           "ci95", "eps_g_sumd", "ratio", "vs_ant"});

  double prev = 0.0;
  int row = 0;
  for (const double eps : {0.5, 0.25, 0.125, 0.0625}) {
    PreciseSigmoidParams params{.gamma = gamma, .epsilon = eps};
    const double step = eps * gamma / params.cchi;
    const auto w_star = static_cast<Count>(
        static_cast<double>(demand) * (1.0 + 2.0 * step));

    ExperimentConfig cfg;
    cfg.algo.name = "precise-sigmoid";
    cfg.algo.gamma = gamma;
    cfg.algo.epsilon = eps;
    cfg.n_ants = n;
    cfg.rounds = phases * params.phase_length();
    cfg.seed = 5 + row;
    cfg.metrics.gamma = gamma;
    cfg.metrics.warmup = cfg.rounds / 2;
    // Warm start at the operating point (can't express via `initial` kinds).
    cfg.initial_loads = {w_star};
    const auto results = run_replicated_experiment(
        cfg, [&] { return std::make_unique<SigmoidFeedback>(lambda); },
        DemandSchedule(demands), replicates);
    RunningStats regret;
    for (const auto& r : results) regret.add(r.post_warmup_average());

    const double target = eps * gamma * static_cast<double>(demands.total());
    ctx.table.add_row(
        {Table::fmt(eps, 4), Table::fmt(params.phase_length()),
         Table::fmt(static_cast<std::int64_t>(params.window())),
         Table::fmt(regret.mean(), 5), Table::fmt(regret.ci_halfwidth(), 3),
         Table::fmt(target, 5), Table::fmt(regret.mean() / target, 3),
         Table::fmt(regret.mean() / ant_regret, 4)});
    // Shape: under the eps target (constant factor) and decreasing in eps.
    if (regret.mean() > target) ctx.exit_code = 1;
    if (row > 0 && regret.mean() > prev) ctx.exit_code = 1;
    prev = regret.mean();
    ++row;
  }
  return ctx.finish();
}
