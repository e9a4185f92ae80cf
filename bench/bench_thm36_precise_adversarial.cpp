// E10 — Theorem 3.6: Algorithm Precise Adversarial achieves average regret
// (1+ε)·γ·Σd + O(1) in the adversarial model, with far fewer task switches
// than Algorithm Ant.
//
// Sweep ε under the honest-threshold adversary (warm start just above the
// demand; see DESIGN.md §5), then compare per-round switch counts against
// Algorithm Ant under the same adversary using the agent engine (exact
// switch accounting).
#include "algo/precise_adversarial.h"
#include "noise/adversarial.h"
#include "common.h"

using namespace antalloc;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const Count demand = args.get_int("demand", 20'000);
  const double gamma_ad = args.get_double("gamma_ad", 0.02);
  const double gamma = args.get_double("gamma", 0.05);
  const auto phases = args.get_int("phases", 60);
  const auto replicates = args.get_int("replicates", 4);
  args.check_unknown();

  const DemandVector demands({demand});
  const Count n = 4 * demand;

  bench::print_header(
      "E10 / Theorem 3.6: Precise Adversarial ~ (1+eps)*gamma*sum(d); fewer "
      "switches than Ant",
      "sweep eps under the honest grey-zone adversary");

  bench::BenchContext ctx("bench_thm36_precise_adversarial",
                          {"eps", "phase_len", "avg_regret", "ci95",
                           "(1+eps)*g*sumd", "ratio", "switches/ant/round"});

  const auto warm = static_cast<Count>(
      static_cast<double>(demand) * (1.0 + gamma));

  for (const double eps : {0.5, 0.25, 0.125}) {
    PreciseAdversarialParams params{.gamma = gamma, .epsilon = eps};
    const Round rounds = phases * params.phase_length();
    ExperimentConfig cfg;
    cfg.algo = {.name = "precise-adversarial", .gamma = gamma, .epsilon = eps};
    cfg.n_ants = n;
    cfg.rounds = rounds;
    cfg.seed = 7;
    cfg.initial_loads = {warm};
    cfg.metrics = {.gamma = gamma, .warmup = rounds / 2};
    const auto results = run_replicated_experiment(
        cfg,
        [&] {
          return std::make_unique<AdversarialFeedback>(gamma_ad,
                                                       make_honest_adversary());
        },
        DemandSchedule(demands), replicates);
    RunningStats regret;
    RunningStats switches;
    for (const auto& r : results) {
      regret.add(r.post_warmup_average());
      switches.add(static_cast<double>(r.switches) /
                   static_cast<double>(r.rounds) / static_cast<double>(n));
    }
    const double target =
        (1.0 + eps) * gamma * static_cast<double>(demands.total());
    ctx.table.add_row({Table::fmt(eps, 4), Table::fmt(params.phase_length()),
                       Table::fmt(regret.mean(), 5),
                       Table::fmt(regret.ci_halfwidth(), 3),
                       Table::fmt(target, 5),
                       Table::fmt(regret.mean() / target, 3),
                       Table::fmt(switches.mean(), 4)});
    if (regret.mean() > target) ctx.exit_code = 1;
  }

  // Switch-count comparison vs Ant (agent engine: exact accounting).
  std::printf("\nSwitch comparison under the same adversary (agent engine, "
              "smaller colony):\n");
  {
    const Count small_d = 2000;
    const DemandVector sd({small_d});
    const Count sn = 4 * small_d;
    const auto warm_small = static_cast<Count>(
        static_cast<double>(small_d) * (1.0 + gamma));
    auto switches_of = [&](const AlgoConfig& algo, Round rounds) {
      auto a = make_agent_algorithm(algo);
      AdversarialFeedback fm(gamma_ad, make_honest_adversary());
      AgentSimConfig sim{.n_ants = sn,
                         .rounds = rounds,
                         .seed = 3,
                         .metrics = {.gamma = gamma},
                         .initial_loads = {warm_small}};
      const auto r = run_agent_sim(*a, fm, sd, sim);
      return static_cast<double>(r.switches) / static_cast<double>(r.rounds) /
             static_cast<double>(sn);
    };
    const double ant_sw =
        switches_of({.name = "ant", .gamma = gamma}, 4000);
    PreciseAdversarialParams pa{.gamma = gamma, .epsilon = 0.5};
    const double pa_sw = switches_of(
        {.name = "precise-adversarial", .gamma = gamma, .epsilon = 0.5},
        20 * pa.phase_length());
    std::printf("ant: %.5f switches/ant/round   precise-adversarial: %.5f   "
                "(ratio %.2f)\n",
                ant_sw, pa_sw, ant_sw / pa_sw);
    if (pa_sw >= ant_sw) ctx.exit_code = 1;
  }
  return ctx.finish();
}
