// E11 — Appendix D.1: the trivial algorithm in the SEQUENTIAL model attains
// Θ(γ*·Σd) average regret — perfectly serviceable.
//
// Sweep the sigmoid steepness λ (which sets γ*): the measured steady-state
// regret must track γ*·Σd within a constant factor, confirming the
// appendix's claim that the sequential regret is intrinsic, matching the
// optimal synchronous regret up to constants.
#include "algo/trivial.h"
#include "common.h"

using namespace antalloc;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const Count demand = args.get_int("demand", 1000);
  const std::int32_t k = static_cast<std::int32_t>(args.get_int("k", 2));
  const auto rounds = args.get_int("rounds", 400'000);
  const auto replicates = args.get_int("replicates", 4);
  args.check_unknown();

  const DemandVector demands = uniform_demands(k, demand);
  const Count n = 4 * demands.total();

  bench::print_header(
      "E11 / Appendix D.1: trivial algorithm, sequential model",
      "avg regret = Theta(gamma* * sum d) across gray-zone widths");

  bench::BenchContext ctx("bench_appD_trivial_sequential",
                          {"lambda", "gamma*", "g*_sumd", "avg_regret", "ci95",
                           "ratio"});

  for (const double lambda : {0.2, 0.1, 0.05, 0.035}) {
    const double gstar = bench::practical_gamma_star(lambda, demands);
    if (gstar >= 0.5) continue;  // grey zone would swallow the demand

    // The sequential model is simulated by run_trivial_sequential, not an
    // engine, so the replicates run straight on the executor with
    // hash(19, i) seeds.
    std::vector<double> values(static_cast<std::size_t>(replicates));
    parallel_for(global_pool(), 0, replicates, [&](std::int64_t i) {
      SigmoidFeedback fm(lambda);
      // Start at the demands so the measurement is steady-state.
      std::vector<Count> loads(demands.values().begin(),
                               demands.values().end());
      const Allocation init(n, loads);
      const auto res = run_trivial_sequential(
          n, demands, rounds, fm, init, {.gamma = gstar, .warmup = rounds / 2},
          rng::hash_combine(19, static_cast<std::uint64_t>(i)));
      values[static_cast<std::size_t>(i)] = res.post_warmup_average();
    });
    const RunningStats regret = summarize(values);
    const double scale = gstar * static_cast<double>(demands.total());
    ctx.table.add_row({Table::fmt(lambda, 3), Table::fmt(gstar, 4),
                       Table::fmt(scale, 5), Table::fmt(regret.mean(), 5),
                       Table::fmt(regret.ci_halfwidth(), 3),
                       Table::fmt(regret.mean() / scale, 3)});
    // Theta(.): the ratio must stay within a fixed constant band.
    const double ratio = regret.mean() / scale;
    if (ratio < 0.005 || ratio > 5.0) ctx.exit_code = 1;
  }
  return ctx.finish();
}
