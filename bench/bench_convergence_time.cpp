// E16 — Convergence time (the [Cornejo et al. DISC'14] lens on the same
// system): how many rounds until every deficit first enters the Theorem 3.1
// band, as a function of the learning rate γ and the colony size n?
//
// Theory predicts the transient is dominated by draining the one-time join
// flood at rate ~γ/(2·cd) per phase: time-to-band ~ (2·cd/γ)·ln(n/Σd),
// i.e. ∝ 1/γ at fixed shape and only logarithmic in n. Both shapes are
// checked. Built on the convergence metrics.
#include <cmath>

#include "metrics/convergence.h"
#include "common.h"

using namespace antalloc;

namespace {

double time_to_band(double gamma, Count n, Count demand, double lambda,
                    std::uint64_t seed) {
  const DemandVector demands({demand, demand});
  AlgoConfig algo{.name = "ant", .gamma = gamma};
  auto kernel = make_aggregate_kernel(algo);
  SigmoidFeedback fm(lambda);
  const Round rounds = 60'000;
  AggregateSimConfig cfg{
      .n_ants = n,
      .rounds = rounds,
      .seed = seed,
      .metrics = {.gamma = gamma, .trace_stride = 4}};
  const auto res = run_aggregate_sim(*kernel, fm, demands, cfg);
  const auto stats = measure_convergence(res.trace, demands, gamma);
  return stats.converged() ? static_cast<double>(stats.first_in_band)
                           : static_cast<double>(rounds);
}

// time_to_band over `replicates` seeds hash(base_seed, i), in parallel.
RunningStats replicated_time_to_band(double gamma, Count n, Count demand,
                                     double lambda, std::int64_t replicates,
                                     std::uint64_t base_seed) {
  std::vector<double> values(static_cast<std::size_t>(replicates));
  parallel_for(global_pool(), 0, replicates, [&](std::int64_t i) {
    values[static_cast<std::size_t>(i)] = time_to_band(
        gamma, n, demand, lambda,
        rng::hash_combine(base_seed, static_cast<std::uint64_t>(i)));
  });
  return summarize(values);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const Count demand = args.get_int("demand", 20'000);
  const double lambda = args.get_double("lambda", 0.035);
  const auto replicates = args.get_int("replicates", 4);
  args.check_unknown();

  bench::print_header(
      "E16 / convergence time (DISC'14 lens): rounds to first enter the "
      "5*gamma*d band",
      "time ~ (2cd/gamma)*ln(overload ratio): ~1/gamma in gamma, ~log in n");

  bench::BenchContext ctx("bench_convergence_time",
                          {"sweep", "gamma", "n", "rounds_to_band", "ci95",
                           "gamma*time (should be ~const)"});

  // Sweep gamma at fixed n.
  const Count n_fixed = 8 * demand;
  double first_product = 0.0;
  for (const double gamma : {0.025, 0.05, 0.0625}) {
    const RunningStats s = replicated_time_to_band(gamma, n_fixed, demand,
                                                   lambda, replicates, 5);
    const double product = gamma * s.mean();
    if (first_product == 0.0) first_product = product;
    ctx.table.add_row({"gamma", Table::fmt(gamma, 4), Table::fmt(n_fixed),
                       Table::fmt(s.mean(), 5),
                       Table::fmt(s.ci_halfwidth(), 3),
                       Table::fmt(product, 4)});
    // ~1/gamma scaling: the product should stay within 3x of the first.
    if (product > 3.0 * first_product || product < first_product / 3.0) {
      ctx.exit_code = 1;
    }
  }

  // Sweep n at fixed gamma: only the flood size (and hence a log factor)
  // changes.
  const double gamma_fixed = 0.05;
  double smallest = 0.0;
  double largest = 0.0;
  for (const Count mult : {4, 16, 64}) {
    const Count n = mult * 2 * demand;
    const RunningStats s = replicated_time_to_band(gamma_fixed, n, demand,
                                                   lambda, replicates, 9);
    if (smallest == 0.0) smallest = s.mean();
    largest = s.mean();
    ctx.table.add_row({"n", Table::fmt(gamma_fixed, 4), Table::fmt(n),
                       Table::fmt(s.mean(), 5),
                       Table::fmt(s.ci_halfwidth(), 3),
                       Table::fmt(gamma_fixed * s.mean(), 4)});
  }
  // 16x more ants must cost far less than 16x the time (log, not linear).
  if (largest > 6.0 * smallest) ctx.exit_code = 1;
  return ctx.finish();
}
