// E8 — Theorem 3.3: the memory/closeness tradeoff and forced oscillations.
//
// Part 1: sweep the per-ant bit budget b. A b-bit ant can run a median
// window of at most 2^(b-2)-1 samples, i.e. ε(b) = Θ(2^-b); the achieved
// average regret should track ε(b)·γ·Σd until the budget is too small for
// any median, where it saturates at the constant-memory (Algorithm Ant)
// level — the floor the lower bound predicts (achieving ε-closeness requires
// Ω(log 1/ε) bits).
//
// Part 2: the oscillation claim — if the deficit is held within the grey
// zone (start at exactly d, where feedback is a fair coin), a large
// oscillation of order >> γ*d must appear. We start Precise Sigmoid at the
// demand and measure the resulting |deficit| blow-up.
#include "agent/memory_fsm.h"
#include "algo/precise_sigmoid.h"
#include "metrics/oscillation.h"
#include "common.h"

using namespace antalloc;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const Count demand = args.get_int("demand", 40'000);
  const double lambda = args.get_double("lambda", 0.05);
  const double gamma = args.get_double("gamma", 0.2);
  const auto replicates = args.get_int("replicates", 4);
  args.check_unknown();

  const DemandVector demands({demand});
  const Count n = 4 * demand;
  const double gstar = bench::practical_gamma_star(lambda, demands);

  bench::print_header(
      "E8 / Theorem 3.3: memory bits vs closeness; forced oscillations",
      "regret floor ~ 2^-Theta(bits) until the constant-memory saturation");
  bench::print_gamma_star(lambda, demands, n);

  bench::BenchContext ctx("bench_thm33_memory_lower_bound",
                          {"bits", "algorithm", "eps(b)", "avg_regret",
                           "ci95", "regret/(g*sumd)"});

  for (const int bits : {3, 5, 8, 10, 12}) {
    const MemoryBudget budget{bits};
    const double eps = budget.epsilon_for();
    auto probe = make_memory_limited_kernel(budget, gamma);
    const bool is_ant = probe->name() == std::string_view("ant");

    Round rounds;
    std::vector<Count> init;
    if (is_ant) {
      rounds = 20'000;
      init = {Count{0}};
    } else {
      const PreciseSigmoidParams params{.gamma = gamma, .epsilon = eps};
      rounds = 150 * params.phase_length();
      const double step = eps * gamma / params.cchi;
      init = {static_cast<Count>(static_cast<double>(demand) *
                                 (1.0 + 2.0 * step))};
    }

    // The memory-limited kernel is not a registry algorithm, so the
    // replicates run straight on the executor with the standard
    // hash(base, index) seeds.
    std::vector<double> values(static_cast<std::size_t>(replicates));
    parallel_for(global_pool(), 0, replicates, [&](std::int64_t i) {
      auto kernel = make_memory_limited_kernel(budget, gamma);
      SigmoidFeedback fm(lambda);
      AggregateSimConfig sim{
          .n_ants = n,
          .rounds = rounds,
          .seed = rng::hash_combine(static_cast<std::uint64_t>(11 + bits),
                                    static_cast<std::uint64_t>(i)),
          .metrics = {.gamma = gamma, .warmup = rounds / 2},
          .initial_loads = init};
      values[static_cast<std::size_t>(i)] =
          run_aggregate_sim(*kernel, fm, demands, sim).post_warmup_average();
    });
    const RunningStats regret = summarize(values);
    ctx.table.add_row(
        {Table::fmt(static_cast<std::int64_t>(bits)),
         std::string(probe->name()),
         eps >= 1.0 ? "1 (no median)" : Table::fmt(eps, 4),
         Table::fmt(regret.mean(), 5), Table::fmt(regret.ci_halfwidth(), 3),
         Table::fmt(regret.mean() /
                        (gstar * static_cast<double>(demands.total())),
                    3)});
  }

  // Part 2: forced-small-deficit oscillation probe.
  std::printf("\nOscillation probe: start at load == demand (deficit 0, the "
              "middle of the grey zone)\n");
  {
    PreciseSigmoidParams params{.gamma = gamma, .epsilon = 0.5};
    auto kernel = make_aggregate_kernel(
        {.name = "precise-sigmoid", .gamma = gamma, .epsilon = 0.5});
    SigmoidFeedback fm(lambda);
    const Round rounds = 60 * params.phase_length();
    AggregateSimConfig sim{.n_ants = n,
                           .rounds = rounds,
                           .seed = 99,
                           .metrics = {.gamma = gamma,
                                       .trace_stride = params.phase_length()},
                           .initial_loads = {demand}};
    const auto res = run_aggregate_sim(*kernel, fm, demands, sim);
    const auto stats = analyze_trace_task(res.trace, 0, 0);
    const double blowup = static_cast<double>(stats.max_abs_deficit) /
                          (gstar * static_cast<double>(demand));
    std::printf("max |deficit| = %lld  (= %.1f x gamma*·d): holding the "
                "deficit at 0 is impossible\n",
                static_cast<long long>(stats.max_abs_deficit), blowup);
    if (blowup < 2.0) ctx.exit_code = 1;  // must blow past the grey zone
  }
  return ctx.finish();
}
