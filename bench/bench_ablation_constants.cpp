// A1/A2 — Ablations of Algorithm Ant's design constants.
//
// (a) Sample spacing cs, under two noise regimes:
//     * sharp feedback (adversarial model, honest in the grey zone): with
//       cs = 0 both samples read the SAME load, so whenever the load drifts
//       below the demand every idle ant sees lack twice and the whole pool
//       floods in — a periodic Θ(n) catastrophe. The paper's cs = 2.4 spaces
//       the dip past the grey zone, the stable zone absorbs, and the flood
//       happens at most once (Claims 4.2/4.3).
//     * smooth sigmoid noise: the sigmoid's gradual probabilities let even
//       cs = 0 equilibrate at a small offset, while the dip itself costs
//       ~cs·γ·d regret every other round — so regret grows with cs. The
//       paper pays that price deliberately: it buys worst-case robustness.
//     Together the two columns show why cs is chosen just above the
//     stable-zone threshold 20/9 + 2/(cd-1) ≈ 2.33 and no larger.
//
// (b) Leave damping cd (sigmoid noise): small cd drains overloads fast but
//     the paper's analysis needs cs >= 20/9 + 2/(cd-1) — tiny cd voids the
//     stable zone; huge cd drains the one-time flood too slowly.
#include "noise/adversarial.h"
#include "common.h"

using namespace antalloc;

namespace {

double steady_regret(double cs, double cd, double gamma, Count demand,
                     const ModelFactory& make_model, Round rounds,
                     std::int64_t replicates) {
  ExperimentConfig cfg;
  cfg.algo = {.name = "ant", .gamma = gamma, .cs = cs, .cd = cd};
  cfg.n_ants = 4 * demand;
  cfg.rounds = rounds;
  cfg.seed = 71;
  cfg.metrics = {.gamma = gamma, .warmup = rounds / 2};
  const auto results = run_replicated_experiment(
      cfg, make_model, DemandSchedule(DemandVector({demand})), replicates);
  return summarize(extract_metric(results, "regret")).mean();
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const Count demand = args.get_int("demand", 20'000);
  const double lambda = args.get_double("lambda", 0.035);
  const double gamma_ad = args.get_double("gamma_ad", 0.02);
  const double gamma = args.get_double("gamma", 0.05);
  const auto rounds = args.get_int("rounds", 16'000);
  const auto replicates = args.get_int("replicates", 4);
  args.check_unknown();

  bench::print_header(
      "A1+A2 / ablations: sample spacing cs and leave damping cd",
      "sharp noise: cs=0 refloods catastrophically; smooth noise: the dip "
      "costs ~cs*g*d — cs=2.4 is the smallest stable choice");

  const auto sigmoid_model = [&]() -> std::unique_ptr<FeedbackModel> {
    return std::make_unique<SigmoidFeedback>(lambda);
  };
  const auto sharp_model = [&]() -> std::unique_ptr<FeedbackModel> {
    return std::make_unique<AdversarialFeedback>(gamma_ad,
                                                 make_honest_adversary());
  };

  bench::BenchContext ctx(
      "bench_ablation_constants",
      {"parameter", "value", "regret_sharp", "regret_sigmoid",
       "sharp/(g*d)", "sigmoid/(g*d)"});

  const double scale = gamma * static_cast<double>(demand);
  double sharp_cs0 = 0.0;
  double sharp_paper = 0.0;
  for (const double cs : {0.0, 0.6, 1.2, 2.4, 4.8, 9.6}) {
    const double sharp =
        steady_regret(cs, 19.0, gamma, demand, sharp_model, rounds,
                      replicates);
    const double smooth =
        steady_regret(cs, 19.0, gamma, demand, sigmoid_model, rounds,
                      replicates);
    ctx.table.add_row({"cs", Table::fmt(cs, 3), Table::fmt(sharp, 5),
                       Table::fmt(smooth, 5), Table::fmt(sharp / scale, 3),
                       Table::fmt(smooth / scale, 3)});
    if (cs == 0.0) sharp_cs0 = sharp;
    if (cs == 2.4) sharp_paper = sharp;
  }
  // The two-sample spacing must beat no-spacing decisively under sharp
  // noise (the regime the algorithm is designed for).
  if (sharp_paper >= 0.25 * sharp_cs0) ctx.exit_code = 1;

  for (const double cd : {2.0, 6.0, 19.0, 60.0, 200.0}) {
    const double sharp =
        steady_regret(2.4, cd, gamma, demand, sharp_model, rounds, replicates);
    const double smooth = steady_regret(2.4, cd, gamma, demand, sigmoid_model,
                                        rounds, replicates);
    ctx.table.add_row({"cd", Table::fmt(cd, 3), Table::fmt(sharp, 5),
                       Table::fmt(smooth, 5), Table::fmt(sharp / scale, 3),
                       Table::fmt(smooth / scale, 3)});
  }
  return ctx.finish();
}
