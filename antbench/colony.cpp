// Workload colony-agent: the agent engine, as two campaigns sized to similar
// wall time, over the whole scenario registry with default metrics and no
// traces.
//   batched — `ant` under sigmoid noise at large n, engine forced to agent:
//             the moves-bound batched path (bulk binomials + Fisher–Yates).
//   per-ant — `threshold` (no batched runner) and `ant` under Remark 3.4
//             correlated noise (not i.i.d.) at small n: both fall back to
//             the per-ant automata silently, with uneven cell costs.
//
// Operations: one per cell per iteration (engine is agent, result
// bit-identical to the first iteration), plus in the traced run one per cell
// for the serial run_replicate cross-check.
#include <memory>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "bench.h"
#include "campaign_util.h"
#include "layers.h"
#include "noise/correlated.h"
#include "noise/sigmoid.h"
#include "parallel/thread_pool.h"
#include "sim/campaign.h"
#include "sim/scenario.h"
#include "tracer.h"

namespace antbench {

using namespace antalloc;

namespace {

constexpr Count kBatchedAnts = 1 << 20;
constexpr Round kBatchedRounds = 500;
constexpr Count kPerAntAnts = 384;
constexpr Round kPerAntRounds = 500;
constexpr std::int64_t kReplicates = 4;
constexpr double kLambda = 0.2;
constexpr double kRho = 0.3;
constexpr int kSetupRepeats = 201;
constexpr int kMinIterations = 4;
constexpr double kWarmupSeconds = 2.0;
constexpr int kOverheadPairs = 3;

NoiseSpec sigmoid_noise() {
  return {"sigmoid(lambda=0.200)",
          [] { return std::make_unique<SigmoidFeedback>(kLambda); }};
}

NoiseSpec correlated_noise() {
  return {"correlated(rho=0.300,sigmoid)", [] {
            return std::make_unique<CorrelatedFeedback>(
                std::make_shared<SigmoidFeedback>(kLambda), kRho);
          }};
}

struct Configs {
  CampaignConfig batched;
  CampaignConfig perant;
};

Configs make_configs(std::uint64_t seed, ThreadPool* pool) {
  const DemandVector base({5000, 4000, 3000, 2000});
  const auto shape = [&](CampaignConfig& c, Count n, Round rounds) {
    // Demands scale with the colony so both halves sit in the same regime.
    std::vector<Count> d;
    for (const Count v : base.values()) d.push_back(v * n / 65536 + 8);
    c.scenarios = registry_scenarios(DemandVector(d), rounds, seed);
    c.n_ants = n;
    c.rounds = rounds;
    c.seed = seed;
    c.replicates = kReplicates;
    c.pool = pool;
  };
  Configs out;
  out.batched.algos = {AlgoConfig{.name = "ant"}};
  out.batched.noises = {sigmoid_noise()};
  out.batched.engine = Engine::kAgent;
  shape(out.batched, kBatchedAnts, kBatchedRounds);
  out.perant.algos = {AlgoConfig{.name = "threshold"}, AlgoConfig{.name = "ant"}};
  out.perant.noises = {correlated_noise()};
  out.perant.engine = Engine::kAuto;
  shape(out.perant, kPerAntAnts, kPerAntRounds);
  return out;
}

// Whether the agent engine runs this cell per ant although the campaign asks
// for batched sampling: the algorithm has no batched runner or the noise is
// not i.i.d. across ants.
bool falls_back(const CampaignConfig& cfg, const CampaignCell& cell) {
  const std::size_t ai = (cell.flat_index / cfg.noises.size()) % cfg.algos.size();
  const std::size_t ni = cell.flat_index % cfg.noises.size();
  const auto algo = make_agent_algorithm(cfg.algos[ai]);
  return algo->batched_runner() == nullptr ||
         !cfg.noises[ni].make()->iid_across_ants();
}

struct Phase {
  CampaignResult live;
  double wall_s = 0.0;
  std::int64_t rounds = 0;
  std::vector<double> fold_s;
  std::uint64_t steals = 0;
  double tail_s = 0.0;
};

Phase run_phase(CampaignConfig& cfg, const char* span_name,
                const CampaignResult* reference, bool expect_fallback,
                Outcome& out) {
  FoldClock clock;
  cfg.progress = &clock;
  Phase p;
  clock.start();
  const auto start = Clock::now();
  {
    Span span(span_name);
    p.live = run_campaign(cfg);
  }
  p.wall_s = seconds_since(start);
  p.rounds = static_cast<std::int64_t>(p.live.cells.size()) * cfg.replicates *
             cfg.rounds;
  p.fold_s = clock.fold_s;
  p.steals = clock.steals;
  p.tail_s = tail_seconds(clock, p.wall_s, thread_count());
  for (std::size_t i = 0; i < p.live.cells.size(); ++i) {
    const CampaignCell& cell = p.live.cells[i];
    out.check(cell.engine == Engine::kAgent &&
                  falls_back(cfg, cell) == expect_fallback &&
                  (reference == nullptr ||
                   cells_identical(cell, reference->cells[i])),
              std::string(span_name) + " cell " + std::to_string(i) +
                  " ran on the wrong path or differs from iteration 0");
  }
  return p;
}

}  // namespace

Outcome run_colony_agent(const Args& args) {
  Outcome out;
  const std::size_t threads = thread_count();
  // Set-up: executor spin-up and both configs' registry build.
  const auto set_up = [&] {
    auto pool = std::make_unique<ThreadPool>(threads);
    Configs cfg = make_configs(args.seed, pool.get());
    return std::make_pair(std::move(pool), std::move(cfg));
  };
  auto state = set_up();
  Configs& cfg = state.second;

  Tracer& tracer = Tracer::get();
  const bool traced = tracer.enabled();
  tracer.enable(false);
  // Warm-up, untimed: the first iteration is the reference later ones must
  // match bit for bit; more follow until the machine is warm.
  const auto warmup = Clock::now();
  const CampaignResult ref_b =
      run_phase(cfg.batched, "sim.campaign_batched", nullptr, false, out).live;
  const CampaignResult ref_p =
      run_phase(cfg.perant, "sim.campaign_perant", nullptr, true, out).live;
  while (seconds_since(warmup) < kWarmupSeconds) {
    run_phase(cfg.batched, "sim.campaign_batched", &ref_b, false, out);
    run_phase(cfg.perant, "sim.campaign_perant", &ref_p, true, out);
  }

  if (!traced) {
    const double setup_s = median_setup_s(kSetupRepeats, set_up);
    std::vector<double> rounds_per_s, perant_per_s, latency_ms;
    measure_loop(args.seconds, kMinIterations, [&](int) {
      const Phase b =
          run_phase(cfg.batched, "sim.campaign_batched", &ref_b, false, out);
      const Phase p =
          run_phase(cfg.perant, "sim.campaign_perant", &ref_p, true, out);
      const double wall = b.wall_s + p.wall_s;
      rounds_per_s.push_back(static_cast<double>(b.rounds + p.rounds) / wall);
      perant_per_s.push_back(static_cast<double>(p.rounds) / p.wall_s);
      for (const double s : b.fold_s) latency_ms.push_back(1e3 * s);
      for (const double s : p.fold_s) latency_ms.push_back(1e3 * s);
    });
    E2E e;
    e.setup_s = setup_s;
    e.rounds_per_s = median(rounds_per_s);
    e.phase2_per_s = median(perant_per_s);
    e.latency_p50_ms = quantile(latency_ms, 0.5);
    e.latency_p95_ms = quantile(latency_ms, 0.95);
    e.latency_samples = latency_ms.size();
    emit_e2e(e, out);
    return out;
  }

  // Traced run. Untraced and traced iterations, alternating, give the
  // tracing overhead as the ratio of their median walls.
  std::vector<double> plain_s, traced_s;
  Phase b, p;
  for (int i = 0; i < kOverheadPairs; ++i) {
    tracer.enable(false);
    const Phase b0 =
        run_phase(cfg.batched, "sim.campaign_batched", &ref_b, false, out);
    const Phase p0 =
        run_phase(cfg.perant, "sim.campaign_perant", &ref_p, true, out);
    plain_s.push_back(b0.wall_s + p0.wall_s);
    tracer.enable(true);
    b = run_phase(cfg.batched, "sim.campaign_batched", &ref_b, false, out);
    p = run_phase(cfg.perant, "sim.campaign_perant", &ref_p, true, out);
    traced_s.push_back(b.wall_s + p.wall_s);
  }
  const double overhead = median(traced_s) / median(plain_s) - 1.0;

  // Serial run_replicate cross-check of every cell of both campaigns.
  double batched_s = 0.0, perant_s = 0.0, ant_s = 0.0;
  std::int64_t batched_rounds = 0, batched_moves = 0, perant_rounds = 0,
               ant_rounds = 0;
  for (std::size_t i = 0; i < b.live.cells.size(); ++i) {
    const SerialCheck sc =
        serial_check(cfg.batched, b.live, i, "agent.batched_replicate");
    out.check(sc.identical, "batched serial run_replicate of cell " +
                                std::to_string(i) + " differs from parallel");
    batched_s += sc.seconds;
    batched_rounds += sc.rounds;
    batched_moves += sc.switches;
  }
  for (std::size_t i = 0; i < p.live.cells.size(); ++i) {
    const SerialCheck sc =
        serial_check(cfg.perant, p.live, i, "agent.perant_replicate");
    out.check(sc.identical, "per-ant serial run_replicate of cell " +
                                std::to_string(i) + " differs from parallel");
    perant_s += sc.seconds;
    perant_rounds += sc.rounds;
    if (p.live.cells[i].algo == "ant") {
      ant_s += sc.seconds;
      ant_rounds += sc.rounds;
    }
  }

  // Recorded state: replicate 0 of every batched cell and every per-ant
  // cell, re-run (bit-identical, per the check above) with a capture sink.
  std::vector<RecordedRun> batched_runs, perant_runs, ant_corr_runs;
  for (std::size_t i = 0; i < b.live.cells.size(); ++i) {
    batched_runs.push_back(capture_replicate(cfg.batched, b.live, i));
  }
  double fallback_cells = 0.0;
  double perant_samples = 0.0;  // FeedbackModel::sample calls, from loads
  for (std::size_t i = 0; i < p.live.cells.size(); ++i) {
    const CampaignCell& cell = p.live.cells[i];
    fallback_cells += falls_back(cfg.perant, cell) ? 1.0 : 0.0;
    RecordedRun run = capture_replicate(cfg.perant, p.live, i);
    // Working ants sample their own task, idle ants all k tasks, per round.
    for (std::size_t r = 0; r < run.rounds(); ++r) {
      Count working = 0;
      for (std::int32_t j = 0; j < run.k; ++j) {
        working += run.loads[r * static_cast<std::size_t>(run.k) + j];
      }
      perant_samples += static_cast<double>(working) +
                        static_cast<double>(run.n_ants - working) * run.k;
    }
    if (cell.algo == "ant") ant_corr_runs.push_back(run);
    perant_runs.push_back(std::move(run));
  }
  // Replicates beyond 0 sample about as often as replicate 0.
  perant_samples *= static_cast<double>(kReplicates);

  std::vector<RecordedRun> all_runs = batched_runs;
  all_runs.insert(all_runs.end(), perant_runs.begin(), perant_runs.end());
  pass_recorder(all_runs, {});
  pass_binomial(batched_runs, SigmoidFeedback(kLambda), args.seed);
  SigmoidFeedback sigmoid(kLambda);
  pass_noise_sample(perant_runs, sigmoid, "noise.sample_sigmoid", args.seed);
  CorrelatedFeedback correlated(std::make_shared<SigmoidFeedback>(kLambda),
                                kRho);
  pass_noise_sample(ant_corr_runs, correlated, "noise.sample_correlated",
                    args.seed);

  // The per-ant gap: the ant automaton closed loop (its serial replicates,
  // recorder removed) against open loop on the constant scenario, at the
  // recorded deficits and at a constant deficit of 5.0.
  const RecordedRun& constant_run = ant_corr_runs.front();
  const auto ant = make_agent_algorithm(AlgoConfig{.name = "ant"});
  const double open_recorded = pass_openloop(
      constant_run, *ant, correlated, nullptr, "probe.openloop_recorded",
      args.seed);
  const double five = 5.0;
  const double open_constant = pass_openloop(
      constant_run, *ant, correlated, &five, "probe.openloop_constant",
      args.seed);

  LayerMetrics m;
  const auto rec = tracer.of("metrics.recorder");
  const double recorder_ns = 1e9 * rec.self_s / static_cast<double>(rec.items);
  const auto ns_sig = tracer.of("noise.sample_sigmoid");
  const auto ns_cor = tracer.of("noise.sample_correlated");
  const double noise_ns = 1e9 * (ns_sig.self_s + ns_cor.self_s) /
                          static_cast<double>(ns_sig.items + ns_cor.items);
  const auto bn = tracer.of("rng.binomial");
  const double perant_ant_rounds =
      static_cast<double>(perant_rounds) * static_cast<double>(kPerAntAnts);
  const double perant_recorder_s =
      recorder_ns * 1e-9 * static_cast<double>(perant_rounds);
  const double perant_noise_s = noise_ns * 1e-9 * perant_samples;
  const double perant_agent_s = perant_s - perant_recorder_s - perant_noise_s;
  const double batched_recorder_s =
      recorder_ns * 1e-9 * static_cast<double>(batched_rounds);
  const double batched_agent_s = batched_s - batched_recorder_s;
  m.set("metrics.recorder_round_ns", recorder_ns);
  m.set("rng.binomial_ns", 1e9 * bn.self_s / static_cast<double>(bn.items));
  m.set("agent.batched_round_ns",
        1e9 * batched_agent_s / static_cast<double>(batched_rounds));
  m.set("agent.batched_moves_per_s",
        static_cast<double>(batched_moves) / batched_s);
  m.set("agent.perant_ant_round_ns",
        1e9 * (perant_s - perant_recorder_s) / perant_ant_rounds);
  m.set("agent.perant_share", perant_s / (perant_s + batched_s));
  m.set("agent.fallback_cells", fallback_cells);
  m.set("noise.sample_ns", noise_ns);
  const double wall = b.wall_s + p.wall_s;
  const double busy = static_cast<double>(threads) * wall;
  const double efficiency = (batched_s + perant_s) / busy;
  m.set("parallel.efficiency", efficiency);
  m.set("parallel.steals", static_cast<double>(b.steals + p.steals));
  m.set("parallel.tail_s", b.tail_s + p.tail_s);
  m.set("trace.overhead_share", overhead);

  const double closed =
      (1e9 * ant_s - recorder_ns * static_cast<double>(ant_rounds)) /
      (static_cast<double>(ant_rounds) * static_cast<double>(kPerAntAnts));
  out.report.push_back(
      "FINDING colony-agent.perant_gap: ant automaton " + fmt(closed) +
      " ns per ant-round closed loop in the campaign's engine vs " +
      fmt(open_recorded) + " ns open loop at the recorded deficits and " +
      fmt(open_constant) +
      " ns open loop at a constant deficit of 5.0 (a microbench's state); "
      "recorded/constant = " + fmt(open_recorded / open_constant));
  const double unattributed = reconcile(
      "colony-agent", busy,
      {{"agent", batched_agent_s + perant_agent_s},
       {"metrics", batched_recorder_s + perant_recorder_s},
       {"noise", perant_noise_s}},
      "the serial per-replicate cost does not cover the parallel campaigns: "
      "parallel efficiency " + fmt(efficiency) + " on " +
          std::to_string(threads) + " threads, tails " + fmt(b.tail_s) +
          " s (batched) and " + fmt(p.tail_s) +
          " s (per-ant); the rest is contention between replicates",
      out);
  m.set("trace.unattributed_share", unattributed);
  report_roofline(4, m, out);
  m.emit(out);
  return out;
}

}  // namespace antbench
