// Workload sweep-aggregate: the whole scenario registry × {ant,
// precise-sigmoid, trivial, sharp-threshold, oracle} under sigmoid noise,
// engine auto (every cell resolves to the aggregate kernel), all seven
// registry metrics selected, every replicate's trace persisted — then every
// trace replayed with a different metric selection. The traces are deleted
// after each iteration.
//
// Operations: one per cell per iteration for the live run (aggregate engine,
// bit-identical to the first iteration) and one per cell for the replay
// (replayed scalars bit-equal to the live cell).
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "campaign_util.h"
#include "io/trace_log.h"
#include "layers.h"
#include "metrics/metric.h"
#include "net/server.h"
#include "noise/sigmoid.h"
#include "parallel/thread_pool.h"
#include "sim/campaign.h"
#include "tracer.h"

namespace antbench {

using namespace antalloc;

namespace {

constexpr Count kAnts = 65536;
constexpr Round kRounds = 5000;
constexpr std::int64_t kReplicates = 8;
constexpr double kLambda = 0.2;
constexpr int kSetupRepeats = 201;
constexpr int kMinIterations = 4;
constexpr double kWarmupSeconds = 2.0;
constexpr int kOverheadPairs = 3;

const std::vector<std::string>& sweep_algos() {
  static const std::vector<std::string> algos = {
      "ant", "precise-sigmoid", "trivial", "sharp-threshold", "oracle"};
  return algos;
}

// Config/registry build through the daemon's JobSpec path, so the config is
// the one a CLI or daemon submission of the same matrix would run.
CampaignConfig make_config(std::uint64_t seed, const std::string& trace_dir,
                           ThreadPool* pool) {
  JobSpec job;
  job.scenarios = scenario_names();
  for (const std::string& name : sweep_algos()) {
    job.algos.push_back(JobAlgo{.name = name, .gamma = 0.02});
  }
  job.noise = JobNoise{.kind = NoiseKind::kSigmoid, .lambda = kLambda};
  job.demands = {5000, 4000, 3000, 2000};
  job.n_ants = kAnts;
  job.rounds = kRounds;
  job.seed = seed;
  job.replicates = kReplicates;
  job.engine = Engine::kAuto;
  job.metrics = metric_names();  // all seven
  CampaignConfig cfg = campaign_from_job(job);
  cfg.trace_dir = trace_dir;
  cfg.pool = pool;
  return cfg;
}

struct Iteration {
  CampaignResult live;
  double campaign_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t trace_bytes = 0;
  std::int64_t rounds = 0;  // replicate-rounds per phase
};

// One live campaign plus the replay of every trace. `reference` (the first
// iteration) pins bit-identity across iterations.
Iteration iterate(CampaignConfig& cfg, ThreadPool& pool, FoldClock& clock,
                  const CampaignResult* reference, bool keep_traces,
                  Outcome& out) {
  Iteration it;
  cfg.progress = &clock;
  clock.start();
  auto start = Clock::now();
  {
    Span span("sim.campaign");
    it.live = run_campaign(cfg);
  }
  it.campaign_s = seconds_since(start);
  it.trace_bytes = directory_bytes(cfg.trace_dir);
  const std::size_t n = it.live.cells.size();
  it.rounds = static_cast<std::int64_t>(n) * cfg.replicates * cfg.rounds;

  const std::vector<std::string> replay_metrics = default_metric_names();
  std::vector<std::vector<SimResult>> replayed(n);
  start = Clock::now();
  parallel_for(pool, 0, static_cast<std::int64_t>(n), [&](std::int64_t i) {
    const auto iu = static_cast<std::size_t>(i);
    Span span("io.replay_cell", cfg.replicates * cfg.rounds);
    replayed[iu] = replay_cell_results(cfg.trace_dir, it.live.cells[iu].flat_index,
                                       cfg.replicates, replay_metrics);
  });
  it.replay_s = seconds_since(start);
  if (!keep_traces) std::filesystem::remove_all(cfg.trace_dir);

  const std::vector<MetricScalar> live_cols = it.live.scalar_columns();
  const std::vector<MetricScalar> replay_cols =
      metric_scalar_columns(replay_metrics);
  for (std::size_t i = 0; i < n; ++i) {
    const CampaignCell& cell = it.live.cells[i];
    out.check(cell.engine == Engine::kAggregate &&
                  (reference == nullptr ||
                   cells_identical(cell, reference->cells[i])),
              "sweep live cell " + std::to_string(i) +
                  " ran off the aggregate engine or differs from iteration 0");
    bool equal = replayed[i].size() == static_cast<std::size_t>(cfg.replicates);
    for (const MetricScalar& rc : replay_cols) {
      std::size_t col = 0;
      while (col < live_cols.size() && live_cols[col].name != rc.name) ++col;
      if (!equal || col == live_cols.size()) {
        equal = false;
        break;
      }
      RunningStats folded;
      for (const SimResult& r : replayed[i]) folded.add(r.metric(rc.name));
      equal = stats_identical(folded, cell.metric_stats[col]);
    }
    out.check(equal, "sweep replay of cell " + std::to_string(i) +
                         " differs from the live scalars");
  }
  return it;
}

}  // namespace

Outcome run_sweep_aggregate(const Args& args) {
  Outcome out;
  const std::string trace_dir = (args.run_dir / "sweep-traces").string();
  std::filesystem::remove_all(trace_dir);
  // One iteration's traces must fit on the disk twice over.
  const std::uint64_t trace_bytes =
      static_cast<std::uint64_t>(scenario_names().size() * sweep_algos().size()) *
      kReplicates * kRounds * trace_record_bytes(4);
  const std::uint64_t free_bytes = std::filesystem::space(args.run_dir).available;
  if (free_bytes < 2 * trace_bytes) {
    throw std::runtime_error("sweep-aggregate needs " +
                             std::to_string(2 * trace_bytes >> 20) +
                             " MiB free for traces, " +
                             std::to_string(free_bytes >> 20) + " MiB available");
  }
  const std::size_t threads = thread_count();

  // Set-up: executor spin-up and config/registry build.
  const auto set_up = [&] {
    auto pool = std::make_unique<ThreadPool>(threads);
    CampaignConfig cfg = make_config(args.seed, trace_dir, pool.get());
    return std::make_pair(std::move(pool), std::move(cfg));
  };
  auto state = set_up();
  std::unique_ptr<ThreadPool>& pool = state.first;
  CampaignConfig& cfg = state.second;

  FoldClock clock;
  Tracer& tracer = Tracer::get();
  const bool traced = tracer.enabled();
  tracer.enable(false);
  // Warm-up, untimed: the first iteration is the reference later ones must
  // match bit for bit; more follow until caches and the machine are warm.
  const auto warmup = Clock::now();
  const CampaignResult reference =
      iterate(cfg, *pool, clock, nullptr, false, out).live;
  while (seconds_since(warmup) < kWarmupSeconds) {
    iterate(cfg, *pool, clock, &reference, false, out);
  }

  if (!traced) {
    const double setup_s = median_setup_s(kSetupRepeats, set_up);
    std::vector<double> rounds_per_s, replay_per_s, latency_ms;
    measure_loop(args.seconds, kMinIterations, [&](int) {
      const Iteration it = iterate(cfg, *pool, clock, &reference, false, out);
      rounds_per_s.push_back(static_cast<double>(it.rounds) / it.campaign_s);
      replay_per_s.push_back(static_cast<double>(it.rounds) / it.replay_s);
      for (const double s : clock.fold_s) latency_ms.push_back(1e3 * s);
    });
    E2E e;
    e.setup_s = setup_s;
    e.rounds_per_s = median(rounds_per_s);
    e.phase2_per_s = median(replay_per_s);
    e.latency_p50_ms = quantile(latency_ms, 0.5);
    e.latency_p95_ms = quantile(latency_ms, 0.95);
    e.latency_samples = latency_ms.size();
    emit_e2e(e, out);
    return out;
  }

  // Traced run. Untraced and traced iterations, alternating, give the
  // tracing overhead as the ratio of their median walls; the last traced
  // iteration keeps its traces for the layer passes.
  std::vector<double> plain_s, traced_s;
  Iteration it;
  for (int i = 0; i < kOverheadPairs; ++i) {
    tracer.enable(false);
    const Iteration plain = iterate(cfg, *pool, clock, &reference, false, out);
    plain_s.push_back(plain.campaign_s + plain.replay_s);
    tracer.enable(true);
    it = iterate(cfg, *pool, clock, &reference, i + 1 == kOverheadPairs, out);
    traced_s.push_back(it.campaign_s + it.replay_s);
  }
  const double overhead = median(traced_s) / median(plain_s) - 1.0;

  // Recorded state: replicate 0 of every fifth cell, from the run's traces.
  std::vector<RecordedRun> runs;
  for (std::size_t i = 0; i < it.live.cells.size(); i += 5) {
    runs.push_back(load_trace(trace_dir + "/" +
                              trace_file_name(it.live.cells[i].flat_index, 0)));
  }
  std::filesystem::remove_all(trace_dir);

  // Serial run_replicate of every cell: the bit-identity check against the
  // parallel run, and the replicates' busy time.
  double serial_s = 0.0;
  std::int64_t serial_rounds = 0;
  for (std::size_t i = 0; i < it.live.cells.size(); ++i) {
    const SerialCheck sc = serial_check(cfg, it.live, i, "aggregate.replicate");
    out.check(sc.identical, "sweep serial run_replicate of cell " +
                                std::to_string(i) + " differs from parallel");
    serial_s += sc.seconds;
    serial_rounds += sc.rounds;
  }

  pass_recorder(runs, metric_names());
  pass_binomial(runs, SigmoidFeedback(kLambda), args.seed);
  pass_trace_io(runs, (args.run_dir / "sweep-layer-io").string());

  LayerMetrics m;
  const auto rec = tracer.of("metrics.recorder");
  const double recorder_ns = 1e9 * rec.self_s / static_cast<double>(rec.items);
  const double aggregate_ns =
      1e9 * serial_s / static_cast<double>(serial_rounds) - recorder_ns;
  const auto wr = tracer.of("io.trace_write");
  const auto rd = tracer.of("io.trace_read");
  const auto bn = tracer.of("rng.binomial");
  const double write_Bps = static_cast<double>(wr.items) / wr.total_s;
  m.set("aggregate.round_ns", aggregate_ns);
  m.set("metrics.recorder_round_ns", recorder_ns);
  m.set("io.trace_write_MBps", write_Bps / 1e6);
  m.set("io.trace_bytes", static_cast<double>(it.trace_bytes));
  m.set("io.trace_read_MBps", static_cast<double>(rd.items) / rd.total_s / 1e6);
  m.set("rng.binomial_ns", 1e9 * bn.self_s / static_cast<double>(bn.items));
  const double busy = static_cast<double>(threads) * it.campaign_s;
  const double efficiency = serial_s / busy;
  m.set("parallel.efficiency", efficiency);
  m.set("parallel.steals", static_cast<double>(clock.steals));
  m.set("parallel.tail_s", tail_seconds(clock, it.campaign_s, threads));
  m.set("trace.overhead_share", overhead);

  // Campaign busy time = threads × campaign wall. Layers: the kernel and the
  // recorder (serial replicate time, split by the recorder pass) and the
  // trace writers (campaign bytes at the measured write rate).
  const double rounds = static_cast<double>(it.rounds);
  const double unattributed = reconcile(
      "sweep-aggregate", busy,
      {{"aggregate", aggregate_ns * rounds * 1e-9},
       {"metrics", recorder_ns * rounds * 1e-9},
       {"io", static_cast<double>(it.trace_bytes) / write_Bps}},
      "the serial per-replicate cost does not cover the parallel campaign: "
      "parallel efficiency " + fmt(efficiency) + " on " +
          std::to_string(threads) +
          " threads, tail " + fmt(tail_seconds(clock, it.campaign_s, threads)) +
          " s; the rest is contention between replicates and trace writer "
          "threads sharing the cores",
      out);
  m.set("trace.unattributed_share", unattributed);
  report_roofline(4, m, out);
  m.emit(out);
  return out;
}

}  // namespace antbench
