#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.h"
#include "io/trace_log.h"
#include "io/trace_reader.h"
#include "rng/binomial.h"
#include "rng/xoshiro.h"
#include "tracer.h"

namespace antbench {

using namespace antalloc;

namespace {

// Caps on the items a pass re-drives, so a traced run stays in budget.
constexpr std::size_t kMaxBinomialPairs = 400'000;
constexpr std::size_t kMaxNoiseSamples = 2'000'000;
constexpr std::int64_t kAntsPerTaskRound = 16;

// Deficits the model saw in round i: demand in force at round t minus the
// previous round's recorded load (0 for inactive tasks, as the engines pin).
void deficits_at(const RecordedRun& run, std::size_t i,
                 std::vector<double>& out) {
  const RoundView v = run.view(i);
  out.assign(static_cast<std::size_t>(run.k), 0.0);
  if (i == 0) return;
  const Count* prev = &run.loads[(i - 1) * static_cast<std::size_t>(run.k)];
  for (std::int32_t j = 0; j < run.k; ++j) {
    if (v.task_active(j)) {
      out[static_cast<std::size_t>(j)] =
          static_cast<double>((*v.demands)[j] - prev[j]);
    }
  }
}

}  // namespace

RoundView RecordedRun::view(std::size_t i) const {
  const auto ku = static_cast<std::size_t>(k);
  const ActiveSet& active = schedule->active_at(t[i]);
  return RoundView{.t = t[i],
                   .loads = std::span<const Count>(&loads[i * ku], ku),
                   .demands = &schedule->demands_at(t[i]),
                   .active = active.all_active() ? nullptr : &active,
                   .switches = switches[i],
                   .flushes = flushes[i]};
}

RecordedRun load_trace(const std::string& path) {
  TraceReader reader(path);
  const TraceInfo& info = reader.info();
  RecordedRun run;
  run.k = info.num_tasks;
  run.n_ants = info.n_ants;
  run.recorder = reader.recorder_options();
  run.schedule = std::make_shared<DemandSchedule>(reader.schedule());
  const auto rounds = static_cast<std::size_t>(info.rounds);
  run.t.reserve(rounds);
  run.loads.reserve(rounds * static_cast<std::size_t>(run.k));
  run.switches.reserve(rounds);
  run.flushes.reserve(rounds);
  RoundView view;
  while (reader.next(view)) {
    run.t.push_back(view.t);
    run.loads.insert(run.loads.end(), view.loads.begin(), view.loads.end());
    run.switches.push_back(view.switches);
    run.flushes.push_back(view.flushes);
  }
  return run;
}

CaptureSink::CaptureSink(RecordedRun* out, const DemandSchedule& schedule,
                         Count n_ants)
    : out_(out) {
  out_->k = schedule.demands_at(0).num_tasks();
  out_->n_ants = n_ants;
  out_->schedule = std::make_shared<DemandSchedule>(schedule);
}

void CaptureSink::on_round(const RoundView& view) {
  out_->t.push_back(view.t);
  out_->loads.insert(out_->loads.end(), view.loads.begin(), view.loads.end());
  out_->switches.push_back(view.switches);
  out_->flushes.push_back(view.flushes);
}

void pass_recorder(const std::vector<RecordedRun>& runs,
                   const std::vector<std::string>& metric_names) {
  for (const RecordedRun& run : runs) {
    MetricsRecorder::Options opts = run.recorder;
    opts.names = metric_names;
    opts.sink = nullptr;
    Span span("metrics.recorder", static_cast<std::int64_t>(run.rounds()));
    MetricsRecorder recorder(run.k, run.n_ants, opts);
    for (std::size_t i = 0; i < run.rounds(); ++i) {
      recorder.record_round(run.view(i));
    }
    keep(recorder.finish(run.view(run.rounds() - 1).loads));
  }
}

void pass_binomial(const std::vector<RecordedRun>& runs,
                   const FeedbackModel& fm, std::uint64_t seed) {
  struct Pair {
    std::int64_t n;
    double p;
  };
  std::vector<Pair> pairs;
  std::vector<double> deficits;
  for (const RecordedRun& run : runs) {
    for (std::size_t i = 1; i < run.rounds(); ++i) {
      if (pairs.size() >= kMaxBinomialPairs) break;
      deficits_at(run, i, deficits);
      const RoundView v = run.view(i);
      const Count* prev = &run.loads[(i - 1) * static_cast<std::size_t>(run.k)];
      Count idle = run.n_ants;
      for (std::int32_t j = 0; j < run.k; ++j) idle -= prev[j];
      for (std::int32_t j = 0; j < run.k; ++j) {
        if (!v.task_active(j)) continue;
        const double p = fm.lack_probability(
            v.t, j, deficits[static_cast<std::size_t>(j)],
            static_cast<double>((*v.demands)[j]));
        pairs.push_back({prev[j], p});
        pairs.push_back({idle, p});
      }
    }
  }
  rng::Xoshiro256 gen(seed);
  std::int64_t sum = 0;
  {
    Span span("rng.binomial", static_cast<std::int64_t>(pairs.size()));
    for (const Pair& pr : pairs) sum += rng::binomial(gen, pr.n, pr.p);
  }
  keep(sum);
}

void pass_noise_sample(const std::vector<RecordedRun>& runs,
                       FeedbackModel& fm, const char* span_name,
                       std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<double> deficits;
  std::int64_t samples = 0;
  std::int64_t lacks = 0;
  Span span(span_name);
  for (const RecordedRun& run : runs) {
    for (std::size_t i = 1; i < run.rounds(); ++i) {
      if (static_cast<std::size_t>(samples) >= kMaxNoiseSamples) break;
      deficits_at(run, i, deficits);
      const RoundView v = run.view(i);
      fm.begin_round(v.t, deficits, v.demands->values(), gen);
      for (std::int32_t j = 0; j < run.k; ++j) {
        if (!v.task_active(j)) continue;
        const double d = deficits[static_cast<std::size_t>(j)];
        const double demand = static_cast<double>((*v.demands)[j]);
        for (std::int64_t a = 0; a < kAntsPerTaskRound; ++a) {
          lacks += fm.sample(v.t, j, a, d, demand, gen) == Feedback::kLack;
        }
        samples += kAntsPerTaskRound;
      }
    }
  }
  span.set_items(samples);
  keep(lacks);
}

double pass_openloop(const RecordedRun& run, AgentAlgorithm& algo,
                     FeedbackModel& fm, const double* constant,
                     const char* span_name, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(run.n_ants);
  std::vector<TaskId> prev(n, kIdle);
  std::vector<TaskId> next(n, kIdle);
  algo.reset(run.n_ants, run.k, prev, seed);
  rng::Xoshiro256 model_gen(seed);
  std::vector<double> deficits;
  const auto items = static_cast<std::int64_t>(n * (run.rounds() - 1));
  const auto start = Clock::now();
  {
    Span span(span_name, items);
    for (std::size_t i = 1; i < run.rounds(); ++i) {
      deficits_at(run, i, deficits);
      if (constant != nullptr) deficits.assign(deficits.size(), *constant);
      const RoundView v = run.view(i);
      const std::uint64_t mask =
          v.active == nullptr ? ~0ull : v.active->mask64();
      fm.begin_round(v.t, deficits, v.demands->values(), model_gen);
      const FeedbackAccess fb(fm, v.t, deficits, v.demands->values(), seed,
                              mask);
      algo.step(v.t, fb, prev, next);
      prev.swap(next);
    }
  }
  return 1e9 * seconds_since(start) / static_cast<double>(items);
}

std::uint64_t pass_trace_io(const std::vector<RecordedRun>& runs,
                            const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  std::uint64_t bytes = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const RecordedRun& run = runs[r];
    const std::string path = dir + "/layer-" + std::to_string(r) + ".trace";
    const std::uint64_t run_bytes =
        static_cast<std::uint64_t>(run.rounds()) *
        trace_record_bytes(run.k);
    Span span("io.trace_write", static_cast<std::int64_t>(run_bytes));
    TraceWriter writer(path, *run.schedule,
                       TraceMeta{.n_ants = run.n_ants,
                                 .gamma = run.recorder.gamma,
                                 .bands = run.recorder.bands,
                                 .warmup = run.recorder.warmup});
    for (std::size_t i = 0; i < run.rounds(); ++i) writer.on_round(run.view(i));
    writer.close();
    paths.push_back(path);
    bytes += run_bytes;
  }
  for (const std::string& path : paths) {
    const auto file_bytes = std::filesystem::file_size(path);
    Span span("io.trace_read", static_cast<std::int64_t>(file_bytes));
    TraceReader reader(path);
    RoundView view;
    Count sum = 0;
    while (reader.next(view)) sum += view.loads[0];
    keep(sum);
  }
  std::filesystem::remove_all(dir);
  return bytes;
}

namespace {

struct Roofline {
  double mem_GBps = 0.0;
  std::uint64_t llc_bytes = 0;
  std::uint64_t array_bytes = 0;
  double xoshiro_draws_per_s = 0.0;
};

std::uint64_t last_level_cache_bytes() {
  std::uint64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
    if (text.back() == 'K') value <<= 10;
    if (text.back() == 'M') value <<= 20;
    best = std::max(best, value);
  }
  return best;
}

Roofline measure_roofline() {
  Roofline r;
  r.llc_bytes = last_level_cache_bytes();
  // At least 4x the last-level cache, never below 64 MiB, capped at 2 GiB to
  // stay a good neighbour on shared machines (the report states the sizes).
  r.array_bytes = std::clamp<std::uint64_t>(4 * r.llc_bytes, 64ull << 20,
                                            2ull << 30);
  const std::size_t words = r.array_bytes / sizeof(double);
  std::vector<double> a(words, 1.0);
  const std::size_t threads = thread_count();
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    Span span("roofline.mem_pass", static_cast<std::int64_t>(2 * r.array_bytes));
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&a, w, threads, words] {
        const std::size_t lo = words * w / threads;
        const std::size_t hi = words * (w + 1) / threads;
        for (std::size_t i = lo; i < hi; ++i) a[i] = a[i] * 0.999 + 0.001;
      });
    }
    for (auto& t : pool) t.join();
    const double s = seconds_since(start);
    best = std::max(best, 2.0 * static_cast<double>(r.array_bytes) / s / 1e9);
  }
  r.mem_GBps = best;
  keep(a[words / 2]);

  rng::Xoshiro256 gen(0x9e3779b97f4a7c15ull ^ words);
  constexpr std::int64_t kDraws = 1 << 26;
  std::uint64_t acc = 0;
  const auto start = Clock::now();
  {
    Span span("roofline.xoshiro", kDraws);
    for (std::int64_t i = 0; i < kDraws; ++i) acc ^= gen();
  }
  r.xoshiro_draws_per_s = static_cast<double>(kDraws) / seconds_since(start);
  keep(acc);
  return r;
}

}  // namespace

void report_roofline(std::int32_t k, LayerMetrics& m, Outcome& out) {
  const Roofline r = measure_roofline();
  // Per-ant engine, per ant and round: the automaton reads prev and writes
  // next (TaskId each), keeps current_task_ (TaskId read + write) and a
  // 64-bit first-sample mask, and the engine's diff pass re-reads prev and
  // next.
  const double perant_bytes = 6.0 * sizeof(TaskId) + sizeof(std::uint64_t);
  // Ant aggregate kernel: k pause binomials in the first round of a phase,
  // k leave binomials plus a k-outcome multinomial (k binomials) in the
  // second: 3k binomial draws per two rounds.
  const double draws_per_round = 1.5 * static_cast<double>(k);
  m.set("roofline.mem_GBps", r.mem_GBps);
  m.set("roofline.xoshiro_draws_per_s", r.xoshiro_draws_per_s);
  m.set("roofline.perant_bytes_per_ant_round", perant_bytes);
  m.set("roofline.aggregate_draws_per_round", draws_per_round);
  out.report.push_back(
      "roofline: measured mem " + fmt(r.mem_GBps) + " GB/s (read+write, " +
      std::to_string(thread_count()) + " threads, array " +
      std::to_string(r.array_bytes >> 20) + " MiB, last-level cache " +
      std::to_string(r.llc_bytes >> 20) + " MiB" +
      (r.array_bytes < 4 * r.llc_bytes ? ", capped below 4x LLC" : "") +
      "); measured xoshiro " + fmt(r.xoshiro_draws_per_s) +
      " draws/s (1 thread); computed " + fmt(perant_bytes) +
      " B per per-ant ant-round, " + fmt(draws_per_round) +
      " binomial draws per ant-kernel aggregate round at k=" +
      std::to_string(k));
}

}  // namespace antbench
