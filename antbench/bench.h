// antbench: shared declarations of the end-to-end benchmark program.
//
// One process runs one named workload end to end through the library's
// public entry points (run_campaign, replay_cell_results, DaemonServer +
// DaemonClient/FeedAssembler, CoordinatorServer + run_worker). A plain run
// (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
// wraps the benchmark's calls into each layer in spans (tracer.h), times
// the layers on state recorded from the workload's own run, and reports
// the per-layer metrics plus a reconciliation line. See README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace antbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  // Per-run files (traces, span dumps), inside the working directory.
  std::filesystem::path run_dir = ".antbench_run";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload hands back to main(): operation counts for the result
// line, the metrics of the selected kind, and free-form report lines
// (reconciliation, findings) printed before the result.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Counts one operation; `ok` false is a failure, reported as `what`.
  void check(bool ok, const std::string& what);
};

Outcome run_sweep_aggregate(const Args& args);
Outcome run_colony_agent(const Args& args);
Outcome run_service_loopback(const Args& args);

// Helpers (common.cpp). ------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v);
// Four significant digits, for report lines.
std::string fmt(double v);
// Linear-interpolated quantile q in [0, 1].
double quantile(std::vector<double> v, double q);
// The process's peak resident set size in MiB.
double peak_rss_mb();
// Worker threads for executors and client load: nproc, at least 1.
std::size_t thread_count();
// Total bytes of the regular files under `dir`.
std::uint64_t directory_bytes(const std::filesystem::path& dir);

// The end-to-end metrics every workload reports, in BENCHMARK.json order.
// Workloads fill an E2E and call emit_e2e.
struct E2E {
  double setup_s = 0.0;
  double rounds_per_s = 0.0;
  double phase2_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  std::size_t latency_samples = 0;
};
void emit_e2e(const E2E& e, Outcome& out);

// The per-layer metrics of the traced run, in BENCHMARK.json order, all
// starting at 0: a layer a workload does not exercise reports 0 work.
class LayerMetrics {
 public:
  LayerMetrics();
  // Throws std::invalid_argument on a name outside the table.
  void set(const std::string& name, double value);
  void emit(Outcome& out) const;

 private:
  std::vector<Metric> metrics_;
};

// Reconciliation of one workload's traced run: the layer self-times it
// could attribute against the end-to-end busy time. Appends the
// "reconcile" line (and a named finding when more than 15% of the busy
// time is unattributed) to out.report; returns the unattributed share.
double reconcile(const std::string& workload, double busy_s,
                 const std::vector<std::pair<std::string, double>>& parts,
                 const std::string& finding_if_gap, Outcome& out);

// Runs `body(iteration)` until `seconds` of measurement have passed and at
// least `min_iterations` ran.
template <typename Body>
void measure_loop(double seconds, int min_iterations, Body&& body) {
  const auto start = Clock::now();
  for (int it = 0; it < min_iterations || seconds_since(start) < seconds; ++it) {
    body(it);
  }
}

// The median of `repeats` timed calls of `make()`; what make() returns is
// destroyed after its timing. Workloads call this after their warm-up, so
// it measures the set-up's own cost, not the first seconds of load on a
// cold machine; a short pause first lets the kernel finish the warm-up's
// deferred work (freeing deleted trace files) outside the timing.
template <typename Make>
double median_setup_s(int repeats, Make&& make) {
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    const auto made = make();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

// Keeps a computed value observable, so timed work is not optimized away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace antbench
