#include <algorithm>
#include <cstdio>
#include <cmath>
#include <stdexcept>
#include <system_error>
#include <thread>

#include <sys/resource.h>

#include "bench.h"

namespace antbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    report.push_back("CHECK FAILED: " + what);
  }
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::uint64_t directory_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void emit_e2e(const E2E& e, Outcome& out) {
  out.add("setup_s", e.setup_s, "s");
  out.add("rounds_per_s", e.rounds_per_s, "1/s");
  out.add("phase2_per_s", e.phase2_per_s, "1/s");
  out.add("latency_p50_ms", e.latency_p50_ms, "ms");
  out.add("latency_p95_ms", e.latency_p95_ms, "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  const double ok = out.attempted > 0
                        ? 1.0 - static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                        : 0.0;
  out.add("ok_share", ok, "share");
  out.report.push_back("latency samples: " + std::to_string(e.latency_samples));
}

double reconcile(const std::string& workload, double busy_s,
                 const std::vector<std::pair<std::string, double>>& parts,
                 const std::string& finding_if_gap, Outcome& out) {
  double attributed = 0.0;
  std::string line = "reconcile " + workload + ": busy " + fmt(busy_s) + " s =";
  for (const auto& [layer, s] : parts) {
    attributed += s;
    line += " " + layer + " " + fmt(s) + " s +";
  }
  const double unattributed = busy_s > 0.0 ? 1.0 - attributed / busy_s : 0.0;
  line += " unattributed " + fmt(100.0 * unattributed) + "%";
  out.report.push_back(line);
  if (std::abs(unattributed) > 0.15) {
    out.report.push_back("FINDING " + workload + ".unattributed (" +
                         fmt(100.0 * unattributed) + "% of busy time): " +
                         finding_if_gap);
  }
  return unattributed;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

LayerMetrics::LayerMetrics() {
  static const char* const kTable[][2] = {
      {"aggregate.round_ns", "ns"},
      {"metrics.recorder_round_ns", "ns"},
      {"io.trace_write_MBps", "MB/s"},
      {"io.trace_bytes", "bytes"},
      {"io.trace_read_MBps", "MB/s"},
      {"rng.binomial_ns", "ns"},
      {"agent.batched_round_ns", "ns"},
      {"agent.batched_moves_per_s", "1/s"},
      {"agent.perant_ant_round_ns", "ns"},
      {"agent.perant_share", "share"},
      {"agent.fallback_cells", "count"},
      {"noise.sample_ns", "ns"},
      {"parallel.efficiency", "share"},
      {"parallel.steals", "count"},
      {"parallel.tail_s", "s"},
      {"net.frames_per_job", "count"},
      {"net.bytes_per_job", "bytes"},
      {"net.encode_MBps", "MB/s"},
      {"net.decode_MBps", "MB/s"},
      {"net.first_delta_ms", "ms"},
      {"net.evictions", "count"},
      {"sim.merge_add_us", "us"},
      {"orch.leases_granted", "count"},
      {"orch.leases_expired", "count"},
      {"orch.duplicate_share", "share"},
      {"orch.lease_table_op_ns", "ns"},
      {"orch.overhead_share", "share"},
      {"trace.overhead_share", "share"},
      {"trace.unattributed_share", "share"},
      {"roofline.mem_GBps", "GB/s"},
      {"roofline.xoshiro_draws_per_s", "1/s"},
      {"roofline.perant_bytes_per_ant_round", "bytes"},
      {"roofline.aggregate_draws_per_round", "count"},
  };
  for (const auto& row : kTable) metrics_.push_back({row[0], 0.0, row[1]});
}

void LayerMetrics::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::invalid_argument("no per-layer metric named " + name);
}

void LayerMetrics::emit(Outcome& out) const {
  for (const Metric& m : metrics_) out.add(m.name, m.value, m.unit);
}

}  // namespace antbench
