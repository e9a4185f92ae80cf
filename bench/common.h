// Shared scaffolding for the experiment benches: standard flags, table +
// CSV emission, and γ* reporting. Every bench prints a paper-shaped table to
// stdout and mirrors it to <name>.csv in the working directory, plus a
// machine-profile-stamped <name>.<profile>.csv suitable for checking into
// bench/baselines/ (same convention as bench_perf_engines).
#pragma once

#include <cctype>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include <sys/utsname.h>

#include "aggregate/aggregate_sim.h"
#include "agent/agent_sim.h"
#include "core/critical_value.h"
#include "io/args.h"
#include "io/csv.h"
#include "io/table.h"
#include "noise/sigmoid.h"
#include "parallel/task_graph.h"
#include "rng/splitmix.h"
#include "sim/experiment.h"
#include "stats/summary.h"

namespace antalloc::bench {

// "<os>-<arch>-<N>t", e.g. "linux-x86_64-8t": enough to tell two baseline
// environments apart without leaking hostnames into checked-in CSVs. Shared
// by every bench that emits baseline CSVs (see bench/baselines/README.md).
inline std::string machine_profile() {
  std::string os = "unknown";
  std::string arch = "unknown";
  utsname uts{};
  if (uname(&uts) == 0) {
    os = uts.sysname;
    arch = uts.machine;
    for (auto& c : os) c = static_cast<char>(std::tolower(c));
  }
  return os + "-" + arch + "-" +
         std::to_string(std::thread::hardware_concurrency()) + "t";
}

// The error floor used for the "practical" critical value γ*(δ). The paper's
// Definition 2.3 uses δ = n^{-8}, which exceeds 1/2 for laptop-scale n and d;
// benches report both (see DESIGN.md §5.3).
inline constexpr double kPracticalDelta = 1e-6;

struct BenchContext {
  std::string name;
  Table table;
  int exit_code = 0;

  BenchContext(std::string bench_name, std::vector<std::string> headers)
      : name(std::move(bench_name)), table(std::move(headers)) {}

  // Prints the table, writes <name>.csv, and mirrors a machine-profile-
  // stamped <name>.<profile>.csv (profile prepended as the first column) so
  // figure benches leave the same baseline trail as bench_perf_engines.
  // Returns exit_code for main().
  int finish() {
    std::printf("%s", table.render().c_str());
    const std::string csv = table.to_csv();
    const std::string path = name + ".csv";
    if (write_file(path, csv)) {
      std::printf("\n[csv written to %s]\n", path.c_str());
    }
    const std::string profile = machine_profile();
    std::string stamped;
    std::istringstream lines(csv);
    std::string line;
    bool header = true;
    while (std::getline(lines, line)) {
      stamped += (header ? std::string("machine_profile") : profile) + "," +
                 line + "\n";
      header = false;
    }
    const std::string profiled_path = name + "." + profile + ".csv";
    if (write_file(profiled_path, stamped)) {
      std::printf("[csv written to %s]\n", profiled_path.c_str());
    }
    return exit_code;
  }

 private:
  static bool write_file(const std::string& path, const std::string& body) {
    // CSV mirroring is best-effort; the table on stdout is authoritative.
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return written == body.size();
  }
};

inline void print_header(const std::string& id, const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf("==============================================================\n");
}

// γ* at the practical floor for a sigmoid model.
inline double practical_gamma_star(double lambda, const DemandVector& d) {
  return critical_value_at(lambda, d, kPracticalDelta);
}

inline void print_gamma_star(double lambda, const DemandVector& d,
                             Count n_ants) {
  std::printf(
      "gamma* (Def. 2.3, delta=n^-8): %.4f   gamma*(delta=1e-6): %.4f\n",
      critical_value_sigmoid(lambda, d, n_ants),
      practical_gamma_star(lambda, d));
}

}  // namespace antalloc::bench
