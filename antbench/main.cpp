// antbench entry point:
//   antbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>]
// Prints report lines, a profile stamp, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "tracer.h"

namespace antbench {
namespace {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--commit") {
      a.commit = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  if (a.workload.empty()) throw std::invalid_argument("--workload required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// The machine and build the numbers come from: CPU model, nproc, build type,
// compiler and source commit, so two machines with the same core count do
// not share a stamp.
std::string profile_stamp(const Args& a) {
  return "{\"cpu\": \"" + json_escape(cpu_model()) +
         "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" ANTBENCH_BUILD_TYPE
         "\", \"compiler\": \"" ANTBENCH_COMPILER "\", \"commit\": \"" +
         json_escape(a.commit) + "\"}";
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Tracer::get().enable(args.trace);
  std::filesystem::create_directories(args.run_dir);

  Outcome out;
  if (args.workload == "sweep-aggregate") {
    out = run_sweep_aggregate(args);
  } else if (args.workload == "colony-agent") {
    out = run_colony_agent(args);
  } else if (args.workload == "service-loopback") {
    out = run_service_loopback(args);
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }

  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  if (args.trace) {
    const std::string spans =
        (args.run_dir / ("spans-" + args.workload + ".tsv")).string();
    if (!Tracer::get().write(spans)) {
      throw std::runtime_error("cannot write " + spans);
    }
    std::printf("spans written to %s\n", spans.c_str());
  }
  std::printf("profile %s\n", profile_stamp(args).c_str());

  std::string metrics;
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      out.failed == 0 ? "true" : "false",
      static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace antbench

int main(int argc, char** argv) {
  try {
    return antbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "antbench: %s\n", e.what());
    return 1;
  }
}
