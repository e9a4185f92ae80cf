// Shared flag → JobSpec parsing for the daemon-facing binaries.
//
// antalloc_cli's campaign mode and antalloc_client's submit subcommand read
// the SAME flags into the SAME declarative JobSpec, and both sides then go
// through campaign_from_job (net/server.h) — one construction path, which
// is what makes a daemon-submitted job and a batch CLI run of the same
// flags share a campaign_config_hash and produce byte-identical rows (the
// CI daemon smoke job cmp's exactly this).
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "agent/agent_sim.h"
#include "core/critical_value.h"
#include "core/demand.h"
#include "io/args.h"
#include "io/csv.h"
#include "net/protocol.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace antalloc {

// Noise + learning-rate flags, with the gamma defaulting the CLI has always
// applied: sigmoid → 1.5× the critical value at lambda (capped at 1/16.5),
// adv → 1.5×gamma_ad (same cap), exact → 0.05. The resolved gamma is what
// enters the JobSpec, so the default never has to be recomputed serverside.
struct NoiseFlags {
  JobNoise noise{};
  double gamma = 0.0;  // resolved: always > 0 on return
  double epsilon = 0.5;
};

inline NoiseFlags parse_noise_flags(Args& args, const DemandVector& demands) {
  NoiseFlags out;
  const std::string noise = args.get_string("noise", "sigmoid");
  const std::string adversary = args.get_string("adversary", "honest");
  out.noise.lambda = args.get_double("lambda", 0.2);
  out.noise.gamma_ad = args.get_double("gamma_ad", 0.02);
  out.gamma = args.get_double("gamma", 0.0);
  out.epsilon = args.get_double("epsilon", 0.5);
  if (noise == "sigmoid") {
    out.noise.kind = NoiseKind::kSigmoid;
    if (out.gamma <= 0.0) {
      out.gamma = std::min(
          1.0 / 16.5, 1.5 * critical_value_at(out.noise.lambda, demands, 1e-6));
    }
  } else if (noise == "adv") {
    out.noise.kind = NoiseKind::kAdv;
    out.noise.adversary = adversary;
    if (out.gamma <= 0.0) {
      out.gamma = std::min(1.0 / 16.5, 1.5 * out.noise.gamma_ad);
    }
  } else if (noise == "exact") {
    out.noise.kind = NoiseKind::kExact;
    if (out.gamma <= 0.0) out.gamma = 0.05;
  } else {
    throw std::invalid_argument("unknown noise '" + noise + "'");
  }
  return out;
}

// The full campaign-shaped flag set — everything a SubmitJob carries, with
// the same flag names and defaults antalloc_cli's campaign mode has.
inline JobSpec parse_job_spec(Args& args) {
  JobSpec job;
  const auto k = static_cast<std::int32_t>(args.get_int("k", 4));
  const Count demand = args.get_int("demand", 4000);
  const DemandVector demands = uniform_demands(k, demand);
  job.demands.assign(demands.values().begin(), demands.values().end());
  job.n_ants = args.get_int("n", 1 << 16);
  job.rounds = args.get_int("rounds", 8000);
  job.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  job.replicates = args.get_int("replicates", 2);
  job.engine = parse_engine(args.get_string("engine", "auto"));
  job.sampling = parse_sampling_mode(args.get_string("sampling", "batched"));
  job.initial = parse_initial_kind(args.get_string("initial", "idle"));
  const std::string scenarios_flag = args.get_string("scenarios", "all");
  job.scenarios = scenarios_flag == "all" ? scenario_names()
                                          : split_names(scenarios_flag);
  const NoiseFlags nf = parse_noise_flags(args, demands);
  job.noise = nf.noise;
  job.metrics_gamma = nf.gamma;
  for (const std::string& name : split_names(args.get_string("algos", "ant"))) {
    job.algos.push_back(
        JobAlgo{.name = name, .gamma = nf.gamma, .epsilon = nf.epsilon});
  }
  job.metrics = split_names(args.get_string("metrics", ""));
  return job;
}

}  // namespace antalloc
