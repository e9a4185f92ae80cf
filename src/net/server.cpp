#include "net/server.h"

#include <csignal>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "algo/registry.h"
#include "io/table.h"
#include "metrics/metric.h"
#include "noise/adversarial.h"
#include "noise/exact.h"
#include "noise/sigmoid.h"
#include "parallel/task_graph.h"
#include "sim/scenario.h"

namespace antalloc {

void block_termination_signals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

int wait_for_termination() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  int sig = 0;
  sigwait(&set, &sig);
  return sig;
}

// Job spec instantiation. ----------------------------------------------------

NoiseSpec noise_spec_from(const JobNoise& noise) {
  switch (noise.kind) {
    case NoiseKind::kSigmoid: {
      if (!(noise.lambda > 0.0)) {
        throw std::invalid_argument("sigmoid noise: lambda must be > 0");
      }
      const double lambda = noise.lambda;
      return {"sigmoid(lambda=" + Table::fmt(lambda, 3) + ")", [lambda] {
                return std::make_unique<SigmoidFeedback>(lambda);
              }};
    }
    case NoiseKind::kExact:
      return {"exact", [] { return std::make_unique<ExactFeedback>(); }};
    case NoiseKind::kAdv: {
      // Resolve once eagerly so an unknown adversary (or a bad gamma_ad) is
      // a submit-time rejection, not a mid-campaign failure.
      make_named_adversary(noise.adversary, noise.gamma_ad);
      const std::string name = noise.adversary;
      const double gamma_ad = noise.gamma_ad;
      return {"adv(" + name + ")", [name, gamma_ad] {
                return std::make_unique<AdversarialFeedback>(
                    gamma_ad, make_named_adversary(name, gamma_ad));
              }};
    }
  }
  throw std::invalid_argument("unknown noise kind");
}

CampaignConfig campaign_from_job(const JobSpec& job) {
  if (job.scenarios.empty()) {
    throw std::invalid_argument("job: at least one scenario required");
  }
  if (job.algos.empty()) {
    throw std::invalid_argument("job: at least one algorithm required");
  }
  if (job.demands.empty()) {
    throw std::invalid_argument("job: demand vector must be non-empty");
  }
  for (const Count d : job.demands) {
    if (d <= 0) throw std::invalid_argument("job: demands must be positive");
  }
  if (job.n_ants <= 0) {
    throw std::invalid_argument("job: n_ants must be positive");
  }
  if (job.rounds <= 0) {
    throw std::invalid_argument("job: rounds must be positive");
  }
  if (job.replicates <= 0) {
    throw std::invalid_argument("job: replicates must be positive");
  }

  CampaignConfig cfg;
  const DemandVector demands(job.demands);
  for (const std::string& name : job.scenarios) {
    if (!has_scenario(name)) {
      throw std::invalid_argument("unknown scenario '" + name + "'");
    }
    ScenarioSpec spec;
    spec.name = name;
    spec.initial = job.initial;
    spec.seed = job.seed;
    cfg.scenarios.push_back(make_scenario(spec, demands, job.rounds));
  }
  const std::vector<std::string> known = algorithm_names();
  for (const JobAlgo& a : job.algos) {
    if (std::find(known.begin(), known.end(), a.name) == known.end()) {
      throw std::invalid_argument("unknown algorithm '" + a.name + "'");
    }
    if (!(a.gamma > 0.0)) {
      throw std::invalid_argument("algorithm '" + a.name +
                                  "': gamma must be > 0");
    }
    if (job.engine == Engine::kAggregate && !has_aggregate_kernel(a.name)) {
      throw std::invalid_argument("algorithm '" + a.name +
                                  "' has no aggregate kernel");
    }
    cfg.algos.push_back(
        AlgoConfig{.name = a.name, .gamma = a.gamma, .epsilon = a.epsilon});
  }
  cfg.noises = {noise_spec_from(job.noise)};
  cfg.engine = job.engine;
  cfg.n_ants = job.n_ants;
  cfg.rounds = job.rounds;
  cfg.seed = job.seed;
  cfg.replicates = job.replicates;
  cfg.sampling = job.sampling;
  if (job.metrics_gamma > 0.0) cfg.metrics.gamma = job.metrics_gamma;
  // Stored raw (like the CLI's --metrics flag); campaign_config_hash and the
  // recorder resolve it. Resolving here makes unknown names a submit-time
  // rejection.
  resolve_metric_names(job.metrics);
  cfg.metrics.names = job.metrics;
  return cfg;
}

// Job state. -----------------------------------------------------------------

struct DaemonServer::Job {
  Job(FrameSink* sink, std::uint64_t id, std::uint64_t config_hash,
      std::uint64_t total_cells, CampaignConfig config_in,
      std::vector<std::string> metrics)
      : config(std::move(config_in)),
        feed(sink, id, config_hash, total_cells, config.replicates,
             std::move(metrics)) {}

  CampaignConfig config;
  JobFeed feed;
  // Cooperative cancellation (CancelJob): config.cancel points here, so
  // run_campaign stops at the next cell boundary and the job finishes as
  // failed ("cancelled") through the normal feed path.
  std::atomic<bool> cancel{false};
};

// Lifecycle. -----------------------------------------------------------------

DaemonServer::DaemonServer(DaemonOptions opts)
    : reactor_(*this, {.port = opts.port,
                       .max_queue_bytes = opts.max_queue_bytes,
                       .send_buffer_bytes = opts.send_buffer_bytes}) {}

DaemonServer::~DaemonServer() { stop(); }

void DaemonServer::start() { reactor_.start(); }

void DaemonServer::stop() {
  if (!reactor_.running()) return;
  // 1. Refuse new jobs (the command core checks stopping_ per submit).
  stopping_.store(true);
  // 2. Drain running campaigns — their final JobDone frames still go out.
  {
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    jobs_drained_.wait(lock, [this] { return active_jobs_ == 0; });
  }
  // 3. Stop the poll thread (it makes one best-effort flush pass on exit).
  reactor_.stop();
}

DaemonServer::Stats DaemonServer::stats() const {
  const Reactor::Stats io = reactor_.stats();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  Stats s = stats_;
  s.connections_accepted = io.connections_accepted;
  s.evictions = io.evictions;
  return s;
}

// Command core (poll thread). ------------------------------------------------

void DaemonServer::on_message(std::uint64_t conn_id, const Message& m) {
  if (const auto* submit = std::get_if<SubmitJob>(&m)) {
    handle_submit(conn_id, *submit);
  } else if (const auto* sub = std::get_if<Subscribe>(&m)) {
    handle_subscribe(conn_id, *sub);
  } else if (const auto* cancel = std::get_if<CancelJob>(&m)) {
    handle_cancel(conn_id, *cancel);
  } else {
    reactor_.send(conn_id,
                  Message{ErrorMsg{
                      .code = 405,
                      .message = "unexpected message type from client"}});
  }
}

void DaemonServer::handle_submit(std::uint64_t conn_id,
                                 const SubmitJob& submit) {
  if (stopping_.load()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.jobs_rejected;
    }
    reactor_.send(conn_id,
                  Message{JobRejected{.reason = "daemon is shutting down"}});
    return;
  }

  CampaignConfig cfg;
  try {
    cfg = campaign_from_job(submit.job);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.jobs_rejected;
    }
    reactor_.send(conn_id, Message{JobRejected{.reason = e.what()}});
    return;
  }

  const std::uint64_t hash = campaign_config_hash(cfg);
  const std::uint64_t total_cells = campaign_total_cells(cfg);
  std::vector<std::string> metrics = resolve_metric_names(cfg.metrics.names);

  std::shared_ptr<Job> job;
  std::uint64_t job_id = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job_id = next_job_id_++;
    job = std::make_shared<Job>(&reactor_, job_id, hash, total_cells,
                                std::move(cfg), std::move(metrics));
    job->config.progress = &job->feed;
    job->config.cancel = &job->cancel;
    jobs_.emplace(job_id, job);
    ++active_jobs_;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.jobs_accepted;
  }
  reactor_.send(conn_id,
                Message{JobAccepted{.job_id = job_id,
                                    .config_hash = hash,
                                    .total_cells = total_cells,
                                    .replicates = job->config.replicates}});

  // Execution: one plain task on the global work-stealing graph, whose body
  // is the SAME run_campaign the batch CLI calls — identical seeds,
  // identical folds, byte-identical rows.
  global_pool().submit([this, job] {
    try {
      const CampaignResult result = run_campaign(job->config);
      job->feed.finish(result);
    } catch (const std::exception& e) {
      job->feed.fail(e.what());
    } catch (...) {
      job->feed.fail("unknown campaign failure");
    }
    {
      // Notify UNDER the lock: stop() destroys this condvar right after its
      // wait observes active_jobs_ == 0, and holding the mutex through the
      // notify means that observation cannot happen until the notify has
      // fully returned.
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      --active_jobs_;
      jobs_drained_.notify_all();
    }
  });
}

void DaemonServer::handle_subscribe(std::uint64_t conn_id,
                                    const Subscribe& sub) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(sub.job_id);
    if (it != jobs_.end()) job = it->second;
  }
  if (job == nullptr) {
    reactor_.send(conn_id,
                  Message{ErrorMsg{.code = 404,
                                   .message = "unknown job id " +
                                              std::to_string(sub.job_id)}});
    return;
  }
  job->feed.subscribe(conn_id);
}

void DaemonServer::handle_cancel(std::uint64_t conn_id,
                                 const CancelJob& cancel) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(cancel.job_id);
    if (it != jobs_.end()) job = it->second;
  }
  if (job == nullptr) {
    reactor_.send(conn_id,
                  Message{ErrorMsg{.code = 404,
                                   .message = "unknown job id " +
                                              std::to_string(cancel.job_id)}});
    return;
  }
  // No success ack: cancellation is observed through the feed — the job
  // finishes as JobDone ok=0 ("campaign cancelled …") once run_campaign
  // drains. Cancelling a finished job is a harmless no-op.
  job->cancel.store(true);
}

}  // namespace antalloc
