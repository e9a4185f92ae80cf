// Workload service-loopback: the daemon and the fleet over loopback, one
// process, at most nproc client threads and connections.
//   daemon phase — a closed loop of 2 submitting clients: each submits a
//                  small aggregate job (many cells, few rounds), subscribes,
//                  and waits for a JobDone that passes verify(). A third
//                  connection subscribes to every job as a second feed
//                  consumer. The outbound, fan-out side of net.
//   fleet phase  — one CoordinatorServer and 3 in-process run_workers with
//                  small leases over cheap cells, repeated: lease traffic
//                  and CellResult decode + merge dominate. The inbound side
//                  of the codec, plus orch and the sim merger.
//
// Operations: each job (submitter's verify), each job again at the second
// consumer, each fleet cell (bit-identical to the in-process run), plus one
// CSV comparison of a fetched daemon job against an in-process run_campaign
// of the same JobSpec and one eviction check.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench.h"
#include "campaign_util.h"
#include "layers.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "orch/coordinator.h"
#include "orch/lease.h"
#include "orch/worker.h"
#include "parallel/thread_pool.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "tracer.h"

namespace antbench {

using namespace antalloc;

namespace {

constexpr int kSubmitters = 2;
constexpr int kWorkers = 3;
constexpr int kSetupRepeats = 201;
// 200 jobs per batch: at least ten beyond each batch's p95.
constexpr int kJobsPerClient = 100;
constexpr double kWarmupSeconds = 2.0;
constexpr double kDaemonShare = 0.6;  // of the measured time; the fleet the rest
constexpr std::size_t kCapturedJobs = 40;
const char* const kHost = "127.0.0.1";

// A small aggregate job: every registry scenario × two algorithms, few
// rounds. The seed varies per job so no two jobs are the same campaign.
JobSpec daemon_job(std::uint64_t seed) {
  JobSpec job;
  job.scenarios = scenario_names();
  job.algos = {JobAlgo{.name = "ant", .gamma = 0.05},
               JobAlgo{.name = "trivial", .gamma = 0.05}};
  job.noise = JobNoise{.kind = NoiseKind::kSigmoid, .lambda = 0.2};
  job.demands = {400, 300, 200, 100};
  job.n_ants = 4096;
  job.rounds = 300;
  job.seed = seed;
  job.replicates = 1;
  job.engine = Engine::kAggregate;
  return job;
}

// Cheap cells for the fleet: the registry × four kernel algorithms.
JobSpec fleet_job(std::uint64_t seed) {
  JobSpec job = daemon_job(seed);
  job.algos = {JobAlgo{.name = "ant", .gamma = 0.05},
               JobAlgo{.name = "trivial", .gamma = 0.05},
               JobAlgo{.name = "sharp-threshold", .gamma = 0.05},
               JobAlgo{.name = "oracle", .gamma = 0.05}};
  job.rounds = 100;
  return job;
}

std::int64_t job_rounds(const JobSpec& job) {
  return static_cast<std::int64_t>(job.scenarios.size() * job.algos.size()) *
         job.replicates * job.rounds;
}

std::uint64_t feed_job_id(const Message& m) {
  if (const auto* s = std::get_if<Snapshot>(&m)) return s->job_id;
  if (const auto* d = std::get_if<MetricDelta>(&m)) return d->job_id;
  if (const auto* p = std::get_if<ProgressDelta>(&m)) return p->job_id;
  if (const auto* j = std::get_if<JobDone>(&m)) return j->job_id;
  return 0;
}

// One submitted job as its submitter saw it.
struct JobRecord {
  JobSpec spec;
  double latency_s = 0.0;
  double first_delta_s = -1.0;  // submit to the first cell received
  std::size_t frames = 0;
  bool verified = false;
  std::vector<Message> captured;  // every message, for the first jobs only
  std::optional<CampaignResult> result;  // kept for the CSV check
};

// Job ids accepted by submitters, handed to the second consumer.
struct IdQueue {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::uint64_t> ids;  // guarded by mutex
  bool closed = false;            // guarded by mutex
};

struct DaemonPhase {
  std::vector<JobRecord> jobs;
  double wall_s = 0.0;
  std::size_t observed_ok = 0;
  std::size_t observed_bad = 0;
  std::uint64_t evictions = 0;
  std::vector<std::string> errors;
  // Per closed-loop batch (run_daemon_phase only): throughput and latency
  // quantiles, so a slow stretch of the machine moves one batch, not the
  // run's figures.
  std::vector<double> batch_rounds_per_s;
  std::vector<double> batch_p50_ms;
  std::vector<double> batch_p95_ms;
};

// One closed-loop batch against a started server with connected clients:
// every submitter runs `jobs_per_client` jobs back to back. Job seeds derive
// from `seed` and `first_job`. With `capture`, submitter 0 keeps every
// message of its first kCapturedJobs jobs.
DaemonPhase run_daemon_batch(std::vector<std::unique_ptr<DaemonClient>>& subs,
                             DaemonClient& observer, std::uint64_t seed,
                             std::uint64_t first_job, int jobs_per_client,
                             bool capture) {
  DaemonPhase phase;
  IdQueue queue;
  std::mutex mutex;  // guards phase.jobs, phase.errors and the observed counts
  std::atomic<std::uint64_t> counter{first_job};
  const auto start = Clock::now();

  std::thread watcher([&] {
    std::map<std::uint64_t, FeedAssembler> feeds;
    try {
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(queue.mutex);
          if (feeds.empty()) {
            queue.cv.wait(lock,
                          [&] { return queue.closed || !queue.ids.empty(); });
            if (queue.ids.empty()) break;  // closed and drained
          }
          while (!queue.ids.empty()) {
            const std::uint64_t id = queue.ids.front();
            queue.ids.pop_front();
            lock.unlock();
            observer.send(Message{Subscribe{.job_id = id}});
            feeds[id];
            lock.lock();
          }
        }
        const Message m = observer.recv();
        const auto it = feeds.find(feed_job_id(m));
        if (it == feeds.end()) throw ProtocolError("unexpected frame");
        if (it->second.fold(m)) {
          const bool ok = it->second.verify() && it->second.job_done()->ok == 1;
          feeds.erase(it);
          std::lock_guard<std::mutex> lock(mutex);
          ++(ok ? phase.observed_ok : phase.observed_bad);
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex);
      phase.errors.push_back(std::string("second consumer: ") + e.what());
    }
  });

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < subs.size(); ++c) {
    clients.emplace_back([&, c] {
      DaemonClient& client = *subs[c];
      try {
        for (int n = 0; n < jobs_per_client; ++n) {
          JobRecord rec;
          rec.spec = daemon_job(rng::hash_combine(seed, counter.fetch_add(1)));
          const bool record = capture && c == 0 &&
                            static_cast<std::size_t>(n) < kCapturedJobs;
          Span span("net.job");
          const auto t0 = Clock::now();
          client.send(Message{SubmitJob{.job = rec.spec}});
          Message reply = client.recv();
          ++rec.frames;
          const auto* accepted = std::get_if<JobAccepted>(&reply);
          if (accepted == nullptr) throw ProtocolError("job not accepted");
          const std::uint64_t id = accepted->job_id;
          if (record) rec.captured.push_back(std::move(reply));
          {
            std::lock_guard<std::mutex> lock(queue.mutex);
            queue.ids.push_back(id);
          }
          queue.cv.notify_one();
          client.send(Message{Subscribe{.job_id = id}});
          FeedAssembler feed;
          for (;;) {
            Message m = client.recv();
            ++rec.frames;
            // The first cell to reach the client: a MetricDelta, or a
            // Snapshot that already carries folded cells.
            const auto* snap = std::get_if<Snapshot>(&m);
            if (rec.first_delta_s < 0.0 &&
                (std::holds_alternative<MetricDelta>(m) ||
                 (snap != nullptr && !snap->cells.empty()))) {
              rec.first_delta_s = seconds_since(t0);
            }
            const bool done = feed.fold(m);
            if (record) rec.captured.push_back(std::move(m));
            if (done) break;
          }
          rec.latency_s = seconds_since(t0);
          span.set_items(static_cast<std::int64_t>(rec.frames));
          rec.verified = feed.verify() && feed.job_done()->ok == 1;
          if (c == 0 && n == 0) rec.result = feed.result();
          std::lock_guard<std::mutex> lock(mutex);
          phase.jobs.push_back(std::move(rec));
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mutex);
        phase.errors.push_back(std::string("submitter: ") + e.what());
      }
    });
  }
  for (auto& t : clients) t.join();
  phase.wall_s = seconds_since(start);
  {
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.closed = true;
  }
  queue.cv.notify_one();
  watcher.join();
  return phase;
}

struct FleetRun {
  CampaignResult result;
  double wall_s = 0.0;
  CoordinatorServer::Stats stats;
};

FleetRun run_fleet(const JobSpec& spec) {
  CoordinatorOptions opts;
  opts.job = spec;
  opts.lease.cells_per_lease = 2;
  CoordinatorServer server(std::move(opts));
  FleetRun run;
  std::vector<std::string> errors(kWorkers);
  const auto start = Clock::now();
  server.start();
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      try {
        run_worker(kHost, server.port(),
                   WorkerOptions{.name = "w" + std::to_string(w)});
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(w)] = e.what();
      }
    });
  }
  const bool ok = server.wait_done();
  run.wall_s = seconds_since(start);
  for (auto& t : workers) t.join();
  server.stop();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("fleet worker: " + e);
  }
  if (!ok) throw std::runtime_error("fleet failed: " + server.error());
  run.result = server.result();
  run.stats = server.stats();
  return run;
}

struct Service {
  std::unique_ptr<DaemonServer> server;
  std::unique_ptr<DaemonClient> observer;
  std::vector<std::unique_ptr<DaemonClient>> submitters;
};

// Executor spin-up (first call only), daemon bind, and the three client
// connections with their hello exchange.
Service set_up() {
  global_pool();
  Service s;
  s.server = std::make_unique<DaemonServer>();
  s.server->start();
  s.observer = std::make_unique<DaemonClient>(kHost, s.server->port());
  for (int c = 0; c < kSubmitters; ++c) {
    s.submitters.push_back(
        std::make_unique<DaemonClient>(kHost, s.server->port()));
  }
  return s;
}

void check_daemon_phase(const DaemonPhase& phase, Outcome& out) {
  for (const std::string& e : phase.errors) out.check(false, e);
  for (const JobRecord& j : phase.jobs) {
    out.check(j.verified, "daemon job failed verify()");
  }
  for (std::size_t i = 0; i < phase.observed_ok; ++i) out.check(true, "");
  for (std::size_t i = 0; i < phase.observed_bad; ++i) {
    out.check(false, "second consumer's feed failed verify()");
  }
}

void check_fleet(const FleetRun& run, const CampaignResult& inproc,
                 Outcome& out) {
  const bool same_csv = run.result.to_csv() == inproc.to_csv();
  for (std::size_t i = 0; i < inproc.cells.size(); ++i) {
    out.check(same_csv && i < run.result.cells.size() &&
                  cells_identical(run.result.cells[i], inproc.cells[i]),
              "fleet cell " + std::to_string(i) +
                  " differs from the in-process run");
  }
}

// Closed-loop batches, each against a freshly set-up daemon (so the
// daemon's retained job feeds stay bounded), until `seconds` have passed.
// `after_batch` runs after each batch, outside its timing.
DaemonPhase run_daemon_phase(
    std::uint64_t seed, double seconds, bool capture, Outcome& out,
    const std::function<void(double batch_wall_s)>& after_batch = {}) {
  DaemonPhase all;
  std::uint64_t next_job = 0;
  measure_loop(seconds, 2, [&](int batch) {
    Service svc = set_up();
    DaemonPhase phase =
        run_daemon_batch(svc.submitters, *svc.observer, seed, next_job,
                         kJobsPerClient, capture && batch == 0);
    next_job += kSubmitters * kJobsPerClient;
    const DaemonServer::Stats stats = svc.server->stats();
    out.check(stats.evictions == 0 && stats.jobs_rejected == 0,
              "daemon evicted a connection or rejected a job");
    all.evictions += stats.evictions;
    all.wall_s += phase.wall_s;
    std::int64_t rounds = 0;
    std::vector<double> latency_ms;
    for (const JobRecord& j : phase.jobs) {
      rounds += job_rounds(j.spec);
      latency_ms.push_back(1e3 * j.latency_s);
    }
    all.batch_p50_ms.push_back(quantile(latency_ms, 0.5));
    all.batch_p95_ms.push_back(quantile(latency_ms, 0.95));
    all.batch_rounds_per_s.push_back(static_cast<double>(rounds) / phase.wall_s);
    all.observed_ok += phase.observed_ok;
    all.observed_bad += phase.observed_bad;
    for (auto& e : phase.errors) all.errors.push_back(std::move(e));
    for (auto& j : phase.jobs) all.jobs.push_back(std::move(j));
    if (after_batch) after_batch(phase.wall_s);
  });
  check_daemon_phase(all, out);
  return all;
}

}  // namespace

Outcome run_service_loopback(const Args& args) {
  Outcome out;

  Tracer& tracer = Tracer::get();
  const bool traced = tracer.enabled();
  tracer.enable(false);
  const JobSpec fleet_spec = fleet_job(args.seed);
  const CampaignResult inproc = run_campaign(campaign_from_job(fleet_spec));
  // Warm-up, untimed: the first seconds of multi-threaded load after start
  // run slow on virtual machines whose idle vCPUs need waking.
  run_daemon_phase(args.seed ^ 0x5eedull, kWarmupSeconds, false, out);
  measure_loop(kWarmupSeconds / 2, 1,
               [&](int) { check_fleet(run_fleet(fleet_spec), inproc, out); });

  if (!traced) {
    const double setup_s = median_setup_s(kSetupRepeats, set_up);
    // Daemon batches and fleet runs alternate through the whole run, so a
    // slow stretch of the machine weighs on both phases alike.
    std::vector<double> fleet_cells_per_s;
    const DaemonPhase phase = run_daemon_phase(
        args.seed, args.seconds, false, out, [&](double batch_wall_s) {
          measure_loop(batch_wall_s * (1.0 - kDaemonShare) / kDaemonShare, 1,
                       [&](int) {
                         const FleetRun run = run_fleet(fleet_spec);
                         check_fleet(run, inproc, out);
                         fleet_cells_per_s.push_back(
                             static_cast<double>(run.result.cells.size()) /
                             run.wall_s);
                       });
        });
    // Submitter 0's first job kept its reassembled result.
    const auto fetched = std::find_if(
        phase.jobs.begin(), phase.jobs.end(),
        [](const JobRecord& j) { return j.result.has_value(); });
    out.check(fetched != phase.jobs.end() &&
                  fetched->result->to_csv() ==
                      run_campaign(campaign_from_job(fetched->spec)).to_csv(),
              "fetched daemon CSV differs from the in-process run_campaign");
    E2E e;
    e.setup_s = setup_s;
    e.rounds_per_s = median(phase.batch_rounds_per_s);
    e.phase2_per_s = median(fleet_cells_per_s);
    e.latency_p50_ms = median(phase.batch_p50_ms);
    e.latency_p95_ms = median(phase.batch_p95_ms);
    e.latency_samples = phase.jobs.size();
    out.report.push_back("daemon: " + std::to_string(phase.batch_p95_ms.size()) +
                         " batches of " +
                         std::to_string(kSubmitters * kJobsPerClient) +
                         " jobs; latency figures are medians of per-batch "
                         "quantiles");
    emit_e2e(e, out);
    return out;
  }

  // Traced run. An untraced then a traced daemon phase give the overhead.
  const double daemon_s = 0.3 * args.seconds;
  const DaemonPhase plain = run_daemon_phase(args.seed, daemon_s, false, out);
  tracer.enable(true);
  const DaemonPhase phase = run_daemon_phase(args.seed, daemon_s, true, out);
  const double jobs = static_cast<double>(phase.jobs.size());
  const double overhead =
      (static_cast<double>(plain.jobs.size()) / plain.wall_s) /
          (jobs / phase.wall_s) -
      1.0;

  // Frames captured from the run, re-encoded (the bytes the daemon sent)
  // and decoded, several passes each.
  std::vector<Message> frames;
  double first_delta_ms = 0.0, frames_per_job = 0.0, busy = 0.0;
  for (const JobRecord& j : phase.jobs) {
    for (const Message& m : j.captured) frames.push_back(m);
    first_delta_ms += 1e3 * j.first_delta_s / jobs;
    frames_per_job += static_cast<double>(j.frames) / jobs;
    busy += j.latency_s;
  }
  std::vector<std::vector<std::uint8_t>> wire;
  std::uint64_t wire_bytes = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    wire.push_back(encode_frame(frames[i], static_cast<std::uint32_t>(i)));
    wire_bytes += wire.back().size();
  }
  constexpr int kCodecPasses = 20;
  for (int pass = 0; pass < kCodecPasses; ++pass) {
    Span span("net.encode", static_cast<std::int64_t>(wire_bytes));
    std::size_t total = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      total += encode_frame(frames[i], static_cast<std::uint32_t>(i)).size();
    }
    if (total != wire_bytes) throw std::runtime_error("re-encode differs");
  }
  for (int pass = 0; pass < kCodecPasses; ++pass) {
    Span span("net.decode", static_cast<std::int64_t>(wire_bytes));
    for (const auto& buf : wire) {
      keep(decode_message(decode_frame(buf)));
    }
  }

  // Fleet: one traced run, the in-process run of the same spec, the merger
  // fed the fleet's own cells, and the lease table driven through the same
  // cell count and lease size.
  FleetRun fleet;
  {
    Span span("orch.fleet");
    fleet = run_fleet(fleet_spec);
  }
  check_fleet(fleet, inproc, out);
  double inproc_s = 0.0;
  {
    Span span("sim.campaign_inproc");
    const auto start = Clock::now();
    const CampaignResult again = run_campaign(campaign_from_job(fleet_spec));
    inproc_s = seconds_since(start);
    out.check(again.to_csv() == inproc.to_csv(),
              "in-process fleet spec is not deterministic");
  }
  constexpr int kMergePasses = 50;
  const std::size_t cells = fleet.result.cells.size();
  for (int pass = 0; pass < kMergePasses; ++pass) {
    std::vector<CampaignCell> copy = fleet.result.cells;
    IncrementalMerger merger(cells, fleet.result.metrics,
                             IncrementalMerger::Duplicates::kVerifyEqual);
    Span span("sim.merge_add", static_cast<std::int64_t>(cells));
    for (CampaignCell& c : copy) merger.add(std::move(c));
  }
  std::int64_t lease_ops = 0;
  {
    Span span("orch.lease_table");
    for (int pass = 0; pass < kMergePasses; ++pass) {
      LeaseTable table(cells, LeaseOptions{.cells_per_lease = 2});
      std::int64_t now = 0;
      while (const std::optional<Lease> lease = table.grant(now)) {
        ++lease_ops;
        for (std::size_t c = 0; c < lease->cell_count; ++c) {
          table.complete(lease->first_cell + c, ++now);
          ++lease_ops;
        }
      }
    }
    span.set_items(lease_ops);
  }
  // One daemon job's compute, in process on the same executor.
  constexpr int kJobProbes = 20;
  double job_sim_s = 0.0;
  for (int i = 0; i < kJobProbes; ++i) {
    const JobSpec spec = phase.jobs[static_cast<std::size_t>(i)].spec;
    Span span("sim.job_inproc");
    const auto start = Clock::now();
    run_campaign(campaign_from_job(spec));
    job_sim_s += seconds_since(start) / kJobProbes;
  }

  LayerMetrics m;
  const auto enc = tracer.of("net.encode");
  const auto dec = tracer.of("net.decode");
  const auto merge = tracer.of("sim.merge_add");
  const auto lease = tracer.of("orch.lease_table");
  const double enc_Bps = static_cast<double>(enc.items) / enc.total_s;
  const double dec_Bps = static_cast<double>(dec.items) / dec.total_s;
  const double bytes_per_job =
      static_cast<double>(wire_bytes) /
      static_cast<double>(std::min<std::size_t>(kCapturedJobs, phase.jobs.size()));
  m.set("net.frames_per_job", frames_per_job);
  m.set("net.bytes_per_job", bytes_per_job);
  m.set("net.encode_MBps", enc_Bps / 1e6);
  m.set("net.decode_MBps", dec_Bps / 1e6);
  m.set("net.first_delta_ms", first_delta_ms);
  m.set("net.evictions", static_cast<double>(phase.evictions));
  m.set("sim.merge_add_us", 1e6 * merge.self_s / static_cast<double>(merge.items));
  m.set("orch.leases_granted", static_cast<double>(fleet.stats.leases_granted));
  m.set("orch.leases_expired", static_cast<double>(fleet.stats.leases_expired));
  m.set("orch.duplicate_share",
        static_cast<double>(fleet.stats.duplicates_verified) /
            static_cast<double>(fleet.stats.cells_folded));
  m.set("orch.lease_table_op_ns",
        1e9 * lease.self_s / static_cast<double>(lease.items));
  m.set("orch.overhead_share", 1.0 - inproc_s / fleet.wall_s);
  m.set("trace.overhead_share", overhead);

  // Busy time: the submitters' summed job latencies. Layers: each job's
  // compute (in process) and its frames through the codec for the two
  // consumers (the server encodes each payload once per consumer frame).
  const double sim_s = jobs * job_sim_s;
  const double net_s = jobs * 2.0 * bytes_per_job * (1.0 / enc_Bps + 1.0 / dec_Bps);
  const double unattributed = reconcile(
      "service-loopback", busy, {{"sim", sim_s}, {"net", net_s}},
      "submit-to-JobDone time outside the job's compute and codec: queueing "
      "behind the other submitter's job on the shared executor, poll-thread "
      "hand-offs and socket syscalls; the first cell reaches the submitter " +
          fmt(first_delta_ms) + " ms into a " + fmt(1e3 * busy / jobs) +
          " ms job",
      out);
  m.set("trace.unattributed_share", unattributed);
  report_roofline(4, m, out);
  m.emit(out);
  return out;
}

}  // namespace antbench
