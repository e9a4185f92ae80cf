// End-to-end fleet orchestration (src/orch/): an in-process
// CoordinatorServer with run_worker threads over real loopback sockets.
// The invariant every test pins is the tentpole contract — the merged
// CampaignResult::to_csv() is BYTE-identical to an unsharded run_campaign
// of the same spec, no matter how many workers served the fleet, died
// mid-lease, or straggled past their deadlines. Also pins the journal
// resume path (a restarted coordinator re-leases only the missing cells)
// and the coordinator's reply codes on bad traffic.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "orch/coordinator.h"
#include "orch/worker.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

// 3 scenarios x 2 algos x 1 noise = 6 cells, uneven per-cell cost (the
// churn family re-plans at every lifecycle change point) — enough cells for
// real lease churn, small enough to run the whole battery in seconds.
JobSpec fleet_job() {
  JobSpec job;
  job.scenarios = {"task-churn", "constant", "single-shock"};
  job.algos = {JobAlgo{.name = "ant", .gamma = 0.05},
               JobAlgo{.name = "trivial", .gamma = 0.05}};
  job.noise = JobNoise{.kind = NoiseKind::kSigmoid, .lambda = 1.0};
  job.demands = {Count{120}, Count{80}, Count{60}};
  job.n_ants = 600;
  job.rounds = 300;
  job.seed = 42;
  job.replicates = 2;
  job.initial = InitialKind::kUniform;
  return job;
}

CoordinatorOptions fleet_opts(const JobSpec& job,
                              std::size_t cells_per_lease = 2) {
  CoordinatorOptions opts;
  opts.port = 0;
  opts.job = job;
  opts.lease.cells_per_lease = cells_per_lease;
  return opts;
}

// Runs run_worker on its own thread, capturing the report or the exception.
struct WorkerThread {
  std::optional<WorkerReport> report;
  std::string error;
  std::thread thread;

  WorkerThread(std::uint16_t port, WorkerOptions opts) {
    thread = std::thread([this, port, opts] {
      try {
        report = run_worker("127.0.0.1", port, opts);
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
  }
  ~WorkerThread() {
    if (thread.joinable()) thread.join();
  }
  void join() { thread.join(); }
};

TEST(OrchFleet, ThreeWorkersMergeBitIdenticalToUnsharded) {
  const JobSpec job = fleet_job();
  const CampaignResult offline = run_campaign(campaign_from_job(job));

  CoordinatorServer server(fleet_opts(job));
  server.start();
  EXPECT_EQ(server.total_cells(), offline.cells.size());

  // A watcher subscribes BEFORE any worker exists: the live-feed path that
  // makes `antalloc_client watch` work against a coordinator unmodified.
  DaemonClient watcher("127.0.0.1", server.port());
  watcher.send(Message{Subscribe{.job_id = kCoordinatorJobId}});

  {
    WorkerThread w1(server.port(), WorkerOptions{.name = "w1"});
    WorkerThread w2(server.port(), WorkerOptions{.name = "w2"});
    WorkerThread w3(server.port(), WorkerOptions{.name = "w3"});
    ASSERT_TRUE(server.wait_done()) << server.error();
    w1.join();
    w2.join();
    w3.join();
    EXPECT_EQ(w1.error, "");
    EXPECT_EQ(w2.error, "");
    EXPECT_EQ(w3.error, "");
    // Every cell was shipped exactly once across the healthy fleet.
    ASSERT_TRUE(w1.report && w2.report && w3.report);
    EXPECT_EQ(w1.report->cells_shipped + w2.report->cells_shipped +
                  w3.report->cells_shipped,
              offline.cells.size());
    EXPECT_FALSE(w1.report->died);
  }

  EXPECT_EQ(server.result().to_csv(), offline.to_csv());
  EXPECT_EQ(server.config_hash(), campaign_config_hash(campaign_from_job(job)));

  const auto stats = server.stats();
  EXPECT_EQ(stats.cells_folded, offline.cells.size());
  EXPECT_EQ(stats.duplicates_verified, 0u);
  EXPECT_EQ(stats.cells_recovered, 0u);
  EXPECT_GE(stats.leases_granted, 3u);  // 6 cells / 2 per lease

  // The watcher's stream reassembles the same bytes.
  FeedAssembler assembler;
  while (!assembler.fold(watcher.recv())) {
  }
  EXPECT_TRUE(assembler.verify());
  EXPECT_EQ(assembler.result().to_csv(), offline.to_csv());
  EXPECT_EQ(assembler.job_done()->result_checksum,
            rng::hash_string(offline.to_csv()));
  server.stop();
}

TEST(OrchFleet, KilledWorkerCellsAreReissuedAndMergeExact) {
  const JobSpec job = fleet_job();
  const CampaignResult offline = run_campaign(campaign_from_job(job));

  CoordinatorServer server(fleet_opts(job));
  server.start();

  // The dying worker ships 3 cells then drops its connection — an odd count
  // against 2-cell leases, so it dies MID-lease with one cell outstanding.
  WorkerThread dying(server.port(),
                     WorkerOptions{.name = "dying", .fail_after_cells = 3});
  dying.join();
  ASSERT_TRUE(dying.report.has_value()) << dying.error;
  EXPECT_TRUE(dying.report->died);
  EXPECT_EQ(dying.report->cells_shipped, 3u);

  // The rescuer finishes whatever the table still holds.
  WorkerThread rescuer(server.port(), WorkerOptions{.name = "rescuer"});
  ASSERT_TRUE(server.wait_done()) << server.error();
  rescuer.join();
  EXPECT_EQ(rescuer.error, "");

  EXPECT_EQ(server.result().to_csv(), offline.to_csv());
  const auto stats = server.stats();
  EXPECT_EQ(stats.cells_folded, offline.cells.size());
  // The dying worker's unfinished lease went back to the table.
  EXPECT_GE(stats.leases_released, 1u);
  server.stop();
}

TEST(OrchFleet, StragglerDeadlineRevokesAndStillMergesExact) {
  // Every lease is overdue almost immediately (1ms floor, factor 1): the
  // sweep revokes the worker's lease while it is still computing, the cells
  // are reissued, and any late results fold as verified duplicates. The
  // merged bytes must not care.
  JobSpec job = fleet_job();
  job.rounds = 1500;  // each cell well past the 1ms deadline

  CoordinatorOptions opts = fleet_opts(job);
  opts.lease.min_deadline_ms = 1;
  opts.lease.straggler_factor = 1.0;
  CoordinatorServer server(opts);
  server.start();

  WorkerThread w1(server.port(), WorkerOptions{.name = "w1"});
  WorkerThread w2(server.port(), WorkerOptions{.name = "w2"});
  ASSERT_TRUE(server.wait_done()) << server.error();
  w1.join();
  w2.join();
  EXPECT_EQ(w1.error, "");
  EXPECT_EQ(w2.error, "");

  const CampaignResult offline = run_campaign(campaign_from_job(job));
  EXPECT_EQ(server.result().to_csv(), offline.to_csv());

  const auto stats = server.stats();
  EXPECT_EQ(stats.cells_folded, offline.cells.size());
  EXPECT_GE(stats.leases_expired, 1u);
  // Revocations reached the workers (some leases ended in cancellation).
  ASSERT_TRUE(w1.report && w2.report);
  EXPECT_GE(w1.report->leases_revoked + w2.report->leases_revoked, 1u);
  server.stop();
}

TEST(OrchFleet, JournalResumeReleasesOnlyMissingCells) {
  const JobSpec job = fleet_job();
  const CampaignResult offline = run_campaign(campaign_from_job(job));
  const std::string dir = test_util::make_temp_dir("orch_journal");
  const std::string journal = dir + "/fleet.journal";

  // Phase 1: a worker ships 2 cells and dies; the coordinator is stopped
  // (operator kill) with the campaign incomplete but the journal flushed.
  {
    CoordinatorOptions opts = fleet_opts(job);
    opts.journal_path = journal;
    CoordinatorServer server(opts);
    server.start();
    WorkerThread dying(server.port(),
                       WorkerOptions{.name = "dying", .fail_after_cells = 2});
    dying.join();
    ASSERT_TRUE(dying.report.has_value()) << dying.error;
    // The two shipped cells land asynchronously; wait for both folds.
    for (int i = 0; i < 2000 && server.stats().cells_folded < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server.stats().cells_folded, 2u);
    server.stop();
    EXPECT_FALSE(server.wait_done());
    EXPECT_NE(server.error().find("stopped"), std::string::npos);
  }

  // Phase 2: a fresh coordinator on the same journal recovers the folded
  // cells without leasing them, and a fresh worker computes only the rest.
  {
    CoordinatorOptions opts = fleet_opts(job);
    opts.journal_path = journal;
    CoordinatorServer server(opts);
    EXPECT_EQ(server.stats().cells_recovered, 2u);
    server.start();
    WorkerThread finisher(server.port(), WorkerOptions{.name = "finisher"});
    ASSERT_TRUE(server.wait_done()) << server.error();
    finisher.join();
    ASSERT_TRUE(finisher.report.has_value()) << finisher.error;
    EXPECT_EQ(finisher.report->cells_shipped, offline.cells.size() - 2);

    EXPECT_EQ(server.result().to_csv(), offline.to_csv());
    EXPECT_EQ(server.stats().cells_folded, offline.cells.size() - 2);
    server.stop();
  }

  // Phase 3: the completed journal alone rebuilds the result — a restart
  // after the final fold needs no workers at all.
  {
    CoordinatorOptions opts = fleet_opts(job);
    opts.journal_path = journal;
    CoordinatorServer server(opts);
    EXPECT_EQ(server.stats().cells_recovered, offline.cells.size());
    ASSERT_TRUE(server.wait_done());
    EXPECT_EQ(server.result().to_csv(), offline.to_csv());
  }

  // A journal must never seed a DIFFERENT campaign: same path, new seed.
  {
    JobSpec other = job;
    other.seed = 1234;
    CoordinatorOptions opts = fleet_opts(other);
    opts.journal_path = journal;
    EXPECT_THROW(CoordinatorServer{opts}, std::runtime_error);
  }
}

// Lowers the process's file-size limit, with SIGXFSZ ignored so a write
// past it fails with EFBIG instead of killing the process; restores both.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = SIG_DFL;
};

TEST(OrchFleet, JournalWriteFailureFailsTheCampaignByName) {
  // A folded cell the journal cannot make durable must fail the campaign
  // with a named error — not escape the poll thread and terminate.
  const JobSpec job = fleet_job();
  const std::string dir = test_util::make_temp_dir("orch_journal_full");
  const std::string journal = dir + "/fleet.journal";
  CoordinatorOptions opts = fleet_opts(job);
  opts.journal_path = journal;
  CoordinatorServer server(opts);

  // The header is on disk; not one row fits under the limit.
  const FileSizeLimit limit(std::filesystem::file_size(journal));
  server.start();
  WorkerThread worker(server.port(), WorkerOptions{.name = "w"});
  EXPECT_FALSE(server.wait_done());
  EXPECT_NE(server.error().find("journal write failed"), std::string::npos)
      << server.error();
  EXPECT_NE(server.error().find(journal), std::string::npos)
      << server.error();
  EXPECT_EQ(server.stats().cells_folded, 0u);

  // The failure sends the worker home with a done-grant.
  worker.join();
  EXPECT_EQ(worker.error, "");
  server.stop();
}

TEST(OrchFleet, WrongConfigHashResultIsRefused) {
  const JobSpec job = fleet_job();
  CoordinatorServer server(fleet_opts(job));
  server.start();

  DaemonClient probe("127.0.0.1", server.port());
  probe.send(Message{LeaseRequest{.worker = "probe"}});
  const Message reply = probe.recv();
  const auto* grant = std::get_if<LeaseGrant>(&reply);
  ASSERT_NE(grant, nullptr);
  EXPECT_EQ(grant->done, 0);
  EXPECT_EQ(grant->config_hash, server.config_hash());
  EXPECT_EQ(grant->cell_count, 2u);

  // A well-shaped cell under a skewed config hash: refused with 409, never
  // folded — a worker built from different code cannot contribute numbers.
  CellResult bogus;
  bogus.lease_id = grant->lease_id;
  bogus.config_hash = grant->config_hash ^ 1;
  bogus.cell.flat_index = grant->first_cell;
  bogus.cell.scenario = "task-churn";
  bogus.cell.algo = "ant";
  bogus.cell.noise = "sigmoid(lambda=1.000)";
  bogus.cell.stats.resize(3);  // default metrics: regret/violations/switches
  probe.send(Message{bogus});
  const Message err = probe.recv();
  const auto* error = std::get_if<ErrorMsg>(&err);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, 409u);
  EXPECT_EQ(server.stats().cells_folded, 0u);

  // Subscribing to anything but the coordinator's single job is a 404.
  DaemonClient other("127.0.0.1", server.port());
  other.send(Message{Subscribe{.job_id = 99}});
  const Message nak = other.recv();
  ASSERT_TRUE(std::holds_alternative<ErrorMsg>(nak));
  EXPECT_EQ(std::get<ErrorMsg>(nak).code, 404u);
  server.stop();
}

TEST(OrchFleet, CoordinatorRejectsUnbuildableJob) {
  JobSpec job = fleet_job();
  job.scenarios = {"no-such-family"};
  EXPECT_THROW(CoordinatorServer{fleet_opts(job)}, std::invalid_argument);
}

}  // namespace
}  // namespace antalloc
