// The antalloc daemon: a long-running service that accepts campaign jobs
// over the net/protocol.h wire format and streams live results to
// subscribers — the ROADMAP's "many clients, one hot engine" shape.
//
// ## Architecture
//
// The daemon is a Handler on a Reactor (net/reactor.h), the one connection
// core. on_message is the single-threaded command core: every SubmitJob,
// Subscribe and CancelJob is handled on the poll thread in arrival order,
// with no locking between commands. Execution is elsewhere: an accepted job
// is one submit() onto the process-global work-stealing TaskGraph
// (parallel/task_graph.h), whose body is a plain run_campaign of the config
// built from the wire spec. The daemon adds no scheduling of its own, which
// is why a daemon-submitted job's CampaignResult rows are byte-identical to
// a batch CLI run of the same spec (tests/daemon_feed_test.cpp and the CI
// smoke job both cmp this).
//
// Publishing crosses back: executor threads fold cells, and the job's
// JobFeed (net/feed.h) hands each encoded delta straight to the reactor,
// which frames it with the target connection's sequence number and queues
// it. Lock order is feed mutex -> reactor io mutex, never the reverse.
//
// ## Backpressure
//
// The daemon never blocks on a client. A connection whose unsent backlog
// exceeds DaemonOptions::max_queue_bytes is EVICTED by the reactor and
// dropped from every feed — the campaign and the other subscribers never
// notice (tests/feed_stress_test.cpp pins this under the sanitizers in CI).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/feed.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "sim/campaign.h"

namespace antalloc {

// JobSpec -> the exact CampaignConfig (and so campaign_config_hash) a batch
// run of the same spec builds: registry lookups for scenarios/algos/metrics,
// noise_spec_from for the third axis. Throws std::invalid_argument on
// anything unresolvable — the daemon turns that into a JobRejected.
CampaignConfig campaign_from_job(const JobSpec& job);

// Foreground-daemon signal handling: block SIGINT/SIGTERM in the calling
// thread BEFORE DaemonServer::start() (spawned threads inherit the mask, so
// no thread takes the default terminating action), then wait_for_termination
// blocks until one arrives and returns it — the cue for a graceful stop().
void block_termination_signals();
int wait_for_termination();

// The wire noise spec -> the in-process factory, with the SAME display name
// the CLI builds ("sigmoid(lambda=0.200)", "adv(honest)", "exact") — the
// name enters campaign_config_hash, so it must be character-identical.
NoiseSpec noise_spec_from(const JobNoise& noise);

struct DaemonOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; read back via DaemonServer::port()
  // Unsent-bytes bound per connection; crossing it evicts the connection.
  std::size_t max_queue_bytes = 4u << 20;
  // When > 0, shrink each connection's kernel send buffer (SO_SNDBUF) so
  // backlog surfaces in the user-space queue — how the stress test makes a
  // slow consumer hit max_queue_bytes with small payloads.
  int send_buffer_bytes = 0;
};

class DaemonServer final : private Reactor::Handler {
 public:
  explicit DaemonServer(DaemonOptions opts = {});
  ~DaemonServer() override;  // stop()

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  // Binds, listens (loopback only), and starts the poll thread. Throws
  // ProtocolIoError on any socket failure.
  void start();

  // Graceful shutdown: new jobs are rejected, running jobs drain, then the
  // poll thread stops and every socket closes. Idempotent.
  void stop();

  // The bound port (after start()).
  std::uint16_t port() const { return reactor_.port(); }

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t jobs_accepted = 0;
    std::uint64_t jobs_rejected = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  struct Job;

  // Reactor::Handler: the command core (poll thread, no lock held).
  void on_message(std::uint64_t conn_id, const Message& m) override;
  void handle_submit(std::uint64_t conn_id, const SubmitJob& submit);
  void handle_subscribe(std::uint64_t conn_id, const Subscribe& sub);
  void handle_cancel(std::uint64_t conn_id, const CancelJob& cancel);

  // Declared first: it outlives the jobs whose feeds publish through it.
  Reactor reactor_;
  std::atomic<bool> stopping_{false};

  // Job table: owned by the command core; feeds outlive their campaign so
  // late subscribers replay the final snapshot ("fetch").
  mutable std::mutex jobs_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 1;
  std::size_t active_jobs_ = 0;
  std::condition_variable jobs_drained_;

  mutable std::mutex stats_mutex_;
  Stats stats_;  // job counters; the connection counters live in reactor_
};

}  // namespace antalloc
