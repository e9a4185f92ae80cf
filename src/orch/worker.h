// The fleet worker: the computing half of src/orch/ (the leasing half is
// coordinator.h).
//
// run_worker connects to a coordinator, then loops: LeaseRequest → wait for
// the LeaseGrant → rebuild the EXACT campaign from the grant's declarative
// JobSpec (campaign_from_job — the worker verifies campaign_config_hash
// against the grant and refuses a mismatch, so a skewed binary can never
// contribute numbers), run the leased cells as an explicit-cell ShardSpec
// through the ordinary run_campaign, and ship every cell the moment it
// folds as a CellResult frame. When the grant comes back done=1 the
// campaign is complete and the worker returns.
//
// A LeaseRevoked for the current lease (the coordinator decided this worker
// is straggling and reissued the cells) sets the campaign's cooperative
// cancel flag: the run stops at the next cell boundary
// (CampaignCancelledError), already-shipped cells remain valid — they fold
// coordinator-side as verified duplicates at worst — and the worker asks
// for a fresh lease. Determinism makes all of this safe: a leased cell's
// numbers depend only on the campaign spec and the cell's matrix
// coordinate, never on which worker computes it or how often.
//
// Threading: the calling thread owns the request/run loop; one watcher
// thread is the connection's only reader (frames can arrive mid-campaign —
// revocations must interrupt, not queue behind the next request). Sends are
// mutex-serialized because progress callbacks ship results from executor
// threads while the main loop sends requests.
#pragma once

#include <cstdint>
#include <string>

#include "sim/campaign.h"

namespace antalloc {

struct WorkerOptions {
  // Display identity in LeaseRequests (coordinator logs/bookkeeping only).
  std::string name = "worker";
  // TEST HOOK — simulated worker death: after shipping this many cells
  // (across all leases), drop the connection mid-lease and return with
  // WorkerReport::died set. The coordinator sees an ordinary disconnect and
  // releases the unfinished cells. 0 = never.
  std::size_t fail_after_cells = 0;
  // The executor leased cells run on; nullptr = global_pool().
  TaskGraph* pool = nullptr;
};

struct WorkerReport {
  std::uint64_t leases_completed = 0;  // ran every owned cell to the end
  std::uint64_t leases_revoked = 0;    // cancelled by LeaseRevoked
  std::uint64_t cells_shipped = 0;     // CellResult frames sent
  bool died = false;                   // fail_after_cells triggered
};

// Works for the coordinator at host:port until the campaign completes (or
// fail_after_cells triggers). Throws the net/protocol.h error types on a
// lost/damaged connection or a coordinator whose grants contradict
// themselves (hash mismatch, unexpected reply).
WorkerReport run_worker(const std::string& host, std::uint16_t port,
                        const WorkerOptions& opts = {});

}  // namespace antalloc
