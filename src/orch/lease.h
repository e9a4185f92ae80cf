// Lease table: the coordinator's view of a campaign's flat cell space.
//
// Every cell of the (scenario × algo × noise) matrix is in exactly one of
// three states — pending (unowned), leased (granted to a worker, deadline
// attached), or done (first completion folded). grant() hands out the next
// contiguous run of pending cells; expire() returns overdue leases' cells
// to pending so the next free worker recomputes them; complete() retires
// cells as results land, regardless of which lease (live, expired, or long
// dead) computed them — exactly-once folding is the MERGER's job
// (IncrementalMerger, first-completion-wins), the table only tracks what
// still needs computing.
//
// Deadline policy: a fresh lease is due after
//   max(min_deadline_ms, straggler_factor × median completed-lease time)
// so the bar self-calibrates — early leases get the generous floor, and
// once real completion times exist a straggler is "past a configurable
// multiple of the median shard time", the classic speculative-retry rule.
//
// The table is PURE logic: no sockets, no clock, no threads. Callers pass
// `now_ms` (any monotone milliseconds source) into every time-dependent
// call, which is what makes lease_table_test able to pin the straggler
// policy deterministically.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace antalloc {

struct LeaseOptions {
  // Maximum cells per grant. Small ranges re-balance better when workers
  // are heterogeneous; large ranges amortize per-lease overhead.
  std::size_t cells_per_lease = 4;
  // Floor on every deadline: no lease is ever due sooner than this, so a
  // cold fleet (no medians yet) is never declared straggling instantly.
  std::int64_t min_deadline_ms = 30'000;
  // A lease is overdue once it is this multiple of the median completed
  // lease duration old (subject to the floor above).
  double straggler_factor = 4.0;
};

struct Lease {
  std::uint64_t id = 0;
  std::size_t first_cell = 0;
  std::size_t cell_count = 0;
  std::int64_t issued_ms = 0;
  std::int64_t deadline_ms = 0;  // absolute: issued_ms + interval
};

class LeaseTable {
 public:
  explicit LeaseTable(std::size_t total_cells, LeaseOptions opts = {});

  // Marks a cell done outside any lease — the resume path: cells recovered
  // from a CellJournal are never re-leased. Idempotent.
  void mark_done(std::size_t cell);

  // Grants a lease over the first contiguous run of pending cells (up to
  // cells_per_lease). std::nullopt when nothing is pending — either the
  // campaign is complete (all_done()) or every remaining cell is out on a
  // live lease (retry later, after a completion or an expiry).
  std::optional<Lease> grant(std::int64_t now_ms);

  // Records cell completion at now_ms. Idempotent (duplicate completions
  // are normal under retry). When the completion empties a live lease, that
  // lease retires and its duration feeds the straggler median; the retired
  // lease ids come back so the caller can drop its own bookkeeping.
  std::vector<std::uint64_t> complete(std::size_t cell, std::int64_t now_ms);

  // Drops a live lease (worker death): its unfinished cells return to
  // pending. Returns the lease if it was live.
  std::optional<Lease> release(std::uint64_t lease_id);

  // Retires every live lease whose deadline passed; their unfinished cells
  // return to pending. Returns the expired leases (for revocation notices).
  std::vector<Lease> expire(std::int64_t now_ms);

  // The earliest deadline among live leases (std::nullopt when none is
  // live) — when the next expire() can retire anything.
  std::optional<std::int64_t> next_deadline_ms() const;

  // The interval a lease granted now would get: the straggler policy above.
  std::int64_t deadline_interval_ms() const;

  std::size_t total_cells() const { return state_.size(); }
  std::size_t cells_done() const { return done_; }
  bool all_done() const { return done_ == state_.size(); }
  // Cells currently grantable (pending, not on any live lease).
  std::size_t cells_pending() const;
  std::size_t live_leases() const { return leases_.size(); }

 private:
  enum class CellState : std::uint8_t { kPending, kLeased, kDone };

  LeaseOptions opts_;
  std::vector<CellState> state_;
  std::size_t done_ = 0;
  std::uint64_t next_lease_id_ = 1;
  std::vector<Lease> leases_;          // live only
  std::vector<double> durations_ms_;   // completed-lease durations
};

}  // namespace antalloc
