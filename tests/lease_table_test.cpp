// LeaseTable: the coordinator's pure cell-state machine (orch/lease.h).
// Every time-dependent rule is pinned with synthetic now_ms values — grant
// contiguity, deadline floor, the straggler policy's median calibration,
// expiry returning cells to pending, idempotent completion under retry, and
// the journal-resume mark_done path. No sockets, no clocks, no threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "orch/lease.h"

namespace antalloc {
namespace {

LeaseOptions fast_opts() {
  LeaseOptions o;
  o.cells_per_lease = 4;
  o.min_deadline_ms = 100;
  o.straggler_factor = 4.0;
  return o;
}

TEST(LeaseTable, GrantsContiguousRunsThenNothing) {
  LeaseTable table(10, fast_opts());
  const auto a = table.grant(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first_cell, 0u);
  EXPECT_EQ(a->cell_count, 4u);

  const auto b = table.grant(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first_cell, 4u);
  EXPECT_EQ(b->cell_count, 4u);
  EXPECT_NE(b->id, a->id);

  // The ragged tail: 10 % 4 = 2 cells.
  const auto c = table.grant(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->first_cell, 8u);
  EXPECT_EQ(c->cell_count, 2u);

  // Everything is out on live leases — nothing grantable, not done.
  EXPECT_FALSE(table.grant(0).has_value());
  EXPECT_FALSE(table.all_done());
  EXPECT_EQ(table.cells_pending(), 0u);
  EXPECT_EQ(table.live_leases(), 3u);
}

TEST(LeaseTable, CompletionRetiresEmptiedLeasesAndCountsOnce) {
  LeaseTable table(6, fast_opts());
  const Lease a = *table.grant(0);  // cells [0, 4)
  const Lease b = *table.grant(0);  // cells [4, 6)

  EXPECT_TRUE(table.complete(0, 10).empty());
  EXPECT_TRUE(table.complete(1, 20).empty());
  EXPECT_TRUE(table.complete(2, 30).empty());
  // A duplicate completion (retry) changes nothing.
  EXPECT_TRUE(table.complete(1, 35).empty());
  EXPECT_EQ(table.cells_done(), 3u);

  // The fourth cell empties lease a.
  const auto retired = table.complete(3, 40);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], a.id);
  EXPECT_EQ(table.live_leases(), 1u);

  const auto retired_b = table.complete(4, 50);
  EXPECT_TRUE(retired_b.empty());
  const auto last = table.complete(5, 60);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0], b.id);
  EXPECT_TRUE(table.all_done());
  EXPECT_EQ(table.cells_done(), 6u);
  EXPECT_FALSE(table.grant(100).has_value());
}

TEST(LeaseTable, DeadlinePolicyFloorThenMedianTimesFactor) {
  LeaseTable table(12, fast_opts());
  // Cold table: no completed leases yet, so the floor rules.
  EXPECT_EQ(table.deadline_interval_ms(), 100);

  // Lease a completes in 1000ms: interval = max(4 * 1000, 100).
  const Lease a = *table.grant(0);
  for (std::size_t c = a.first_cell; c < a.first_cell + a.cell_count; ++c) {
    table.complete(c, 1000);
  }
  EXPECT_EQ(table.deadline_interval_ms(), 4000);

  // A second duration of 3000ms: median({1000, 3000}) = 2000 -> 8000.
  const Lease b = *table.grant(2000);
  for (std::size_t c = b.first_cell; c < b.first_cell + b.cell_count; ++c) {
    table.complete(c, 5000);
  }
  EXPECT_EQ(table.deadline_interval_ms(), 8000);

  // Fresh grants carry the policy as an absolute deadline.
  const Lease c = *table.grant(10'000);
  EXPECT_EQ(c.issued_ms, 10'000);
  EXPECT_EQ(c.deadline_ms, 18'000);

  // A fleet of instant finishers collapses the bar back to the floor.
  for (std::size_t i = 0; i < 40; ++i) {
    LeaseTable quick(4, fast_opts());
    const Lease l = *quick.grant(0);
    for (std::size_t cell = 0; cell < l.cell_count; ++cell) {
      quick.complete(cell, 0);
    }
    EXPECT_EQ(quick.deadline_interval_ms(), 100);
  }
}

TEST(LeaseTable, ExpireReturnsOverdueCellsToPending) {
  LeaseTable table(4, fast_opts());
  const Lease a = *table.grant(0);
  EXPECT_EQ(a.deadline_ms, 100);

  // Not yet due: nothing expires.
  EXPECT_TRUE(table.expire(99).empty());
  EXPECT_EQ(table.live_leases(), 1u);

  // Partially complete, then overdue: only the UNFINISHED cells return.
  table.complete(0, 50);
  const auto expired = table.expire(100);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, a.id);
  EXPECT_EQ(table.live_leases(), 0u);
  EXPECT_EQ(table.cells_pending(), 3u);
  EXPECT_EQ(table.cells_done(), 1u);

  // The reissue skips the done cell: next contiguous pending run is [1, 4).
  const auto b = table.grant(200);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first_cell, 1u);
  EXPECT_EQ(b->cell_count, 3u);
}

TEST(LeaseTable, NextDeadlineIsTheEarliestLiveLease) {
  // The coordinator sleeps until next_deadline_ms(), so it must name the
  // earliest live deadline and forget leases that retire or expire.
  LeaseTable table(12, fast_opts());
  EXPECT_FALSE(table.next_deadline_ms().has_value());

  const Lease a = *table.grant(0);   // due at 100
  const Lease b = *table.grant(30);  // due at 130
  EXPECT_EQ(table.next_deadline_ms(), a.deadline_ms);

  for (std::size_t c = a.first_cell; c < a.first_cell + a.cell_count; ++c) {
    table.complete(c, 40);
  }
  EXPECT_EQ(table.next_deadline_ms(), b.deadline_ms);

  ASSERT_EQ(table.expire(b.deadline_ms).size(), 1u);
  EXPECT_FALSE(table.next_deadline_ms().has_value());
}

TEST(LeaseTable, LateStragglerCompletionRetiresTheReplacementLease) {
  // The straggler scenario end to end: lease a expires, its cells are
  // re-leased as b, then completions (whichever worker raced them in) empty
  // b — complete() must retire b even though the completing worker may have
  // held a. complete() scans all live leases, not "the" lease of the cell.
  LeaseTable table(4, fast_opts());
  const Lease a = *table.grant(0);
  ASSERT_EQ(table.expire(a.deadline_ms).size(), 1u);
  const Lease b = *table.grant(200);
  EXPECT_EQ(b.first_cell, a.first_cell);

  table.complete(0, 300);
  table.complete(1, 300);
  table.complete(2, 300);
  const auto retired = table.complete(3, 300);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], b.id);
  EXPECT_TRUE(table.all_done());
}

TEST(LeaseTable, ReleaseDropsALiveLease) {
  LeaseTable table(6, fast_opts());
  const Lease a = *table.grant(0);
  table.complete(1, 10);  // one cell of the lease already done

  const auto released = table.release(a.id);
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->id, a.id);
  // The done cell stays done; only the leased ones return.
  EXPECT_EQ(table.cells_pending(), 5u);
  EXPECT_EQ(table.cells_done(), 1u);
  EXPECT_EQ(table.live_leases(), 0u);

  // Releasing an unknown (or already-released) lease is a no-op.
  EXPECT_FALSE(table.release(a.id).has_value());
  EXPECT_FALSE(table.release(999).has_value());
}

TEST(LeaseTable, MarkDoneRecoversJournaledCellsWithoutLeases) {
  LeaseTable table(6, fast_opts());
  table.mark_done(0);
  table.mark_done(3);
  table.mark_done(3);  // idempotent
  EXPECT_EQ(table.cells_done(), 2u);
  EXPECT_EQ(table.live_leases(), 0u);

  // Grants cover only the holes: [1, 3) then [4, 6).
  const auto a = table.grant(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first_cell, 1u);
  EXPECT_EQ(a->cell_count, 2u);
  const auto b = table.grant(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first_cell, 4u);
  EXPECT_EQ(b->cell_count, 2u);
  EXPECT_FALSE(table.grant(0).has_value());

  // Everything recovered or completed: done.
  for (const std::size_t cell : {1u, 2u, 4u, 5u}) table.complete(cell, 50);
  EXPECT_TRUE(table.all_done());
}

TEST(LeaseTable, ConstructorRejectsDegenerateOptions) {
  EXPECT_THROW(LeaseTable(0), std::invalid_argument);

  LeaseOptions zero_lease = fast_opts();
  zero_lease.cells_per_lease = 0;
  EXPECT_THROW(LeaseTable(4, zero_lease), std::invalid_argument);

  LeaseOptions no_floor = fast_opts();
  no_floor.min_deadline_ms = 0;
  EXPECT_THROW(LeaseTable(4, no_floor), std::invalid_argument);

  LeaseOptions sub_one = fast_opts();
  sub_one.straggler_factor = 0.5;
  EXPECT_THROW(LeaseTable(4, sub_one), std::invalid_argument);

  EXPECT_THROW(LeaseTable(4).mark_done(4), std::out_of_range);
  EXPECT_THROW(LeaseTable(4).complete(7, 0), std::out_of_range);
}

}  // namespace
}  // namespace antalloc
