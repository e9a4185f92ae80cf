// Campaign-side helpers shared by the sweep-aggregate and colony-agent
// workloads: a fold-time observer, the serial run_replicate cross-check,
// and the bit-level comparison of campaign cells.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "sim/campaign.h"

namespace antbench {

// Records when each cell folds, relative to start(), and the executor's
// steal count at the last fold.
class FoldClock final : public antalloc::CampaignProgress {
 public:
  void start() {
    start_ = Clock::now();
    fold_s.clear();
    steals = 0;
  }
  void on_cell_done(const Update& update) override {
    fold_s.push_back(seconds_since(start_));
    steals = update.steals;
  }

  std::vector<double> fold_s;  // in fold order (calls are serialized)
  std::uint64_t steals = 0;

 private:
  Clock::time_point start_ = Clock::now();
};

// Seconds from the fold that leaves fewer cells than threads unfinished to
// the end of the campaign: the stretch where the executor cannot be full.
double tail_seconds(const FoldClock& clock, double wall_s,
                    std::size_t threads);

// Same count and bit-identical mean, m2, min and max.
bool stats_identical(const antalloc::RunningStats& x,
                     const antalloc::RunningStats& y);

// Cell i of `a` and `b` carry the same labels, engine and bit-identical
// RunningStats states.
bool cells_identical(const antalloc::CampaignCell& a,
                     const antalloc::CampaignCell& b);

// Re-runs every replicate of the cell at `pos` of `live` serially through
// run_replicate, with the seed and per-cell config run_campaign derives
// from the matrix coordinate, inside spans named `span_name` (items =
// rounds). Folds the scalars in replicate order and compares the states
// bit-for-bit with the parallel cell.
struct SerialCheck {
  bool identical = false;
  double seconds = 0.0;
  std::int64_t rounds = 0;
  std::int64_t switches = 0;
};
SerialCheck serial_check(const antalloc::CampaignConfig& cfg,
                         const antalloc::CampaignResult& live,
                         std::size_t pos, const char* span_name);

// Replicate 0 of the cell at `pos`, re-run with a CaptureSink (untimed).
RecordedRun capture_replicate(const antalloc::CampaignConfig& cfg,
                              const antalloc::CampaignResult& live,
                              std::size_t pos);

}  // namespace antbench
