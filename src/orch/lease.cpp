#include "orch/lease.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/summary.h"

namespace antalloc {

LeaseTable::LeaseTable(std::size_t total_cells, LeaseOptions opts)
    : opts_(opts), state_(total_cells, CellState::kPending) {
  if (total_cells == 0) {
    throw std::invalid_argument("LeaseTable: total_cells must be positive");
  }
  if (opts_.cells_per_lease == 0) {
    throw std::invalid_argument("LeaseTable: cells_per_lease must be positive");
  }
  if (opts_.min_deadline_ms <= 0) {
    throw std::invalid_argument("LeaseTable: min_deadline_ms must be positive");
  }
  if (!(opts_.straggler_factor >= 1.0)) {
    throw std::invalid_argument("LeaseTable: straggler_factor must be >= 1");
  }
}

void LeaseTable::mark_done(std::size_t cell) {
  if (cell >= state_.size()) {
    throw std::out_of_range("LeaseTable::mark_done: cell out of range");
  }
  if (state_[cell] != CellState::kDone) {
    state_[cell] = CellState::kDone;
    ++done_;
  }
}

std::int64_t LeaseTable::deadline_interval_ms() const {
  if (durations_ms_.empty()) return opts_.min_deadline_ms;
  double scaled = opts_.straggler_factor * median(durations_ms_);
  double floor_ms = static_cast<double>(opts_.min_deadline_ms);
  return static_cast<std::int64_t>(std::ceil(std::max(scaled, floor_ms)));
}

std::optional<Lease> LeaseTable::grant(std::int64_t now_ms) {
  auto first = std::find(state_.begin(), state_.end(), CellState::kPending);
  if (first == state_.end()) return std::nullopt;
  std::size_t begin = static_cast<std::size_t>(first - state_.begin());
  std::size_t count = 0;
  while (begin + count < state_.size() && count < opts_.cells_per_lease &&
         state_[begin + count] == CellState::kPending) {
    state_[begin + count] = CellState::kLeased;
    ++count;
  }
  Lease lease;
  lease.id = next_lease_id_++;
  lease.first_cell = begin;
  lease.cell_count = count;
  lease.issued_ms = now_ms;
  lease.deadline_ms = now_ms + deadline_interval_ms();
  leases_.push_back(lease);
  return lease;
}

std::vector<std::uint64_t> LeaseTable::complete(std::size_t cell,
                                                std::int64_t now_ms) {
  if (cell >= state_.size()) {
    throw std::out_of_range("LeaseTable::complete: cell out of range");
  }
  std::vector<std::uint64_t> retired;
  if (state_[cell] == CellState::kDone) return retired;
  state_[cell] = CellState::kDone;
  ++done_;
  // Retire any live lease the completion emptied. A cell can sit inside at
  // most one live lease, but a completion can also empty a lease it was NOT
  // granted under (a straggler's cell finished by the re-lease), so scan all.
  for (std::size_t i = 0; i < leases_.size();) {
    const Lease& l = leases_[i];
    bool all_done = true;
    for (std::size_t c = l.first_cell; c < l.first_cell + l.cell_count; ++c) {
      if (state_[c] != CellState::kDone) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      durations_ms_.push_back(
          static_cast<double>(std::max<std::int64_t>(now_ms - l.issued_ms, 0)));
      retired.push_back(l.id);
      leases_.erase(leases_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return retired;
}

std::optional<Lease> LeaseTable::release(std::uint64_t lease_id) {
  for (std::size_t i = 0; i < leases_.size(); ++i) {
    if (leases_[i].id != lease_id) continue;
    Lease lease = leases_[i];
    leases_.erase(leases_.begin() + static_cast<std::ptrdiff_t>(i));
    for (std::size_t c = lease.first_cell; c < lease.first_cell + lease.cell_count;
         ++c) {
      if (state_[c] == CellState::kLeased) state_[c] = CellState::kPending;
    }
    return lease;
  }
  return std::nullopt;
}

std::vector<Lease> LeaseTable::expire(std::int64_t now_ms) {
  std::vector<Lease> expired;
  for (std::size_t i = 0; i < leases_.size();) {
    if (leases_[i].deadline_ms <= now_ms) {
      expired.push_back(leases_[i]);
      leases_.erase(leases_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (const Lease& lease : expired) {
    for (std::size_t c = lease.first_cell; c < lease.first_cell + lease.cell_count;
         ++c) {
      if (state_[c] == CellState::kLeased) state_[c] = CellState::kPending;
    }
  }
  return expired;
}

std::optional<std::int64_t> LeaseTable::next_deadline_ms() const {
  if (leases_.empty()) return std::nullopt;
  return std::min_element(leases_.begin(), leases_.end(),
                          [](const Lease& a, const Lease& b) {
                            return a.deadline_ms < b.deadline_ms;
                          })
      ->deadline_ms;
}

std::size_t LeaseTable::cells_pending() const {
  return static_cast<std::size_t>(
      std::count(state_.begin(), state_.end(), CellState::kPending));
}

}  // namespace antalloc
