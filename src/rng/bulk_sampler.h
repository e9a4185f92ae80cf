// Bulk per-round randomness for batched agent simulation.
//
// The batched agent fast path replaces O(n) per-ant Bernoulli streams with
// O(k + moves) work per round: one exact count draw per (task group,
// decision kind) decides HOW MANY ants act. Because the per-ant decisions
// are i.i.d. within a behavioural class, the counts carry the whole law of
// the colony's loads; which exchangeable ants act is never observed, except
// where a count must be split across sub-classes (working vs paused
// leavers), which takes one uniform pick per leaver. The picks nobody
// observes are skipped: a skip only adds to a pending count, paid as one
// O(log m) jump-ahead when the next observed pick needs the stream.
//
// Two independent generator streams:
//  * the COUNT stream carries the distributional draws (binomial /
//    multinomial). It is seeded exactly like the matching aggregate kernel's
//    generator, so for a matched seed the batched agent engine and the
//    aggregate kernel produce bit-identical per-round load trajectories —
//    the property tests/agent_batched_test pins.
//  * the SELECTION stream picks indices. It only decides which exchangeable
//    ants move, never how many, so its draws cannot influence any count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/poisson_binomial.h"
#include "rng/xoshiro.h"

namespace antalloc::rng {

class BulkSampler {
 public:
  // `count_seed` / `selection_seed` seed the two streams directly (callers
  // pass already-mixed values, e.g. hash_combine(run_seed, tag)).
  BulkSampler(std::uint64_t count_seed, std::uint64_t selection_seed)
      : count_gen_(count_seed), selection_gen_(selection_seed) {}

  // --- Count stream -------------------------------------------------------

  // Binomial(n, p) from the count stream.
  std::int64_t binomial(std::int64_t n, double p);

  // Multinomial-with-rest from the count stream; writes per-outcome counts
  // into `counts` (size probs.size()) and returns the leftover. Consumes the
  // same draws as rng::multinomial_rest.
  std::int64_t multinomial_rest(std::int64_t n, std::span<const double> probs,
                                std::span<std::int64_t> counts);

  // Exact uniform-choice marginals (no randomness; workspace-backed so the
  // call is allocation-free once warm).
  void join_marginals(std::span<const double> p, std::span<double> q_out) {
    uniform_choice_marginals_into(p, q_out, ws_);
  }

  // --- Selection stream ----------------------------------------------------

  // Uniform index in [0, bound); bound must be > 0. Pays the pending skips
  // first, as one jump-ahead.
  std::uint64_t pick(std::uint64_t bound) {
    if (pending_skips_ != 0) {
      selection_gen_.discard(pending_skips_);
      pending_skips_ = 0;
    }
    return selection_gen_.uniform_below(bound);
  }

  // Advances the selection stream by `draws` picks without realizing them
  // (one generator call each), so later picks are unchanged; draws <= 0 is
  // a no-op. For selections whose outcome is never observed. The advance is
  // lazy: skips add to a pending count, which the next pick() discards in
  // O(log m) generator steps (Xoshiro256::discard), so a run whose later
  // picks never come never pays for its skips.
  void skip(std::int64_t draws) {
    if (draws > 0) pending_skips_ += static_cast<std::uint64_t>(draws);
  }

 private:
  Xoshiro256 count_gen_;
  Xoshiro256 selection_gen_;
  std::uint64_t pending_skips_ = 0;  // selection draws owed before next pick
  ChoiceMarginalsWorkspace ws_;
};

}  // namespace antalloc::rng
