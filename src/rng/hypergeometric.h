// Exact Hypergeometric(draws; successes, population) sampling: the number
// of successes among `draws` items taken without replacement from a
// population of which `successes` are successes.
//
// The count kernels use it for their switch ledger: leavers are a uniform
// subset of a task's committed ants, and the number of them that were
// paused (idle-visible, so leaving is no switch) is hypergeometric.
#pragma once

#include <cstdint>

#include "rng/xoshiro.h"

namespace antalloc::rng {

// Draws X ~ Hypergeometric(draws; successes, population). The law is
// symmetric in (draws, successes), so this takes the smaller of the two as
// the sample size and makes exactly min(draws, successes) sequential
// uniform_below picks, each a success with probability
// successes_left / population_left. Requires
// 0 <= draws, successes <= population.
std::int64_t hypergeometric(Xoshiro256& gen, std::int64_t draws,
                            std::int64_t successes, std::int64_t population);

}  // namespace antalloc::rng
