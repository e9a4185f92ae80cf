#include "rng/hypergeometric.h"

#include <algorithm>

namespace antalloc::rng {

std::int64_t hypergeometric(Xoshiro256& gen, std::int64_t draws,
                            std::int64_t successes, std::int64_t population) {
  const std::int64_t picks = std::min(draws, successes);
  std::int64_t marked = std::max(draws, successes);
  std::int64_t size = population;
  std::int64_t hits = 0;
  for (std::int64_t s = 0; s < picks; ++s) {
    if (gen.uniform_below(static_cast<std::uint64_t>(size)) <
        static_cast<std::uint64_t>(marked)) {
      --marked;
      ++hits;
    }
    --size;
  }
  return hits;
}

}  // namespace antalloc::rng
