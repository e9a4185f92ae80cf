// xoshiro256**: the workhorse uniform bit generator for all simulations.
// Satisfies std::uniform_random_bit_generator so it composes with <random>
// distributions where we delegate to them. Reference: Blackman & Vigna,
// "Scrambled Linear Pseudorandom Number Generators" (2019).
#pragma once

#include <cstdint>
#include <limits>

#include "rng/splitmix.h"

namespace antalloc::rng {

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  // Seeds the four state words from SplitMix64, per the authors'
  // recommendation; guarantees a non-zero state for any seed.
  explicit constexpr Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bull) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1) with 53 random bits.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Bernoulli(p) draw; p outside [0,1] saturates.
  constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

  // Uniform integer in [0, bound) via Lemire's multiply-shift (unbiased
  // enough for simulation at 64-bit width; bound must be > 0).
  constexpr std::uint64_t uniform_below(std::uint64_t bound) noexcept {
    const auto x = (*this)();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

// Derives an independent generator for a logical coordinate, e.g.
// (seed, trial) or (seed, round, task). The mapping is pure: the same
// coordinates always yield the same stream, so parallel sweeps are
// reproducible no matter how trials land on threads.
inline Xoshiro256 stream_for(std::uint64_t seed, std::uint64_t a,
                             std::uint64_t b = 0, std::uint64_t c = 0) {
  return Xoshiro256(hash_words(seed, a, b, c));
}

}  // namespace antalloc::rng
