// Tests for Xoshiro256::discard, the O(log n) jump-ahead behind the batched
// runner's skipped selection picks. Two rails:
//  * discard(n) leaves the generator exactly where n operator() calls
//    would, and discards compose additively;
//  * an independent oracle: the jump-polynomial chain the discard table
//    comes from, continued to x^(2^128) and x^(2^192), reproduces Blackman &
//    Vigna's published JUMP and LONG_JUMP constants.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "rng/splitmix.h"
#include "rng/xoshiro.h"
#include "rng/xoshiro_jump.h"

namespace antalloc::rng {
namespace {

// The next four outputs: enough to pin the whole 256-bit state.
std::array<std::uint64_t, 4> next_outputs(Xoshiro256& gen) {
  return {gen(), gen(), gen(), gen()};
}

TEST(XoshiroDiscard, EqualsSteppedCalls) {
  std::uint64_t sm = 2024;
  std::vector<std::uint64_t> counts{0, 1, 255, 256, 257, 4095, 4096, 65537,
                                    1'000'003};
  for (int i = 0; i < 24; ++i) counts.push_back(splitmix64_next(sm) >> 42);
  for (const std::uint64_t n : counts) {
    Xoshiro256 jumped(99);
    Xoshiro256 stepped(99);
    jumped.discard(n);
    for (std::uint64_t i = 0; i < n; ++i) stepped();
    EXPECT_EQ(jumped.state(), stepped.state()) << "n=" << n;
    EXPECT_EQ(next_outputs(jumped), next_outputs(stepped)) << "n=" << n;
  }
}

TEST(XoshiroDiscard, ComposesAdditively) {
  std::uint64_t sm = 7;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t a = splitmix64_next(sm) >> 2;  // a, b < 2^62
    const std::uint64_t b = splitmix64_next(sm) >> 2;
    Xoshiro256 twice(5);
    Xoshiro256 once(5);
    twice.discard(a);
    twice.discard(b);
    once.discard(a + b);
    EXPECT_EQ(next_outputs(twice), next_outputs(once))
        << "a=" << a << " b=" << b;
  }
}

TEST(XoshiroJump, ChainReproducesPublishedJumpConstants) {
  // Blackman & Vigna, xoshiro256**.c: JUMP advances 2^128 steps,
  // LONG_JUMP 2^192. Bit b of word w is the coefficient of x^(64w + b).
  const xoshiro_jump::Poly p = xoshiro_jump::characteristic_polynomial();
  const xoshiro_jump::Poly jump{0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  const xoshiro_jump::Poly long_jump{
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  EXPECT_EQ(xoshiro_jump::jump_polynomial(128, p), jump);
  EXPECT_EQ(xoshiro_jump::jump_polynomial(192, p), long_jump);
}

}  // namespace
}  // namespace antalloc::rng
