#include "rng/xoshiro.h"

#include "rng/xoshiro_jump.h"

namespace antalloc::rng {
namespace {

// The low kStepBits bits of a discard count are stepped: 255 steps cost
// about what one 256-step jump does.
constexpr int kStepBits = 8;

// kJumps[e - kStepBits] = x^(2^e) mod P(x), built at compile time.
constexpr auto kJumps = [] {
  const xoshiro_jump::Poly p = xoshiro_jump::characteristic_polynomial();
  std::array<xoshiro_jump::Poly, 64 - kStepBits> table{};
  xoshiro_jump::Poly q = xoshiro_jump::jump_polynomial(kStepBits, p);
  for (auto& entry : table) {
    entry = q;
    q = xoshiro_jump::square_mod(q, p);
  }
  return table;
}();

}  // namespace

void Xoshiro256::discard(std::uint64_t n) noexcept {
  // Step a local copy, which the compiler keeps in registers.
  Xoshiro256 gen = *this;
  for (std::uint64_t i = 0; i < (n & ((1u << kStepBits) - 1)); ++i) gen();
  for (int e = kStepBits; e < 64; ++e) {
    if (((n >> e) & 1) == 0) continue;
    // The authors' jump loop: J(T)s = sum_i j_i T^i s, accumulated over 256
    // steps under the coefficient mask. Scalar accumulators: as an array, gcc
    // vectorizes the XORs into wide reloads of just-stored state words, which
    // stall store forwarding and made each jump about 2.5x slower.
    std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    const auto& poly = kJumps[static_cast<std::size_t>(e - kStepBits)];
    for (const std::uint64_t word : poly) {
      for (int b = 0; b < 64; ++b) {
        const std::uint64_t mask = 0 - ((word >> b) & 1);
        a0 ^= gen.state_[0] & mask;
        a1 ^= gen.state_[1] & mask;
        a2 ^= gen.state_[2] & mask;
        a3 ^= gen.state_[3] & mask;
        gen();
      }
    }
    gen.state_[0] = a0;
    gen.state_[1] = a1;
    gen.state_[2] = a2;
    gen.state_[3] = a3;
  }
  *this = gen;
}

}  // namespace antalloc::rng
