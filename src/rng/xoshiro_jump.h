// Jump-ahead polynomials for Xoshiro256.
//
// The generator's state transition T is linear over GF(2), so by
// Cayley–Hamilton advancing the state m steps is applying J(T), where
// J(x) = x^m mod P(x) and P is T's degree-256 characteristic polynomial
// (Haramoto et al., "Efficient Jump Ahead for F2-Linear Random Number
// Generators", INFORMS J. Computing 2008). Blackman & Vigna's jump() and
// long_jump() are J for m = 2^128 and 2^192.
//
// Everything here is constexpr: P is derived by Berlekamp–Massey from one
// state bit, and x^(2^e) by repeated squaring mod P, so the table
// Xoshiro256::discard reads is built by the compiler (no heap, no first-use
// initialization), and the authors' published constants can check it.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "rng/xoshiro.h"

namespace antalloc::rng::xoshiro_jump {

// A GF(2) polynomial of degree < 256: bit b of word w is the coefficient of
// x^(64w + b), the layout of the authors' JUMP constants.
using Poly = std::array<std::uint64_t, 4>;

namespace detail {

template <std::size_t N>
constexpr bool bit(const std::array<std::uint64_t, N>& words, int i) {
  return ((words[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1) != 0;
}

// dst ^= src * x^shift, dropping terms past dst's width.
template <std::size_t N, std::size_t M>
constexpr void xor_shifted(std::array<std::uint64_t, N>& dst,
                           const std::array<std::uint64_t, M>& src,
                           int shift) {
  const auto ws = static_cast<std::size_t>(shift / 64);
  const int bs = shift % 64;
  for (std::size_t w = 0; w < M && w + ws < N; ++w) {
    dst[w + ws] ^= src[w] << bs;
    if (bs != 0 && w + ws + 1 < N) dst[w + ws + 1] ^= src[w] >> (64 - bs);
  }
}

}  // namespace detail

// P(x) without its leading x^256 term. Berlekamp–Massey over 512
// consecutive values of state bit 0 yields the bit sequence's minimal
// polynomial; P is primitive (the period is 2^256 - 1), so for any nonzero
// state that is P itself, which the degree check confirms.
constexpr Poly characteristic_polynomial() {
  Xoshiro256 gen(1);
  std::array<std::uint64_t, 8> seq{};
  for (int i = 0; i < 512; ++i) {
    seq[static_cast<std::size_t>(i / 64)] |= (gen.state()[0] & 1) << (i % 64);
    gen();
  }
  // Connection polynomials C(z) = 1 + c_1 z + ... + c_L z^L, degree <= 256.
  using Wide = std::array<std::uint64_t, 5>;
  Wide c{1};
  Wide b{1};
  int len = 0;
  int gap = 1;
  for (int n = 0; n < 512; ++n) {
    bool discrepancy = false;
    for (int i = 0; i <= len; ++i) {
      discrepancy ^= detail::bit(c, i) && detail::bit(seq, n - i);
    }
    if (!discrepancy) {
      ++gap;
      continue;
    }
    const Wide prev = c;
    detail::xor_shifted(c, b, gap);
    if (2 * len <= n) {
      len = n + 1 - len;
      b = prev;
      gap = 1;
    } else {
      ++gap;
    }
  }
  if (len != 256) {
    throw std::logic_error(
        "xoshiro_jump: state bit has no degree-256 recurrence");
  }
  // s_{j+256} = sum_i c_i s_{j+256-i}, so P's x^k coefficient is c_{256-k}.
  Poly p{};
  for (int k = 0; k < 256; ++k) {
    if (detail::bit(c, 256 - k)) {
      p[static_cast<std::size_t>(k / 64)] |= std::uint64_t{1} << (k % 64);
    }
  }
  return p;
}

// a(x)^2 mod P(x), with `p` = characteristic_polynomial().
constexpr Poly square_mod(const Poly& a, const Poly& p) {
  std::array<std::uint64_t, 8> sq{};
  for (int i = 0; i < 256; ++i) {
    if (detail::bit(a, i)) {
      sq[static_cast<std::size_t>(i / 32)] |= std::uint64_t{1} << (2 * i % 64);
    }
  }
  // Fold each term x^d, d >= 256, into x^(d-256) * (P(x) - x^256); the
  // folded terms have degree <= d - 1, so one downward pass suffices.
  for (int d = 510; d >= 256; --d) {
    if (!detail::bit(sq, d)) continue;
    sq[static_cast<std::size_t>(d / 64)] ^= std::uint64_t{1} << (d % 64);
    detail::xor_shifted(sq, p, d - 256);
  }
  return {sq[0], sq[1], sq[2], sq[3]};
}

// x^(2^e) mod P(x): the polynomial that jumps 2^e steps.
constexpr Poly jump_polynomial(int e, const Poly& p) {
  Poly q{2};  // x
  for (int i = 0; i < e; ++i) q = square_mod(q, p);
  return q;
}

}  // namespace antalloc::rng::xoshiro_jump
