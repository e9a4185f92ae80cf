// Tests for rng::BulkSampler, the randomness source of the batched agent
// fast path. Two properties carry the whole construction:
//  * the COUNT stream is a plain Xoshiro256 seeded with count_seed, so its
//    binomial / multinomial draws are bit-identical to the scalar helpers on
//    a generator with the same seed — this is what aligns the batched agent
//    engine with the aggregate kernels;
//  * the SELECTION stream's skip(m) is m discarded picks, so a runner that
//    skips the picks whose outcome it never observes keeps every later pick
//    — and so every byte of its output — unchanged. The skip is paid
//    lazily, as one jump-ahead at the next pick.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "rng/binomial.h"
#include "rng/bulk_sampler.h"
#include "rng/multinomial.h"
#include "rng/poisson_binomial.h"
#include "rng/xoshiro.h"

namespace antalloc::rng {
namespace {

TEST(BulkSampler, CountStreamMatchesScalarBinomial) {
  // Cover every regime of rng::binomial (bit-sum, CDF inversion, stdlib
  // delegation) plus the degenerate edges, drawn in sequence so stream
  // positions must line up draw for draw.
  BulkSampler bulk(123, 456);
  Xoshiro256 ref(123);
  const struct { std::int64_t n; double p; } cases[] = {
      {32, 0.25},        // tiny n: direct bit-sum
      {1000, 0.001},     // small mean: CDF inversion
      {100'000, 0.4},    // large mean: stdlib sampler
      {0, 0.5},          // n = 0
      {5000, 0.0},       // p = 0
      {5000, 1.0},       // p = 1
      {700, 0.97},       // folded small mean
  };
  for (const auto& c : cases) {
    EXPECT_EQ(bulk.binomial(c.n, c.p), binomial(ref, c.n, c.p))
        << "n=" << c.n << " p=" << c.p;
  }
}

TEST(BulkSampler, MultinomialRestMatchesAllocatingForm) {
  BulkSampler bulk(7, 9);
  Xoshiro256 ref(7);
  const std::vector<double> probs{0.2, 0.1, 0.3};
  std::vector<std::int64_t> counts(probs.size(), -1);
  const std::int64_t rest = bulk.multinomial_rest(10'000, probs, counts);
  const auto expected = multinomial_rest(ref, 10'000, probs);
  ASSERT_EQ(expected.size(), probs.size() + 1);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(counts[i], expected[i]) << "bin " << i;
  }
  EXPECT_EQ(rest, expected.back());
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), rest), 10'000);
}

TEST(BulkSampler, JoinMarginalsMatchExactMarginals) {
  BulkSampler bulk(1, 2);
  const std::vector<double> p{0.3, 0.0, 0.7, 0.25};
  std::vector<double> q(p.size(), 0.0);
  bulk.join_marginals(p, q);
  const auto expected = uniform_choice_marginals(p);
  ASSERT_EQ(expected.size(), q.size());
  for (std::size_t j = 0; j < q.size(); ++j) {
    EXPECT_DOUBLE_EQ(q[j], expected[j]) << "task " << j;
  }
}

TEST(BulkSampler, SkipEqualsDiscardedPicks) {
  for (const std::int64_t m : {0, 1, 63, 100'000}) {
    BulkSampler skipped(5, 77);
    BulkSampler picked(5, 77);
    skipped.skip(m);
    for (std::int64_t i = 0; i < m; ++i) {
      // Bounds vary to show a pick's bound does not change how far it
      // advances the stream.
      (void)picked.pick(static_cast<std::uint64_t>(i % 1000) + 1);
    }
    EXPECT_EQ(skipped.pick(1'000'003), picked.pick(1'000'003)) << "m=" << m;
    // The count stream is untouched by either.
    EXPECT_EQ(skipped.binomial(1000, 0.3), picked.binomial(1000, 0.3))
        << "m=" << m;
  }

  // Skips are lazy: consecutive skips merge into one pending discard that
  // the next pick pays, skip(m <= 0) is a no-op, and count draws made while
  // skips are pending see an untouched count stream.
  BulkSampler lazy(5, 77);
  BulkSampler eager(5, 77);
  Xoshiro256 count_ref(5);
  lazy.skip(300);
  lazy.skip(70'000);
  EXPECT_EQ(lazy.binomial(1000, 0.3), binomial(count_ref, 1000, 0.3));
  for (int i = 0; i < 70'300; ++i) (void)eager.pick(7);
  (void)eager.binomial(1000, 0.3);
  EXPECT_EQ(lazy.pick(1'000'003), eager.pick(1'000'003));
  lazy.skip(12);
  lazy.skip(0);
  lazy.skip(-3);
  for (int i = 0; i < 12; ++i) (void)eager.pick(3);
  EXPECT_EQ(lazy.pick(999), eager.pick(999));
  const std::vector<double> probs{0.5, 0.25};
  std::vector<std::int64_t> lazy_counts(2);
  std::vector<std::int64_t> eager_counts(2);
  lazy.skip(40);
  EXPECT_EQ(lazy.multinomial_rest(500, probs, lazy_counts),
            eager.multinomial_rest(500, probs, eager_counts));
  EXPECT_EQ(lazy_counts, eager_counts);
}

}  // namespace
}  // namespace antalloc::rng
