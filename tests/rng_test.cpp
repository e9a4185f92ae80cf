// Unit and statistical tests for the RNG substrate: splitmix/xoshiro
// determinism and distributional checks for the binomial, multinomial,
// hypergeometric and Poisson-binomial samplers, plus the allocation-free
// `_into` forms the count kernels call, which must match their allocating
// forms draw for draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "rng/binomial.h"
#include "rng/hypergeometric.h"
#include "rng/multinomial.h"
#include "rng/poisson_binomial.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"

namespace antalloc::rng {
namespace {

TEST(SplitMix, IsDeterministic) {
  std::uint64_t a = 42;
  std::uint64_t b = 42;
  EXPECT_EQ(splitmix64_next(a), splitmix64_next(b));
  EXPECT_EQ(a, b);
}

TEST(SplitMix, MixChangesValue) {
  EXPECT_NE(splitmix64_mix(1), splitmix64_mix(2));
  EXPECT_NE(splitmix64_mix(0), 0u);
}

TEST(SplitMix, HashWordsOrderSensitive) {
  EXPECT_NE(hash_words(1, 2, 3), hash_words(3, 2, 1));
  EXPECT_NE(hash_words(1, 2, 3, 4), hash_words(1, 2, 4, 3));
}

TEST(Xoshiro, SameSeedSameStream) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(7);
  Xoshiro256 b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 gen(11);
  double sum = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = gen.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Xoshiro, UniformBelowRespectsBound) {
  Xoshiro256 gen(13);
  std::vector<int> counts(7, 0);
  constexpr int kDraws = 70'000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = gen.uniform_below(7);
    ASSERT_LT(v, 7u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / 7.0, 5.0 * std::sqrt(kDraws / 7.0));
  }
}

TEST(Xoshiro, StreamForIsReproducible) {
  auto a = stream_for(1, 2, 3);
  auto b = stream_for(1, 2, 3);
  EXPECT_EQ(a(), b());
  auto c = stream_for(1, 2, 4);
  EXPECT_NE(stream_for(1, 2, 3)(), c());
}

TEST(Binomial, EdgeCases) {
  Xoshiro256 gen(17);
  EXPECT_EQ(binomial(gen, 0, 0.5), 0);
  EXPECT_EQ(binomial(gen, 100, 0.0), 0);
  EXPECT_EQ(binomial(gen, 100, 1.0), 100);
  EXPECT_EQ(binomial(gen, -5, 0.5), 0);
  EXPECT_EQ(binomial(gen, 100, -0.2), 0);  // clamped
  EXPECT_EQ(binomial(gen, 100, 1.5), 100);  // clamped
}

TEST(Binomial, InRange) {
  Xoshiro256 gen(19);
  for (int i = 0; i < 1000; ++i) {
    const auto x = binomial(gen, 50, 0.3);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, 50);
  }
}

struct BinomialCase {
  std::int64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Xoshiro256 gen(static_cast<std::uint64_t>(n) * 1000003 +
                 static_cast<std::uint64_t>(p * 1e6));
  constexpr int kDraws = 20'000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const auto x = static_cast<double>(binomial(gen, n, p));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sum2 / kDraws - mean * mean;
  const double true_mean = static_cast<double>(n) * p;
  const double true_var = static_cast<double>(n) * p * (1.0 - p);
  // 6-sigma tolerance on the sample mean; 10% + slack on the variance.
  EXPECT_NEAR(mean, true_mean, 6.0 * std::sqrt(true_var / kDraws) + 1e-9);
  EXPECT_NEAR(var, true_var, 0.1 * true_var + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialMoments,
    ::testing::Values(BinomialCase{8, 0.5}, BinomialCase{30, 0.1},
                      BinomialCase{100, 0.02}, BinomialCase{100, 0.98},
                      BinomialCase{10'000, 0.001}, BinomialCase{10'000, 0.4},
                      BinomialCase{1'000'000, 0.25},
                      BinomialCase{1'000'000, 0.75},
                      BinomialCase{123'456, 1e-5}));

TEST(Multinomial, CountsSumToN) {
  Xoshiro256 gen(23);
  const std::vector<double> probs{0.2, 0.3, 0.5};
  for (int i = 0; i < 100; ++i) {
    const auto counts = multinomial(gen, 1000, probs);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
              1000);
  }
}

TEST(Multinomial, UnnormalizedInputIsNormalized) {
  Xoshiro256 gen(29);
  const std::vector<double> probs{2.0, 3.0, 5.0};  // sums to 10
  double first_bin = 0.0;
  constexpr int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const auto counts = multinomial(gen, 100, probs);
    first_bin += static_cast<double>(counts[0]);
  }
  EXPECT_NEAR(first_bin / kDraws, 20.0, 1.0);
}

TEST(Multinomial, RestBinCollectsLeftover) {
  Xoshiro256 gen(31);
  const std::vector<double> probs{0.1, 0.2};  // 0.7 leftover
  double rest = 0.0;
  constexpr int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const auto counts = multinomial_rest(gen, 100, probs);
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
              100);
    rest += static_cast<double>(counts[2]);
  }
  EXPECT_NEAR(rest / kDraws, 70.0, 1.5);
}

TEST(Multinomial, ZeroMassGoesToFirstBin) {
  Xoshiro256 gen(37);
  const std::vector<double> probs{0.0, 0.0};
  const auto counts = multinomial(gen, 10, probs);
  EXPECT_EQ(counts[0], 10);
  EXPECT_EQ(counts[1], 0);
}

TEST(Multinomial, RestIntoMatchesAllocatingForm) {
  // Same seed, same calls in sequence: the two forms must consume the same
  // draws, including through a zero-probability bin and mass exhaustion.
  Xoshiro256 into_gen(7);
  Xoshiro256 ref_gen(7);
  const std::vector<std::vector<double>> cases = {
      {0.2, 0.1, 0.3}, {0.0, 0.5, 0.0, 0.25}, {0.6, 0.4}, {}};
  for (int round = 0; round < 50; ++round) {
    for (const auto& probs : cases) {
      const std::int64_t n = 10'000 + 37 * round;
      std::vector<std::int64_t> counts(probs.size(), -1);
      const std::int64_t rest =
          multinomial_rest_into(into_gen, n, probs, counts);
      const auto expected = multinomial_rest(ref_gen, n, probs);
      ASSERT_EQ(expected.size(), probs.size() + 1);
      for (std::size_t i = 0; i < probs.size(); ++i) {
        EXPECT_EQ(counts[i], expected[i]) << "bin " << i;
      }
      EXPECT_EQ(rest, expected.back());
      EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), rest), n);
    }
  }
  EXPECT_EQ(into_gen(), ref_gen());
}

TEST(Hypergeometric, EdgeCases) {
  Xoshiro256 gen(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(hypergeometric(gen, 0, 7, 20), 0);   // no draws
    EXPECT_EQ(hypergeometric(gen, 9, 0, 20), 0);   // no successes
    EXPECT_EQ(hypergeometric(gen, 20, 7, 20), 7);  // draws = population
    EXPECT_EQ(hypergeometric(gen, 9, 20, 20), 9);  // successes = population
    EXPECT_EQ(hypergeometric(gen, 0, 0, 0), 0);
  }
  // Zero picks draw nothing from the generator.
  Xoshiro256 untouched(3);
  Xoshiro256 probe(3);
  (void)hypergeometric(probe, 0, 5, 10);
  (void)hypergeometric(probe, 5, 0, 10);
  EXPECT_EQ(probe(), untouched());
}

TEST(Hypergeometric, SymmetricInDrawsAndSuccesses) {
  // The sampler takes min(draws, successes) picks, so swapping the two
  // gives the same draw on the same stream, not merely the same law.
  Xoshiro256 a(11);
  Xoshiro256 b(11);
  for (std::int64_t i = 0; i < 200; ++i) {
    const std::int64_t draws = 1 + i % 17;
    const std::int64_t successes = 1 + (i * 7) % 23;
    EXPECT_EQ(hypergeometric(a, draws, successes, 40),
              hypergeometric(b, successes, draws, 40))
        << "draws=" << draws << " successes=" << successes;
  }
}

double log_choose(std::int64_t n, std::int64_t r) {
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(r) + 1.0) -
         std::lgamma(static_cast<double>(n - r) + 1.0);
}

TEST(Hypergeometric, ChiSquareAgainstExactPmf) {
  struct Case {
    std::int64_t population, successes, draws;
  };
  // Draws below, equal to and above the success count (both pick paths).
  const Case cases[] = {{20, 7, 5}, {50, 12, 30}, {300, 40, 40}, {1000, 600, 9}};
  constexpr int kSamples = 40'000;
  Xoshiro256 gen(20261020);
  for (const Case& c : cases) {
    SCOPED_TRACE("A=" + std::to_string(c.population) +
                 " P=" + std::to_string(c.successes) +
                 " L=" + std::to_string(c.draws));
    const std::int64_t lo = std::max<std::int64_t>(
        0, c.draws - (c.population - c.successes));
    const std::int64_t hi = std::min(c.draws, c.successes);
    std::vector<double> observed(static_cast<std::size_t>(hi + 1), 0.0);
    for (int i = 0; i < kSamples; ++i) {
      const std::int64_t x =
          hypergeometric(gen, c.draws, c.successes, c.population);
      ASSERT_GE(x, lo);
      ASSERT_LE(x, hi);
      observed[static_cast<std::size_t>(x)] += 1.0;
    }
    // Pool adjacent outcomes into cells of expected count >= 5.
    double chi2 = 0.0;
    int cells = 0;
    double cell_expected = 0.0;
    double cell_observed = 0.0;
    for (std::int64_t x = lo; x <= hi; ++x) {
      cell_expected +=
          kSamples * std::exp(log_choose(c.successes, x) +
                              log_choose(c.population - c.successes,
                                         c.draws - x) -
                              log_choose(c.population, c.draws));
      cell_observed += observed[static_cast<std::size_t>(x)];
      if (cell_expected >= 5.0 || x == hi) {
        const double d = cell_observed - cell_expected;
        chi2 += d * d / cell_expected;
        ++cells;
        cell_expected = 0.0;
        cell_observed = 0.0;
      }
    }
    ASSERT_GE(cells, 2);
    // Wilson–Hilferty upper 1e-4 quantile of chi-square(df).
    const double df = cells - 1;
    const double z = 3.719;
    const double h = 2.0 / (9.0 * df);
    const double critical = df * std::pow(1.0 - h + z * std::sqrt(h), 3);
    EXPECT_LT(chi2, critical) << "df=" << df;
  }
}

TEST(PoissonBinomial, MatchesBinomialForEqualProbs) {
  const std::vector<double> p(10, 0.3);
  const auto pmf = poisson_binomial_pmf(p);
  ASSERT_EQ(pmf.size(), 11u);
  // Compare a few entries with the binomial pmf.
  double total = 0.0;
  for (const double mass : pmf) total += mass;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // P(X = 0) = 0.7^10.
  EXPECT_NEAR(pmf[0], std::pow(0.7, 10), 1e-12);
  // P(X = 10) = 0.3^10.
  EXPECT_NEAR(pmf[10], std::pow(0.3, 10), 1e-12);
}

TEST(PoissonBinomial, HeterogeneousProbabilities) {
  const std::vector<double> p{0.1, 0.9};
  const auto pmf = poisson_binomial_pmf(p);
  ASSERT_EQ(pmf.size(), 3u);
  EXPECT_NEAR(pmf[0], 0.9 * 0.1, 1e-12);
  EXPECT_NEAR(pmf[1], 0.1 * 0.1 + 0.9 * 0.9, 1e-12);
  EXPECT_NEAR(pmf[2], 0.1 * 0.9, 1e-12);
}

TEST(UniformChoiceMarginals, SingleTask) {
  const std::vector<double> p{0.4};
  const auto q = uniform_choice_marginals(p);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_NEAR(q[0], 0.4, 1e-12);  // joins iff the event fires
}

TEST(UniformChoiceMarginals, TwoSymmetricTasks) {
  // p = 0.5 each: P(join 0) = 0.5*(P(other off)*1 + P(other on)*1/2)
  //             = 0.5*(0.5 + 0.25) = 0.375.
  const std::vector<double> p{0.5, 0.5};
  const auto q = uniform_choice_marginals(p);
  EXPECT_NEAR(q[0], 0.375, 1e-12);
  EXPECT_NEAR(q[1], 0.375, 1e-12);
}

TEST(UniformChoiceMarginals, SumIsJoinProbability) {
  // Sum of marginals = P(at least one event fires).
  const std::vector<double> p{0.2, 0.7, 0.4};
  const auto q = uniform_choice_marginals(p);
  const double sum = std::accumulate(q.begin(), q.end(), 0.0);
  const double p_any = 1.0 - (0.8 * 0.3 * 0.6);
  EXPECT_NEAR(sum, p_any, 1e-12);
}

TEST(UniformChoiceMarginals, IntoMatchesAllocatingForm) {
  // One workspace reused across task counts, as a kernel reuses its own.
  ChoiceMarginalsWorkspace ws;
  const std::vector<std::vector<double>> cases = {
      {0.3, 0.0, 0.7, 0.25}, {0.5}, {0.9, 0.1, 0.4, 0.6, 0.2, 0.05}, {}};
  for (const auto& p : cases) {
    std::vector<double> q(p.size(), -1.0);
    uniform_choice_marginals_into(p, q, ws);
    const auto expected = uniform_choice_marginals(p);
    ASSERT_EQ(expected.size(), q.size());
    for (std::size_t j = 0; j < q.size(); ++j) {
      EXPECT_EQ(q[j], expected[j]) << "task " << j;
    }
  }
}

TEST(UniformChoiceMarginals, MonteCarloAgreement) {
  const std::vector<double> p{0.3, 0.6, 0.1, 0.8};
  const auto q = uniform_choice_marginals(p);
  Xoshiro256 gen(41);
  std::vector<double> empirical(4, 0.0);
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    std::vector<int> fired;
    for (std::size_t j = 0; j < 4; ++j) {
      if (gen.bernoulli(p[j])) fired.push_back(static_cast<int>(j));
    }
    if (!fired.empty()) {
      const auto pick = gen.uniform_below(fired.size());
      empirical[static_cast<std::size_t>(fired[pick])] += 1.0;
    }
  }
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(empirical[j] / kDraws, q[j], 0.005) << "task " << j;
  }
}

}  // namespace
}  // namespace antalloc::rng
