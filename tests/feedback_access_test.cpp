// Tests for the FeedbackAccess oracle the agent engine hands to algorithms:
// per-(round, ant, task) determinism, mask packing, the draw contract with
// FeedbackModel::sample, size validation, and the out-of-model demand
// accessor.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/algorithm.h"
#include "noise/adversarial.h"
#include "noise/correlated.h"
#include "noise/exact.h"
#include "noise/per_task.h"
#include "noise/sigmoid.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"

namespace antalloc {
namespace {

TEST(FeedbackAccess, SameCellSameDraw) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{0.0, 0.0};  // fair coins
  const std::vector<Count> demands{Count{100}, Count{100}};
  const FeedbackAccess fb(fm, 7, deficits, demands, 99);
  for (int ant = 0; ant < 50; ++ant) {
    for (TaskId j = 0; j < 2; ++j) {
      EXPECT_EQ(fb.sample(ant, j), fb.sample(ant, j));
    }
  }
}

TEST(FeedbackAccess, CellsAreIndependentAcrossCoordinates) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{0.0};
  const std::vector<Count> demands{Count{100}};
  const FeedbackAccess r1(fm, 1, deficits, demands, 99);
  const FeedbackAccess r2(fm, 2, deficits, demands, 99);
  // At a fair coin, 64 ants agreeing across two rounds is a 2^-64 event.
  int agreements = 0;
  for (int ant = 0; ant < 64; ++ant) {
    if (r1.sample(ant, 0) == r2.sample(ant, 0)) ++agreements;
  }
  EXPECT_GT(agreements, 0);
  EXPECT_LT(agreements, 64);
}

TEST(FeedbackAccess, SeedChangesDraws) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{0.0};
  const std::vector<Count> demands{Count{100}};
  const FeedbackAccess a(fm, 1, deficits, demands, 1);
  const FeedbackAccess b(fm, 1, deficits, demands, 2);
  int diffs = 0;
  for (int ant = 0; ant < 200; ++ant) {
    if (a.sample(ant, 0) != b.sample(ant, 0)) ++diffs;
  }
  EXPECT_GT(diffs, 50);
}

TEST(FeedbackAccess, MaskMatchesPerTaskSamples) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{5.0, -5.0, 0.0};
  const std::vector<Count> demands{Count{100}, Count{100}, Count{100}};
  const FeedbackAccess fb(fm, 3, deficits, demands, 17);
  for (int ant = 0; ant < 30; ++ant) {
    const std::uint64_t mask = fb.sample_lack_mask(ant);
    for (TaskId j = 0; j < 3; ++j) {
      const bool bit = (mask >> j) & 1;
      EXPECT_EQ(bit, fb.sample(ant, j) == Feedback::kLack)
          << "ant " << ant << " task " << j;
    }
    EXPECT_EQ(mask >> 3, 0u);  // no stray bits
  }
}

TEST(FeedbackAccess, ExactFeedbackMaskIsDeterministic) {
  ExactFeedback fm;
  const std::vector<double> deficits{1.0, -1.0};
  const std::vector<Count> demands{Count{10}, Count{10}};
  const FeedbackAccess fb(fm, 1, deficits, demands, 5);
  for (int ant = 0; ant < 10; ++ant) {
    EXPECT_EQ(fb.sample_lack_mask(ant), 0b01u);
  }
}

TEST(FeedbackAccess, DemandAccessor) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{0.0, 0.0};
  const std::vector<Count> demands{Count{123}, Count{456}};
  const FeedbackAccess fb(fm, 1, deficits, demands, 5);
  EXPECT_EQ(fb.num_tasks(), 2);
  EXPECT_EQ(fb.demand(0), 123);
  EXPECT_EQ(fb.demand(1), 456);
}

// The draw contract: FeedbackAccess tabulates each task's conditional lack
// probability once per round, and every per-ant draw must still be exactly
// the coin FeedbackModel::sample flips on the cell's generator
// Xoshiro256(hash_words(seed, t, ant, j)) — for every model, including
// correlated noise with shared cells, and at deficits that saturate the
// sigmoid.
TEST(FeedbackAccess, DrawsMatchModelSampleOnTheCellGenerator) {
  const std::vector<double> deficits{-1e3, -50.0, -5.0, -0.5, 0.0,
                                     0.5,  5.0,   50.0, 1e3};
  const std::size_t k = deficits.size();
  const std::vector<Count> demands(k, Count{100});
  std::vector<double> lambdas;
  for (std::size_t j = 0; j < k; ++j) lambdas.push_back(0.05 + 0.1 * j);

  std::vector<std::pair<std::string, std::unique_ptr<FeedbackModel>>> models;
  models.emplace_back("sigmoid", std::make_unique<SigmoidFeedback>(0.3));
  models.emplace_back("per-task",
                      std::make_unique<PerTaskSigmoidFeedback>(lambdas));
  models.emplace_back("exact", std::make_unique<ExactFeedback>());
  for (const std::string& adversary : adversary_names()) {
    models.emplace_back(adversary,
                        std::make_unique<AdversarialFeedback>(
                            0.1, make_named_adversary(adversary, 0.1)));
  }
  for (const double rho : {0.0, 0.5, 1.0}) {
    models.emplace_back(
        "correlated rho=" + std::to_string(rho),
        std::make_unique<CorrelatedFeedback>(
            std::make_shared<SigmoidFeedback>(0.3), rho));
  }

  const std::uint64_t seed = 77;
  // Tasks 1, 4 and 7 dormant: masked out of both draw paths.
  const std::uint64_t active = ((1ull << k) - 1) & ~0b010010010ull;
  rng::Xoshiro256 model_gen(5);
  for (auto& [name, fm] : models) {
    for (Round t = 1; t <= 4; ++t) {
      fm->begin_round(t, deficits, demands, model_gen);
      const FeedbackAccess fb(*fm, t, deficits, demands, seed, active);
      for (std::int64_t ant = 0; ant < 64; ++ant) {
        std::uint64_t expected_mask = 0;
        for (TaskId j = 0; j < static_cast<TaskId>(k); ++j) {
          const auto ju = static_cast<std::size_t>(j);
          rng::Xoshiro256 cell(rng::hash_words(
              seed, static_cast<std::uint64_t>(t),
              static_cast<std::uint64_t>(ant), static_cast<std::uint64_t>(j)));
          const Feedback want =
              fm->sample(t, j, ant, deficits[ju],
                         static_cast<double>(demands[ju]), cell);
          const bool live = (active >> j) & 1;
          EXPECT_EQ(fb.sample(ant, j), live ? want : Feedback::kOverload)
              << name << " t=" << t << " ant=" << ant << " task=" << j;
          if (live && want == Feedback::kLack) expected_mask |= 1ull << j;
        }
        EXPECT_EQ(fb.sample_lack_mask(ant), expected_mask)
            << name << " t=" << t << " ant=" << ant;
      }
    }
  }
}

// Masks are one word, so a round with more than kMaxAgentTasks tasks (or
// with deficits and demands of different lengths) is refused up front.
TEST(FeedbackAccess, RejectsOversizedOrMismatchedRounds) {
  ExactFeedback fm;
  const auto max = static_cast<std::size_t>(kMaxAgentTasks);
  const std::vector<double> too_many_deficits(max + 1, 1.0);
  const std::vector<Count> too_many_demands(max + 1, Count{10});
  EXPECT_THROW(FeedbackAccess(fm, 1, too_many_deficits, too_many_demands, 5),
               std::invalid_argument);

  const std::vector<double> deficits(3, 1.0);
  const std::vector<Count> demands(2, Count{10});
  EXPECT_THROW(FeedbackAccess(fm, 1, deficits, demands, 5),
               std::invalid_argument);

  // Exactly kMaxAgentTasks is fine, and the top task lands in bit 63.
  const std::vector<double> full_deficits(max, 1.0);
  const std::vector<Count> full_demands(max, Count{10});
  const FeedbackAccess fb(fm, 1, full_deficits, full_demands, 5);
  EXPECT_EQ(fb.sample_lack_mask(0), ~0ull);
}

}  // namespace
}  // namespace antalloc
