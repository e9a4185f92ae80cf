#include <gtest/gtest.h>

#include <numeric>

#include "core/allocation.h"

namespace antalloc {
namespace {

TEST(Allocation, StartsAllIdle) {
  const Allocation a = Allocation::all_idle(100, 4);
  EXPECT_EQ(a.n_ants(), 100);
  EXPECT_EQ(a.idle(), 100);
  for (TaskId j = 0; j < 4; ++j) EXPECT_EQ(a.load(j), 0);
}

TEST(Allocation, ExplicitLoads) {
  const Allocation a(100, {Count{30}, Count{20}});
  EXPECT_EQ(a.idle(), 50);
  EXPECT_EQ(a.load(0), 30);
  EXPECT_EQ(a.load(1), 20);
}

TEST(Allocation, RejectsOverfullAndNegative) {
  EXPECT_THROW(Allocation(10, {Count{6}, Count{6}}), std::invalid_argument);
  EXPECT_THROW(Allocation(10, {Count{-1}}), std::invalid_argument);
  EXPECT_THROW(Allocation::all_idle(-1, 2), std::invalid_argument);
  EXPECT_THROW(Allocation::all_idle(10, 0), std::invalid_argument);
}

TEST(Allocation, JoinLeavePreserveInvariant) {
  Allocation a = Allocation::all_idle(100, 3);
  a.join(0, 40);
  a.join(1, 10);
  EXPECT_EQ(a.idle(), 50);
  a.leave(0, 15);
  EXPECT_EQ(a.load(0), 25);
  EXPECT_EQ(a.idle(), 65);
  const Count assigned = std::accumulate(a.loads().begin(), a.loads().end(),
                                         Count{0});
  EXPECT_EQ(assigned + a.idle(), a.n_ants());
}

TEST(Allocation, JoinLeaveBoundsChecked) {
  Allocation a = Allocation::all_idle(10, 2);
  EXPECT_THROW(a.join(0, 11), std::invalid_argument);
  EXPECT_THROW(a.join(0, -1), std::invalid_argument);
  a.join(0, 5);
  EXPECT_THROW(a.leave(0, 6), std::invalid_argument);
}

TEST(Allocation, DeficitAndRegret) {
  Allocation a(100, {Count{30}, Count{5}});
  const DemandVector d({Count{20}, Count{10}});
  EXPECT_EQ(a.deficit(0, d), -10);  // overload
  EXPECT_EQ(a.deficit(1, d), 5);    // lack
  EXPECT_EQ(a.instantaneous_regret(d), 15);
}

TEST(Allocation, SetLoads) {
  Allocation a = Allocation::all_idle(100, 2);
  const std::vector<Count> loads{Count{60}, Count{40}};
  a.set_loads(loads);
  EXPECT_EQ(a.idle(), 0);
  EXPECT_THROW(a.set_loads(std::vector<Count>{Count{200}, Count{0}}),
               std::invalid_argument);
  EXPECT_THROW(a.set_loads(std::vector<Count>{Count{1}}),
               std::invalid_argument);
}

TEST(InitialAllocation, Kinds) {
  const auto idle = make_initial_allocation(InitialKind::kIdle, 100, 4, 1);
  EXPECT_EQ(idle.idle(), 100);

  const auto uniform =
      make_initial_allocation(InitialKind::kUniform, 102, 4, 1);
  EXPECT_EQ(uniform.idle(), 0);
  EXPECT_EQ(uniform.load(0), 26);
  EXPECT_EQ(uniform.load(3), 25);

  const auto hostile =
      make_initial_allocation(InitialKind::kAdversarial, 100, 4, 1);
  EXPECT_EQ(hostile.load(0), 100);
  EXPECT_EQ(hostile.idle(), 0);

  const auto random =
      make_initial_allocation(InitialKind::kRandom, 1000, 4, 1);
  const Count assigned = std::accumulate(random.loads().begin(),
                                         random.loads().end(), Count{0});
  EXPECT_EQ(assigned + random.idle(), 1000);
  // Each of the 5 bins (4 tasks + idle) should get roughly 200 ants.
  EXPECT_NEAR(static_cast<double>(random.idle()), 200.0, 80.0);

  EXPECT_THROW(parse_initial_kind("bogus"), std::invalid_argument);
}

TEST(InitialAllocation, RandomIsReproducible) {
  const auto a = make_initial_allocation(InitialKind::kRandom, 500, 3, 42);
  const auto b = make_initial_allocation(InitialKind::kRandom, 500, 3, 42);
  for (TaskId j = 0; j < 3; ++j) EXPECT_EQ(a.load(j), b.load(j));
}

}  // namespace
}  // namespace antalloc
