// parallel_for: the chunked blocking loop over a TaskGraph (the executor
// itself is covered by task_graph_test).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "parallel/task_graph.h"

namespace antalloc {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce) {
  TaskGraph graph(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(graph, 0, 1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  TaskGraph graph(2);
  bool ran = false;
  parallel_for(graph, 5, 5, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesException) {
  TaskGraph graph(4);
  EXPECT_THROW(
      parallel_for(graph, 0, 100,
                   [](std::int64_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

}  // namespace
}  // namespace antalloc
