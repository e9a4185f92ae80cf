// Work-stealing executor: deque protocol, range execution, exception
// propagation with original types, nested batches, and a steal-heavy stress
// with deliberately uneven task costs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/task_graph.h"
#include "parallel/ws_deque.h"

namespace antalloc {
namespace {

TEST(WsDeque, OwnerPopIsLifo) {
  WsDeque<std::intptr_t> d;
  for (std::intptr_t v = 1; v <= 5; ++v) d.push(v);
  std::intptr_t out = 0;
  for (std::intptr_t want = 5; want >= 1; --want) {
    ASSERT_TRUE(d.pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(d.pop(out));
}

TEST(WsDeque, StealIsFifo) {
  WsDeque<std::intptr_t> d;
  for (std::intptr_t v = 1; v <= 5; ++v) d.push(v);
  std::intptr_t out = 0;
  for (std::intptr_t want = 1; want <= 5; ++want) {
    ASSERT_TRUE(d.steal(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(d.steal(out));
}

TEST(WsDeque, GrowsPastInitialCapacity) {
  WsDeque<std::intptr_t> d(4);
  const std::intptr_t n = 1000;
  for (std::intptr_t v = 0; v < n; ++v) d.push(v);
  EXPECT_GE(d.capacity(), static_cast<std::size_t>(n));
  EXPECT_EQ(d.size_hint(), n);
  std::intptr_t out = 0;
  for (std::intptr_t want = n - 1; want >= 0; --want) {
    ASSERT_TRUE(d.pop(out));
    EXPECT_EQ(out, want);
  }
}

// The core safety property: owner popping and thieves stealing
// concurrently, every pushed value is claimed by exactly one side.
TEST(WsDeque, ConcurrentStealClaimsEachValueOnce) {
  constexpr std::intptr_t kValues = 20000;
  constexpr int kThieves = 3;
  WsDeque<std::intptr_t> d(8);
  std::vector<std::atomic<int>> claimed(static_cast<std::size_t>(kValues));
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::intptr_t v = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal(v)) {
          claimed[static_cast<std::size_t>(v)].fetch_add(1);
        }
      }
      while (d.steal(v)) claimed[static_cast<std::size_t>(v)].fetch_add(1);
    });
  }

  // Owner interleaves pushes with occasional pops.
  std::intptr_t v = 0;
  for (std::intptr_t i = 0; i < kValues; ++i) {
    d.push(i);
    if (i % 3 == 0 && d.pop(v)) {
      claimed[static_cast<std::size_t>(v)].fetch_add(1);
    }
  }
  while (d.pop(v)) claimed[static_cast<std::size_t>(v)].fetch_add(1);
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  for (std::intptr_t i = 0; i < kValues; ++i) {
    EXPECT_EQ(claimed[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(TaskGraph, RunIndexedCoversRangeExactlyOnce) {
  TaskGraph graph(4);
  std::vector<std::atomic<int>> hits(997);
  graph.run_indexed(0, 997, 1, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Steal-heavy stress: grain 1 with wildly uneven costs forces constant
// rebalancing; every index must still run exactly once and slot writes must
// be visible to the caller afterwards.
TEST(TaskGraph, StealHeavyUnevenCosts) {
  TaskGraph graph(4);
  constexpr std::int64_t kN = 400;
  std::vector<std::int64_t> slot(kN, -1);
  graph.run_indexed(0, kN, 1, [&](std::int64_t i) {
    // Cost spread of ~3 orders of magnitude across neighbouring indices.
    volatile std::int64_t sink = 0;
    const std::int64_t spin = (i % 7 == 0) ? 200000 : 100;
    for (std::int64_t s = 0; s < spin; ++s) sink = sink + s;
    slot[static_cast<std::size_t>(i)] = i * i;
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(slot[static_cast<std::size_t>(i)], i * i);
  }
}

struct CustomError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(TaskGraph, RunIndexedRethrowsOriginalTypeAndFinishesRange) {
  TaskGraph graph(4);
  std::atomic<int> ran{0};
  bool caught = false;
  try {
    graph.run_indexed(0, 100, 1, [&](std::int64_t i) {
      if (i == 37) throw CustomError("boom");
      ran.fetch_add(1);
    });
  } catch (const CustomError& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_TRUE(caught);
  // The historical parallel_for contract: the failure does not cancel the
  // remaining indices.
  EXPECT_EQ(ran.load(), 99);
}

TEST(TaskGraph, WaitIdleRethrowsOriginalSubmitException) {
  TaskGraph graph(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    graph.submit([&ran, i] {
      if (i == 11) throw CustomError("submit boom");
      ran.fetch_add(1);
    });
  }
  EXPECT_THROW(graph.wait_idle(), CustomError);
  EXPECT_EQ(ran.load(), 19);
  // The error is consumed: the graph is reusable afterwards.
  graph.submit([&ran] { ran.fetch_add(1); });
  graph.wait_idle();
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskGraph, OnDoneRunsOnlyAfterSuccessfulBody) {
  TaskGraph graph(2);
  std::atomic<int> done{0};
  EXPECT_THROW(graph.run_indexed(
                   0, 50, 1,
                   [&](std::int64_t i) {
                     if (i == 13) throw CustomError("no on_done for me");
                   },
                   [&](std::int64_t) { done.fetch_add(1); }),
               CustomError);
  EXPECT_EQ(done.load(), 49);
}

// A task body that opens its own nested batch on the same graph: the worker
// must help drain it (not deadlock waiting on itself) and the nested batch
// must complete before the outer body returns.
TEST(TaskGraph, NestedRunIndexedFromTask) {
  TaskGraph graph(4);
  constexpr std::int64_t kOuter = 16;
  constexpr std::int64_t kInner = 64;
  std::vector<std::atomic<int>> inner_hits(
      static_cast<std::size_t>(kOuter * kInner));
  graph.run_indexed(0, kOuter, 1, [&](std::int64_t o) {
    graph.run_indexed(0, kInner, 8, [&, o](std::int64_t i) {
      inner_hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(1);
    });
  });
  for (const auto& h : inner_hits) EXPECT_EQ(h.load(), 1);
}

// submit() from inside a running task (an idiom some callers use):
// wait_idle must cover tasks submitted while it is already waiting.
TEST(TaskGraph, SubmitFromTaskIsCoveredByWaitIdle) {
  TaskGraph graph(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    graph.submit([&graph, &ran] {
      ran.fetch_add(1);
      graph.submit([&ran] { ran.fetch_add(1); });
    });
  }
  graph.wait_idle();
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskGraph, WaitIdleWithNothingSubmittedReturns) {
  TaskGraph graph(2);
  graph.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(TaskGraph, SingleWorkerStillCompletesWithCallerHelp) {
  TaskGraph graph(1);
  std::atomic<std::int64_t> sum{0};
  graph.run_indexed(0, 1000, 16, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 499500);
}

TEST(TaskGraph, StealCounterIsMonotone) {
  TaskGraph graph(4);
  const std::uint64_t before = graph.steals();
  graph.run_indexed(0, 256, 1, [](std::int64_t) {
    volatile int sink = 0;
    for (int s = 0; s < 1000; ++s) sink = sink + s;
  });
  EXPECT_GE(graph.steals(), before);
}

TEST(GlobalPool, WidthPinRejectedAfterFirstUse) {
  global_pool();  // force construction
  EXPECT_THROW(set_global_task_graph_threads(2), std::logic_error);
}

}  // namespace
}  // namespace antalloc
