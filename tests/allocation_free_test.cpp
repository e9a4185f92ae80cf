// Pins the "allocation-free round emission" property of the engines: with
// default metrics options (no trace) every heap allocation happens during
// setup (reset, buffer reservation, result assembly) — none per round, on
// the per-ant path, the batched path and the aggregate engine running
// AntAggregate. The proof is a global operator-new counter and two runs
// differing only in round count: if any per-round path allocated, the
// longer run would count more.
//
// The same counter also tallies bytes, which pins the batched path's O(k)
// memory: runs differing only in colony size must allocate the same bytes.
//
// This file must stay its own test binary (the CMake one-binary-per-file
// rule guarantees that): the operator new/delete replacements below are
// process-global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "aggregate/aggregate_sim.h"
#include "agent/agent_sim.h"
#include "algo/ant.h"
#include "noise/sigmoid.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t padded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, padded == 0 ? alignment : padded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace antalloc {
namespace {

std::uint64_t g_sink = 0;  // keeps results observable

struct Tally {
  std::uint64_t allocations;
  std::uint64_t bytes;
};

// The three ways to run Algorithm Ant; the batched path runs the same
// kernel as the aggregate engine, behind run_agent_sim.
enum class Path { kPerAnt, kBatched, kAggregate };

Tally tally_run(Path path, Round rounds, Count n_ants) {
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t bytes_before = g_bytes.load(std::memory_order_relaxed);
  {
    const AntParams params{.gamma = 0.05};
    SigmoidFeedback fm(1.0);
    const DemandVector demands({Count{60}, Count{40}});
    SimResult res;
    if (path == Path::kAggregate) {
      AntAggregate kernel(params);
      AggregateSimConfig cfg{.n_ants = n_ants,
                             .rounds = rounds,
                             .seed = 7,
                             .metrics = {.gamma = 0.05}};
      res = run_aggregate_sim(kernel, fm, demands, cfg);
    } else {
      AntAgent algo(params);
      AgentSimConfig cfg{.n_ants = n_ants,
                         .rounds = rounds,
                         .seed = 7,
                         .metrics = {.gamma = 0.05},
                         .sampling = path == Path::kBatched
                                         ? SamplingMode::kBatched
                                         : SamplingMode::kPerAnt};
      res = run_agent_sim(algo, fm, demands, cfg);
    }
    g_sink += static_cast<std::uint64_t>(res.switches);
  }
  return {g_allocations.load(std::memory_order_relaxed) - allocations_before,
          g_bytes.load(std::memory_order_relaxed) - bytes_before};
}

std::uint64_t allocations_for_run(Path path, Round rounds) {
  return tally_run(path, rounds, 512).allocations;
}

class AllocationFree : public ::testing::TestWithParam<Path> {};

TEST_P(AllocationFree, RoundCountDoesNotChangeAllocationCount) {
  const Path path = GetParam();
  // Warm up once: one-time lazy initialisation inside the stdlib (locale,
  // distribution internals) must not be charged to either measured run.
  (void)allocations_for_run(path, 50);

  const std::uint64_t short_run = allocations_for_run(path, 100);
  const std::uint64_t long_run = allocations_for_run(path, 300);
  // Setup allocations scale with n and k only; if any per-round code path
  // allocated, the 300-round run would exceed the 100-round run.
  EXPECT_EQ(short_run, long_run) << "per-round heap allocations detected";
  // Sanity: the counter is actually live.
  EXPECT_GT(short_run, 0u);
}

INSTANTIATE_TEST_SUITE_P(SamplingModes, AllocationFree,
                         ::testing::Values(Path::kPerAnt, Path::kBatched,
                                           Path::kAggregate),
                         [](const ::testing::TestParamInfo<Path>& i) {
                           switch (i.param) {
                             case Path::kPerAnt: return "per_ant";
                             case Path::kBatched: return "batched";
                             case Path::kAggregate: return "aggregate";
                           }
                           return "unknown";
                         });

TEST(AllocationFreeBatched, ColonySizeDoesNotChangeAllocatedBytes) {
  // The batched path's kernel keeps per-task counts, not per-ant state, and
  // the engine builds no per-ant assignment on that path: a 2^20-ant colony
  // must allocate exactly the bytes a 512-ant one does.
  (void)tally_run(Path::kBatched, 50, 512);  // warm-up, as above

  const Tally small = tally_run(Path::kBatched, 100, 512);
  const Tally large = tally_run(Path::kBatched, 100, Count{1} << 20);
  EXPECT_EQ(small.bytes, large.bytes)
      << "batched-run memory grows with the colony size";
  EXPECT_GT(small.bytes, 0u);
}

}  // namespace
}  // namespace antalloc
