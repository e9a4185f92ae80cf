// Work-stealing task executor: the one scheduling engine in the codebase.
// Everything parallel lands here — parallel_for (below), the per-replicate
// run_replicated_experiment built on it, and run_campaign's flattened
// cell×replicate graph. parallel/thread_pool.h only keeps the historical
// ThreadPool spelling as an alias of TaskGraph.
//
// Design: one persistent worker thread per slot, each owning a Chase–Lev
// deque (parallel/ws_deque.h). A worker's loop is pop-own-deque first
// (LIFO, cache-warm), then grab a chunk of the mutex-guarded injection
// queue (where external threads deposit whole batches — the lock is taken
// once per batch by the producer and amortized over many tasks by
// consumers, never per task), then steal from a co-worker's deque (FIFO,
// atomics only). The task hot path — a worker moving from one task to the
// next while work is available — takes no lock: it is a deque pop or a
// steal CAS. Blocking only happens when the whole system runs dry, through
// an eventcount (sleeper counter + epoch + condvar) that producers touch
// only when someone is actually asleep.
//
// Two entry points:
//  - run_indexed(begin, end, grain, body[, on_done]): the bulk API. Splits
//    the index range into ceil(total/grain) stealable range-tasks sharing
//    ONE body (no per-iteration std::function allocation), runs them to
//    completion, and rethrows the first captured exception with its
//    original type. `on_done(i)` — when given — runs immediately after a
//    successful body(i) on the same worker: the per-index completion hook
//    that campaign cells hang their replicate countdowns on. The CALLER
//    PARTICIPATES: while the batch is open the calling thread executes
//    tasks like any worker, so a TaskGraph(1) run driven from the main
//    thread has two hands on the work. Reentrant: a body may call
//    run_indexed on the same graph (nested batches push to the worker's
//    own deque and the worker helps until the nested batch drains).
//  - submit(fn) / wait_idle(): the incremental API. Each submit is one
//    heap-allocated task; wait_idle blocks until every submitted task has
//    finished and rethrows the first captured exception with its original
//    type.
//
// Determinism contract: the executor decides only WHERE and WHEN a task
// runs, never WHAT it computes — callers derive all randomness from task
// indices (seeds are hash(base, index)), write results into pre-sized
// per-index slots, and fold in index order. Under that discipline results
// are bit-identical for any worker count and any steal schedule, which
// campaign_schedule_test (run_campaign) and experiment_test
// (run_replicated_experiment) pin across {1, 4, 8} workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace antalloc {

class TaskGraph {
 public:
  // threads == 0 picks hardware_concurrency (at least 1).
  explicit TaskGraph(std::size_t threads = 0);
  ~TaskGraph();

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  std::size_t size() const { return workers_.size(); }

  using IndexFn = std::function<void(std::int64_t)>;

  // Runs body(i) for every i in [begin, end), `grain` consecutive indices
  // per stealable task, blocking until all have run. Exceptions from body
  // (or on_done) are captured per index — remaining indices still run — and
  // the first one is rethrown here with its original type. on_done(i), when
  // non-empty, runs right after a successful body(i) on the same thread.
  void run_indexed(std::int64_t begin, std::int64_t end, std::int64_t grain,
                   const IndexFn& body, const IndexFn& on_done = {});

  // Enqueues one task (incremental API). Prefer run_indexed for loops: this
  // path heap-allocates a node per call.
  void submit(std::function<void()> task);

  // Blocks until every submit()ted task has finished, then rethrows the
  // first exception any of them threw, with its original type. The caller
  // executes pending tasks while it waits.
  void wait_idle();

  // Total successful steals since construction (workers + external
  // helpers). Monotone; a scheduling observability counter (campaign
  // progress reports it), not part of any result.
  std::uint64_t steals() const;

 private:
  struct Batch;
  struct TaskNode;
  struct Worker;

  void worker_main(std::size_t index);
  TaskNode* find_task(Worker* self);
  void execute(TaskNode* node);
  void enqueue_external(TaskNode* const* nodes, std::size_t count);
  void wait_batch(Batch& batch);
  bool work_available() const;
  void wake_all();
  void maybe_wake();
  void idle_sleep(std::uint64_t observed_epoch);

  std::vector<Worker*> workers_;
  std::vector<std::thread> threads_;

  // Injection queue: external producers push whole batches under one lock;
  // consumers drain it in per-worker chunks. Cold relative to the deques.
  std::mutex inject_mutex_;
  std::vector<TaskNode*> inject_;
  std::size_t inject_head_ = 0;
  std::atomic<std::int64_t> inject_count_{0};

  // Eventcount: producers bump the epoch and notify only when sleepers_ > 0.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::int64_t> sleepers_{0};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> external_steals_{0};
  Batch* idle_batch_;  // the implicit batch behind submit()/wait_idle()

  // Which worker of which graph the current thread is — how nested
  // run_indexed calls find their own deque (lock-free owner pushes)
  // instead of the injection queue.
  static thread_local TaskGraph* tls_graph_;
  static thread_local Worker* tls_worker_;
};

// Runs body(i) for i in [begin, end) on `graph`, blocking until done.
// Chunked: at most 4 stealable range-tasks per worker (one shared body, no
// per-iteration allocation). Exceptions thrown by `body` are captured — the
// remaining iterations still run — and the first one is rethrown on the
// calling thread with its original type after all iterations finish.
void parallel_for(TaskGraph& graph, std::int64_t begin, std::int64_t end,
                  const TaskGraph::IndexFn& body);

// Shared process-wide executor (lazily constructed). Width defaults to
// hardware_concurrency; set_global_task_graph_threads pins it before first
// use.
TaskGraph& global_pool();

// Pins the width of the lazily-constructed global executor (0 = hardware
// concurrency). Must be called before global_pool() first runs — throws
// std::logic_error afterwards, because shrinking a live pool is not
// supported. The CLI's --jobs flag lands here.
void set_global_task_graph_threads(std::size_t threads);

}  // namespace antalloc
