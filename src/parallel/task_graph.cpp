#include "parallel/task_graph.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "parallel/ws_deque.h"

namespace antalloc {

// A batch is one blocking unit of work: a counter of unfinished tasks plus
// the first captured exception. run_indexed stack-allocates one per call;
// submit()/wait_idle() share the graph's long-lived idle batch.
struct TaskGraph::Batch {
  std::atomic<std::int64_t> remaining{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  void record_error(std::exception_ptr error) {
    std::lock_guard lock(error_mutex);
    if (!first_error) first_error = std::move(error);
    failed.store(true, std::memory_order_release);
  }

  // Rethrows (and clears) the first captured error. Call only when
  // remaining == 0 — nothing races the slot then.
  void rethrow_if_failed() {
    if (!failed.load(std::memory_order_acquire)) return;
    std::exception_ptr error;
    {
      std::lock_guard lock(error_mutex);
      error = std::exchange(first_error, nullptr);
      failed.store(false, std::memory_order_relaxed);
    }
    if (error) std::rethrow_exception(error);
  }
};

// One stealable unit: either an index-range slice of a run_indexed batch
// (shares the batch's body — no per-iteration allocation) or a single
// submit()ted function (heap-owned, freed after execution).
struct TaskGraph::TaskNode {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  const IndexFn* body = nullptr;
  const IndexFn* on_done = nullptr;
  std::function<void()> fn;
  Batch* batch = nullptr;
  bool heap = false;
};

struct TaskGraph::Worker {
  explicit Worker(std::size_t index_in)
      : index(index_in), next_victim(index_in + 1) {}
  std::size_t index;
  WsDeque<TaskNode*> deque;
  // Round-robin steal cursor; purely a performance hint (start past
  // ourselves so workers fan out over distinct victims).
  std::size_t next_victim;
  alignas(64) std::atomic<std::uint64_t> steals{0};
};

thread_local TaskGraph* TaskGraph::tls_graph_ = nullptr;
thread_local TaskGraph::Worker* TaskGraph::tls_worker_ = nullptr;

TaskGraph::TaskGraph(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.push_back(new Worker(i));
  idle_batch_ = new Batch;
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

TaskGraph::~TaskGraph() {
  stopping_.store(true, std::memory_order_seq_cst);
  wake_all();
  for (auto& thread : threads_) thread.join();
  delete idle_batch_;
  for (Worker* w : workers_) delete w;
}

void TaskGraph::run_indexed(std::int64_t begin, std::int64_t end,
                            std::int64_t grain, const IndexFn& body,
                            const IndexFn& on_done) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  const std::int64_t total = end - begin;
  const std::int64_t count = (total + grain - 1) / grain;

  Batch batch;
  batch.remaining.store(count, std::memory_order_relaxed);
  std::vector<TaskNode> nodes(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    TaskNode& node = nodes[static_cast<std::size_t>(i)];
    node.lo = begin + i * grain;
    node.hi = std::min(end, node.lo + grain);
    node.body = &body;
    node.on_done = on_done ? &on_done : nullptr;
    node.batch = &batch;
  }

  if (tls_graph_ == this) {
    // Nested (or worker-driven) batch: owner-push to this worker's deque,
    // lowest index last so the owner's LIFO pop walks the range in order
    // while thieves take from the high end.
    for (std::int64_t i = count - 1; i >= 0; --i) {
      tls_worker_->deque.push(&nodes[static_cast<std::size_t>(i)]);
    }
    maybe_wake();
  } else {
    std::vector<TaskNode*> handles(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      handles[static_cast<std::size_t>(i)] =
          &nodes[static_cast<std::size_t>(i)];
    }
    enqueue_external(handles.data(), handles.size());
  }

  wait_batch(batch);
  batch.rethrow_if_failed();
}

void TaskGraph::submit(std::function<void()> task) {
  auto* node = new TaskNode;
  node->fn = std::move(task);
  node->batch = idle_batch_;
  node->heap = true;
  idle_batch_->remaining.fetch_add(1, std::memory_order_acq_rel);
  if (tls_graph_ == this) {
    tls_worker_->deque.push(node);
    maybe_wake();
  } else {
    enqueue_external(&node, 1);
  }
}

void TaskGraph::wait_idle() {
  wait_batch(*idle_batch_);
  idle_batch_->rethrow_if_failed();
}

std::uint64_t TaskGraph::steals() const {
  std::uint64_t total = external_steals_.load(std::memory_order_relaxed);
  for (const Worker* w : workers_) {
    total += w->steals.load(std::memory_order_relaxed);
  }
  return total;
}

void TaskGraph::enqueue_external(TaskNode* const* nodes, std::size_t count) {
  {
    std::lock_guard lock(inject_mutex_);
    // Compact the consumed prefix opportunistically so the vector does not
    // grow without bound across batches.
    if (inject_head_ > 0 && inject_head_ == inject_.size()) {
      inject_.clear();
      inject_head_ = 0;
    }
    inject_.insert(inject_.end(), nodes, nodes + count);
  }
  inject_count_.fetch_add(static_cast<std::int64_t>(count),
                          std::memory_order_seq_cst);
  wake_all();
}

// The claim order every consumer follows: own deque (workers only), then an
// injection-queue chunk, then stealing. Returns nullptr when nothing was
// claimable this pass.
TaskGraph::TaskNode* TaskGraph::find_task(Worker* self) {
  TaskNode* node = nullptr;
  if (self != nullptr && self->deque.pop(node)) return node;

  if (inject_count_.load(std::memory_order_seq_cst) > 0) {
    std::vector<TaskNode*> chunk;
    {
      std::lock_guard lock(inject_mutex_);
      const std::size_t pending = inject_.size() - inject_head_;
      if (pending > 0) {
        // Take a fair share in one lock acquisition; the surplus moves to
        // the consumer's own deque where co-workers steal it lock-free.
        // External helpers (no deque) take exactly one.
        const std::size_t share =
            self == nullptr
                ? 1
                : std::max<std::size_t>(1, pending / workers_.size());
        const std::size_t take = std::min(pending, share);
        chunk.assign(inject_.begin() + static_cast<std::ptrdiff_t>(inject_head_),
                     inject_.begin() +
                         static_cast<std::ptrdiff_t>(inject_head_ + take));
        inject_head_ += take;
        inject_count_.fetch_sub(static_cast<std::int64_t>(take),
                                std::memory_order_relaxed);
      }
    }
    if (!chunk.empty()) {
      for (std::size_t i = chunk.size(); i > 1; --i) {
        self->deque.push(chunk[i - 1]);
      }
      if (chunk.size() > 1) maybe_wake();
      return chunk.front();
    }
  }

  // Steal round-robin from every worker deque (including, for an external
  // helper, all of them; a worker skips itself).
  const std::size_t n = workers_.size();
  const std::size_t start = self != nullptr ? self->next_victim : 0;
  for (std::size_t i = 0; i < n; ++i) {
    Worker* victim = workers_[(start + i) % n];
    if (victim == self) continue;
    if (victim->deque.steal(node)) {
      if (self != nullptr) {
        self->next_victim = (start + i) % n;
        self->steals.fetch_add(1, std::memory_order_relaxed);
      } else {
        external_steals_.fetch_add(1, std::memory_order_relaxed);
      }
      return node;
    }
  }
  return nullptr;
}

void TaskGraph::execute(TaskNode* node) {
  Batch* batch = node->batch;
  if (node->body != nullptr) {
    // Exceptions are captured per index and the remaining indices still
    // run — parallel_for's historical contract (the first error is
    // rethrown after the whole range has been attempted).
    for (std::int64_t i = node->lo; i < node->hi; ++i) {
      try {
        (*node->body)(i);
        if (node->on_done != nullptr) (*node->on_done)(i);
      } catch (...) {
        batch->record_error(std::current_exception());
      }
    }
  } else {
    try {
      node->fn();
    } catch (...) {
      batch->record_error(std::current_exception());
    }
  }
  if (node->heap) delete node;
  if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task of a batch: its waiter may be asleep.
    wake_all();
  }
}

bool TaskGraph::work_available() const {
  if (inject_count_.load(std::memory_order_seq_cst) > 0) return true;
  for (const Worker* w : workers_) {
    if (w->deque.size_hint() > 0) return true;
  }
  return false;
}

void TaskGraph::wake_all() {
  {
    std::lock_guard lock(sleep_mutex_);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  sleep_cv_.notify_all();
}

void TaskGraph::maybe_wake() {
  // seq_cst pairs with the sleeper's seq_cst fetch_add before its recheck:
  // either we see the sleeper (and notify), or the sleeper's recheck sees
  // the work we just published.
  if (sleepers_.load(std::memory_order_seq_cst) > 0) wake_all();
}

void TaskGraph::idle_sleep(std::uint64_t observed_epoch) {
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  if (work_available() || stopping_.load(std::memory_order_seq_cst)) {
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  {
    std::unique_lock lock(sleep_mutex_);
    // Timed wait purely as insurance: the epoch protocol is what wakes us.
    sleep_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
      return epoch_.load(std::memory_order_relaxed) != observed_epoch ||
             stopping_.load(std::memory_order_relaxed);
    });
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

void TaskGraph::worker_main(std::size_t index) {
  tls_graph_ = this;
  tls_worker_ = workers_[index];
  for (;;) {
    TaskNode* node = find_task(tls_worker_);
    if (node != nullptr) {
      execute(node);
      continue;
    }
    // Drain everything before honoring stop (the old pool's contract:
    // destruction runs pending tasks, it does not drop them). find_task
    // can miss transiently (a lost steal CAS), so recheck work_available.
    if (stopping_.load(std::memory_order_seq_cst)) {
      if (work_available()) continue;
      return;
    }
    idle_sleep(epoch_.load(std::memory_order_acquire));
  }
}

void TaskGraph::wait_batch(Batch& batch) {
  // The caller helps: a worker (nested batch) or an external driver both
  // execute tasks while the batch is open. Note a helper may pick up tasks
  // from OTHER batches too — that is fine (they were going to run anyway)
  // and is what keeps nested parallelism deadlock-free.
  Worker* self = tls_graph_ == this ? tls_worker_ : nullptr;
  for (;;) {
    if (batch.remaining.load(std::memory_order_acquire) == 0) return;
    TaskNode* node = find_task(self);
    if (node != nullptr) {
      execute(node);
      continue;
    }
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (batch.remaining.load(std::memory_order_acquire) == 0) return;
    idle_sleep(epoch);
  }
}

void parallel_for(TaskGraph& graph, std::int64_t begin, std::int64_t end,
                  const TaskGraph::IndexFn& body) {
  if (begin >= end) return;
  // Block decomposition: at most 4 blocks per worker keeps scheduling
  // overhead low while still smoothing imbalance (stealing rebalances the
  // blocks themselves).
  const std::int64_t total = end - begin;
  const std::int64_t max_blocks = static_cast<std::int64_t>(graph.size()) * 4;
  const std::int64_t blocks = std::min<std::int64_t>(total, max_blocks);
  const std::int64_t grain = (total + blocks - 1) / blocks;
  graph.run_indexed(begin, end, grain, body);
}

namespace {

std::atomic<std::size_t> g_global_threads{0};
std::atomic<bool> g_global_constructed{false};

}  // namespace

TaskGraph& global_pool() {
  static TaskGraph graph(g_global_threads.load(std::memory_order_acquire));
  g_global_constructed.store(true, std::memory_order_release);
  return graph;
}

void set_global_task_graph_threads(std::size_t threads) {
  if (g_global_constructed.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "set_global_task_graph_threads: the global executor is already "
        "running; pin the width (e.g. --jobs) before any parallel work");
  }
  g_global_threads.store(threads, std::memory_order_release);
}

}  // namespace antalloc
