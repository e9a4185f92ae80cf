// Spans for the traced run: name, start, end, parent, and an item count,
// kept in memory and written out when the benchmark ends. A span covers one
// call the benchmark makes into a layer; its name is "<layer>.<what>".
// A span's self time is its duration minus the time its child spans cover.
// With the tracer disabled (the plain run) a Span costs one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace antbench {

class Tracer {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::string name;
    std::int64_t items = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  // Aggregate of every span sharing one name.
  struct Totals {
    std::int64_t count = 0;
    std::int64_t items = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  static Tracer& get();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t begin(const std::string& name, std::int64_t items);
  void end(std::uint64_t id, std::int64_t items);

  // Totals of every span named `name`; self time = duration minus the
  // durations of direct children.
  Totals of(const std::string& name) const;

  // Writes every span as a tab-separated line; returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  static std::int64_t now_ns();
  std::map<std::string, Totals> totals() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;    // guarded by mutex_
};

// RAII span. The parent is the innermost open span on the same thread.
class Span {
 public:
  explicit Span(const char* name, std::int64_t items = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_items(std::int64_t items) { items_ = items; }

 private:
  std::uint64_t id_ = 0;
  std::int64_t items_ = 0;
};

}  // namespace antbench
