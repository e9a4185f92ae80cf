#include "tracer.h"

#include <chrono>
#include <cstdio>

namespace antbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::begin(const std::string& name, std::int64_t items) {
  const std::uint64_t parent = t_open.empty() ? 0 : t_open.back();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    records_.push_back({id, parent, name, items, 0, 0});
  }
  t_open.push_back(id);
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  records_[id - 1].start_ns = start;
  return id;
}

void Tracer::end(std::uint64_t id, std::int64_t items) {
  const std::int64_t stop = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  Record& r = records_[id - 1];
  r.end_ns = stop;
  r.items = items;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_s(records_.size() + 1, 0.0);
  for (const Record& r : records_) {
    if (r.parent != 0) {
      child_s[r.parent] += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    }
  }
  std::map<std::string, Totals> out;
  for (const Record& r : records_) {
    Totals& t = out[r.name];
    const double dur = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    t.count += 1;
    t.items += r.items;
    t.total_s += dur;
    t.self_s += dur - child_s[r.id];
  }
  return out;
}

Tracer::Totals Tracer::of(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? Totals{} : it->second;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\titems\tstart_ns\tend_ns\n");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Record& r : records_) {
      std::fprintf(f, "%llu\t%llu\t%s\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent), r.name.c_str(),
                   static_cast<long long>(r.items),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::int64_t items) : items_(items) {
  Tracer& t = Tracer::get();
  if (t.enabled()) id_ = t.begin(name, items);
}

Span::~Span() {
  if (id_ != 0) Tracer::get().end(id_, items_);
}

}  // namespace antbench
