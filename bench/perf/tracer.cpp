#include "tracer.h"

#include <chrono>
#include <cstdio>

namespace smerge::perf {

namespace {

/// Raw spans kept for the written trace (about 30 bytes each on disk);
/// aggregates keep counting past the cap.
constexpr std::size_t kMaxRecords = std::size_t{1} << 19;

}  // namespace

std::int64_t Tracer::now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_ns_(now_ns()) {
  main_ = lane();
}

Tracer::Lane* Tracer::lane() {
  if (!enabled_) return nullptr;
  std::lock_guard lock(mutex_);
  lanes_.push_back(std::unique_ptr<Lane>(new Lane(epoch_ns_, kept_)));
  return lanes_.back().get();
}

bool Tracer::Lane::keep() noexcept {
  return kept_.fetch_add(1, std::memory_order_relaxed) < kMaxRecords;
}

void Tracer::Lane::open(const char* name) {
  std::int64_t index = -1;
  const std::int64_t start = now_ns();
  if (keep()) {
    index = static_cast<std::int64_t>(records_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().index;
    records_.push_back({name, parent, start - epoch_ns_, 0, 0});
  }
  stack_.push_back({index, name, start});
}

void Tracer::Lane::close(std::uint64_t count) {
  const std::int64_t end = now_ns();
  const Open top = stack_.back();
  stack_.pop_back();
  if (top.index >= 0) {
    Record& r = records_[static_cast<std::size_t>(top.index)];
    r.end_ns = end - epoch_ns_;
    r.count = count;
  }
  Stat& s = stats_[top.name];
  ++s.spans;
  s.count += count;
  s.total_ns += static_cast<double>(end - top.start_ns);
}

Tracer::Span::Span(Lane* lane, const char* name, std::uint64_t count)
    : lane_(lane), count_(count) {
  if (lane_ != nullptr) lane_->open(name);
}

Tracer::Span::~Span() {
  if (lane_ != nullptr) lane_->close(count_);
}

void Tracer::add(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard lock(mutex_);
  counters_[name] += value;
}

void Tracer::set(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard lock(mutex_);
  counters_[name] = value;
}

bool Tracer::has_counter(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return counters_.count(name) != 0;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::map<std::string, Tracer::Stat> Tracer::stats() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, Stat> merged;
  for (const auto& lane : lanes_) {
    for (const auto& [name, s] : lane->stats_) {
      Stat& m = merged[name];
      m.spans += s.spans;
      m.count += s.count;
      m.total_ns += s.total_ns;
    }
  }
  return merged;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mutex_);
  std::fprintf(f, "lane\tid\tparent\tname\tstart_ns\tend_ns\tcount\n");
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const auto& records = lanes_[l]->records_;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& r = records[i];
      std::fprintf(f, "%zu\t%zu\t%lld\t%s\t%lld\t%lld\t%llu\n", l, i,
                   static_cast<long long>(r.parent), r.name,
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<unsigned long long>(r.count));
    }
  }
  for (const auto& [name, value] : counters_) {
    std::fprintf(f, "# counter\t%s\t%.17g\n", name.c_str(), value);
  }
  return std::fclose(f) == 0;
}

}  // namespace smerge::perf
