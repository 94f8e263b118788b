// In-memory span recorder for the traced (`--trace`) runs.
//
// A span is a named interval around one call (or one batch of calls)
// into a layer's public functions, made from the benchmark's own code.
// Spans nest per thread and each records its parent, so a span's self
// time (its duration minus what its children cover) can be read off
// the written trace. Every span also carries a count — the calls or
// arrivals it covers — so per-call costs and ratios are measured where
// the work happens. Each thread records
// into its own Lane (no locks on the recording path); the spans stay in
// memory and are written out once, at exit.
//
// With tracing off, lane() returns nullptr and a Span over a null lane
// reads no clock — the untraced run pays nothing.
#ifndef SMERGE_PERF_TRACER_H
#define SMERGE_PERF_TRACER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace smerge::perf {

class Tracer {
 public:
  /// Aggregate of every span with one name.
  struct Stat {
    std::uint64_t spans = 0;
    std::uint64_t count = 0;  ///< sum of the spans' counts
    double total_ns = 0.0;
  };

  /// One thread's recording buffer.
  class Lane {
   private:
    friend class Tracer;
    friend class Span;
    struct Record {
      const char* name;
      std::int64_t parent;  ///< index in this lane, -1 for a root
      std::int64_t start_ns;
      std::int64_t end_ns;
      std::uint64_t count;
    };
    struct Open {
      std::int64_t index;  ///< -1 once the record cap is reached
      const char* name;
      std::int64_t start_ns;
    };
    Lane(std::int64_t epoch_ns, std::atomic<std::size_t>& kept)
        : epoch_ns_(epoch_ns), kept_(kept) {}
    /// Whether one more raw span fits the tracer-wide budget.
    [[nodiscard]] bool keep() noexcept;
    void open(const char* name);
    void close(std::uint64_t count);

    std::int64_t epoch_ns_;
    std::atomic<std::size_t>& kept_;
    std::vector<Record> records_;
    std::vector<Open> stack_;
    std::unordered_map<const char*, Stat> stats_;
  };

  /// RAII span; a no-op over a null lane.
  class Span {
   public:
    Span(Lane* lane, const char* name, std::uint64_t count = 1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    void set_count(std::uint64_t count) noexcept { count_ = count; }

   private:
    Lane* lane_;
    std::uint64_t count_;
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// A fresh lane for the calling thread; nullptr when tracing is off.
  /// The lane lives as long as the tracer.
  [[nodiscard]] Lane* lane();
  /// The lane of the benchmark's main thread.
  [[nodiscard]] Lane* main_lane() noexcept { return main_; }

  /// Adds `value` to a named counter / sets it (any thread; no-ops when
  /// tracing is off).
  void add(const std::string& name, double value);
  void set(const std::string& name, double value);
  [[nodiscard]] bool has_counter(const std::string& name) const;
  [[nodiscard]] double counter(const std::string& name) const;

  /// Span aggregates merged over lanes, by name.
  [[nodiscard]] std::map<std::string, Stat> stats() const;

  /// Writes every recorded span (TSV) and counter. Returns false when
  /// the file cannot be written.
  bool write(const std::string& path) const;

  /// Nanoseconds on the tracer's clock (steady, process-wide).
  [[nodiscard]] static std::int64_t now_ns() noexcept;

 private:
  bool enabled_;
  std::int64_t epoch_ns_;
  std::atomic<std::size_t> kept_{0};  ///< raw spans kept, over all lanes
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::map<std::string, double> counters_;
  Lane* main_ = nullptr;
};

}  // namespace smerge::perf

#endif  // SMERGE_PERF_TRACER_H
