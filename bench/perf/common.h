// Shared plumbing for the smerge_perf workloads: options, generated
// inputs, clocks, percentiles and the result record every workload
// prints.
#ifndef SMERGE_PERF_COMMON_H
#define SMERGE_PERF_COMMON_H

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/workload.h"

namespace smerge::perf {

class Tracer;

using Clock = std::chrono::steady_clock;

/// What one invocation was asked to do.
struct Options {
  std::string workload;
  std::uint64_t seed = 20260728;
  double seconds = 10.0;   ///< measured time per workload
  double scale = 1.0;      ///< input-size multiplier (the smoke test shrinks it)
  bool trace = false;      ///< record spans and print the per-layer metrics
  std::string trace_dir = ".";  ///< where the recorded spans are written at exit
};

/// The guaranteed start-up delay every workload serves with (the slot).
inline constexpr double kDelay = 0.01;

[[nodiscard]] double seconds_since(Clock::time_point start);
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Aggregate `steal` and total jiffies from /proc/stat (zeros when the
/// file is unreadable).
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] HostTicks host_ticks();
[[nodiscard]] double steal_share(const HostTicks& from, const HostTicks& to);

/// Moves the constructing thread round-robin over every CPU of the
/// process, one step every 10 ms, until destroyed (which restores its
/// CPU set). On a shared host each CPU's speed depends on its
/// neighbours; a single-threaded workload left on one CPU would measure
/// that CPU's neighbour, a rotated one measures the machine.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  pid_t tid_;
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;  ///< last: it uses every member above
};

/// Per-object sorted arrival times over a Zipf(1.0) Poisson catalogue —
/// the only input a workload's program sees.
struct Catalogue {
  sim::WorkloadConfig workload;
  std::vector<std::vector<double>> traces;
  std::size_t arrivals = 0;
};

/// `objects` objects, `rate` aggregate arrivals per media length, over
/// `horizon` media lengths. Generation runs on two threads; the trace is
/// a pure function of the arguments. Spans land in `tracer` as
/// sim.generate (one count per arrival).
[[nodiscard]] Catalogue make_catalogue(Index objects, double rate,
                                       double horizon, std::uint64_t seed,
                                       Tracer& tracer);

/// A stable 64-bit mix for seeds of derived inputs.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Nearest-rank percentile (q in [0, 1]); sorts `values`. 0 when empty.
[[nodiscard]] double percentile(std::vector<double>& values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Tail latency robust to scheduler stalls: the median, over fixed
/// windows, of each window's 99th percentile. `window_of[i]` names the
/// window of sample i; windows with fewer than 100 samples are skipped
/// (all samples form one window when none has 100).
[[nodiscard]] double windowed_p99(const std::vector<float>& samples,
                                  const std::vector<std::uint32_t>& window_of);

/// Everything a workload reports. Metric lines print as
/// `<workload> <metric> <value> <unit>`.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::string workload;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed as `# ...` lines
  std::uint64_t attempted = 0;     ///< arrivals (or requests) attempted
  std::uint64_t failed = 0;        ///< of those, not served or wrong
  std::uint64_t digest = 0;        ///< deterministic output digest per seed
  bool correct = true;

  void add(const std::string& name, double value, const std::string& unit);
  /// Marks the whole run failed (a digest or oracle mismatch).
  void fail(const std::string& why);
  void print() const;
};

/// Runs `build` `kSetupRepeats` times (destroying the previous product
/// first), returns the last product and stores the median wall time.
inline constexpr int kSetupRepeats = 5;
template <typename Build>
auto timed_setup(Build build, double& median_s) {
  using T = decltype(build());
  std::vector<double> times;
  T product{};
  for (int i = 0; i < kSetupRepeats; ++i) {
    product = T{};
    const auto start = Clock::now();
    product = build();
    times.push_back(seconds_since(start));
  }
  median_s = median(std::move(times));
  return product;
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json
/// order.
struct EndToEnd {
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double arrivals_per_s = 0.0;
  double cpu_us_per_arrival = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
  std::uint64_t requests = 0;  ///< latency samples behind the percentiles
};
void add_end_to_end(Result& result, const EndToEnd& e2e);

/// Per-request measurements of a batch workload (offline_plan, recover).
struct Requests {
  std::vector<double> latency_us;  ///< wall time of each request
  std::vector<double> cpu_s;       ///< process CPU of each request
  std::vector<double> arrivals;    ///< arrivals each request served

  void add(double latency, double cpu, double served);
};

/// Sets the latency p50/p99 of `e2e` to the median over consecutive
/// groups of `group` requests (a trailing partial group is dropped once
/// a full one exists) of each group's percentile, so one slow stretch of
/// the host moves one group, not the run; arrivals per second and CPU
/// per arrival are totals over all requests.
void summarize_requests(const Requests& requests, std::size_t group, EndToEnd& e2e);

/// FNV-1a 64 folding of digests and scalars into one output digest.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
};

}  // namespace smerge::perf

#endif  // SMERGE_PERF_COMMON_H
