#include "common.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>

#include "tracer.h"
#include "util/parallel.h"

namespace smerge::perf {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuRotation::CpuRotation() : tid_(gettid()) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(tid_, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  if (cpus_.size() < 2) return;
  thread_ = std::thread([this] {
    std::unique_lock lock(mutex_);
    for (std::size_t step = 0; !stop_; ++step) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[step % cpus_.size()], &one);
      sched_setaffinity(tid_, sizeof one, &one);
      wake_.wait_for(lock, std::chrono::milliseconds(10), [this] { return stop_; });
    }
  });
}

CpuRotation::~CpuRotation() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int c : cpus_) CPU_SET(c, &all);
  if (!cpus_.empty()) sched_setaffinity(tid_, sizeof all, &all);
}

HostTicks host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostTicks ticks;
  if (cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double steal_share(const HostTicks& from, const HostTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

Catalogue make_catalogue(Index objects, double rate, double horizon,
                         std::uint64_t seed, Tracer& tracer) {
  Catalogue c;
  c.workload.process = sim::ArrivalProcess::kPoisson;
  c.workload.objects = objects;
  c.workload.zipf_exponent = 1.0;
  c.workload.mean_gap = 1.0 / rate;
  c.workload.horizon = horizon;
  c.workload.seed = seed;
  Tracer::Span span(tracer.main_lane(), "sim.generate");
  const std::vector<double> weights =
      sim::zipf_weights(objects, c.workload.zipf_exponent);
  c.traces.resize(static_cast<std::size_t>(objects));
  util::parallel_for(
      0, objects,
      [&](std::int64_t m) {
        const auto i = static_cast<std::size_t>(m);
        c.traces[i] = sim::generate_arrivals(c.workload, m, weights[i]);
      },
      2);
  for (const auto& trace : c.traces) c.arrivals += trace.size();
  span.set_count(c.arrivals);
  return c;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double windowed_p99(const std::vector<float>& samples,
                    const std::vector<std::uint32_t>& window_of) {
  std::map<std::uint32_t, std::vector<double>> windows;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    windows[window_of[i]].push_back(samples[i]);
  }
  std::vector<double> p99s;
  for (auto& [window, values] : windows) {
    if (values.size() >= 100) p99s.push_back(percentile(values, 0.99));
  }
  if (p99s.empty()) {
    std::vector<double> all(samples.begin(), samples.end());
    return percentile(all, 0.99);
  }
  return median(std::move(p99s));
}

void Result::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Result::fail(const std::string& why) {
  correct = false;
  failed = attempted;
  notes.push_back("FAILED: " + why);
}

void Result::print() const {
  for (const std::string& note : notes) {
    std::printf("# %s %s\n", workload.c_str(), note.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s %s %.17g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s status correct=%d attempted=%" PRIu64 " failed=%" PRIu64
              " digest=%016" PRIx64 "\n",
              workload.c_str(), correct ? 1 : 0, attempted, failed, digest);
  std::fflush(stdout);
}

void add_end_to_end(Result& result, const EndToEnd& e2e) {
  result.add("latency_p50_us", e2e.latency_p50_us, "us");
  result.add("latency_p99_us", e2e.latency_p99_us, "us");
  result.add("arrivals_per_s", e2e.arrivals_per_s, "1/s");
  result.add("cpu_us_per_arrival", e2e.cpu_us_per_arrival, "us");
  result.add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  result.add("setup_s", e2e.setup_s, "s");
  result.add("requests", static_cast<double>(e2e.requests), "count");
}

void Requests::add(double latency, double cpu, double served) {
  latency_us.push_back(latency);
  cpu_s.push_back(cpu);
  arrivals.push_back(served);
}

void summarize_requests(const Requests& requests, std::size_t group, EndToEnd& e2e) {
  const std::size_t n = requests.latency_us.size();
  std::vector<double> p50, p99;
  for (std::size_t from = 0; from < n; from += group) {
    const std::size_t to = std::min(n, from + group);
    if (to - from < group && from > 0) break;
    const auto first = requests.latency_us.begin();
    std::vector<double> latency(first + static_cast<std::ptrdiff_t>(from),
                                first + static_cast<std::ptrdiff_t>(to));
    p50.push_back(percentile(latency, 0.50));
    p99.push_back(percentile(latency, 0.99));
  }
  double wall_s = 0.0, cpu_s = 0.0, served = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    wall_s += requests.latency_us[i] * 1e-6;
    cpu_s += requests.cpu_s[i];
    served += requests.arrivals[i];
  }
  e2e.requests = n;
  e2e.latency_p50_us = median(std::move(p50));
  e2e.latency_p99_us = median(std::move(p99));
  e2e.arrivals_per_s = served / wall_s;
  e2e.cpu_us_per_arrival = cpu_s * 1e6 / served;
}

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    value ^= (v >> (8 * i)) & 0xffu;
    value *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

}  // namespace smerge::perf
