// engine_trace: the in-process engine path — ServerCore fed whole
// per-object traces through ingest_trace and drained on two shards,
// under greedy batched dyadic merging (the generic, unsealed policy
// path). It bypasses the net layer, the post() rings and the sealed
// slot fast path, so changes there should leave it unmoved; ingest,
// drain, policy and ledger changes show.
//
// A pass is sim::run_engine's trace path with generation moved into
// set-up: the trace is handed over in rounds of two slots (ingest_trace
// per object, then drain()), then finish(). A request is one round; its
// latency is the round's ingest + drain time; throughput and CPU are
// totals over the passes. The warm-up runs
// sim::run_engine itself once on the same workload, and every pass's
// snapshot must equal its result field by field.
#include <algorithm>
#include <cmath>

#include "server/wire.h"
#include "sim/engine.h"
#include "tracer.h"
#include "workloads.h"

namespace smerge::perf {

namespace {

constexpr Index kObjects = 256;
constexpr double kHorizon = 30.0;
constexpr double kRound = 2 * kDelay;
constexpr double kArrivalsPerPass = 3e6;

bool same_result(const server::Snapshot& s, const sim::EngineResult& r) {
  return s.total_arrivals == r.total_arrivals && s.total_streams == r.total_streams &&
         s.streams_served == r.streams_served && s.wait.mean == r.wait.mean &&
         s.wait.p50 == r.wait.p50 && s.wait.p95 == r.wait.p95 &&
         s.wait.p99 == r.wait.p99 && s.wait.max == r.wait.max &&
         s.peak_concurrency == r.peak_concurrency &&
         s.guarantee_violations == r.guarantee_violations &&
         s.per_object == r.per_object;
}

struct Pass {
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t digest = 0;
  bool matches = false;
};

Pass run_pass(const Catalogue& c, const sim::EngineConfig& config,
              const sim::EngineResult& reference, Tracer& tracer) {
  Tracer::Lane* lane = tracer.main_lane();
  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  server::ServerCore core(sim::core_config(config), policy);
  std::vector<std::size_t> cursor(c.traces.size(), 0);
  std::vector<double> round_us;
  const auto rounds = static_cast<std::size_t>(std::ceil(kHorizon / kRound));
  round_us.reserve(rounds);

  const double cpu0 = process_cpu_s();
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 1; r <= rounds; ++r) {
    const double bound = r == rounds ? kHorizon : static_cast<double>(r) * kRound;
    const Clock::time_point round_start = Clock::now();
    std::uint64_t arrivals = 0;
    {
      Tracer::Span span(lane, "server.ingest_trace");
      for (std::size_t m = 0; m < c.traces.size(); ++m) {
        const std::vector<double>& trace = c.traces[m];
        const std::size_t from = cursor[m];
        std::size_t to = from;
        while (to < trace.size() && trace[to] <= bound) ++to;
        if (to == from) continue;
        const auto first = trace.begin();
        core.ingest_trace(static_cast<Index>(m),
                          std::vector<double>(first + static_cast<std::ptrdiff_t>(from),
                                              first + static_cast<std::ptrdiff_t>(to)));
        cursor[m] = to;
        arrivals += to - from;
      }
      span.set_count(arrivals);
    }
    {
      Tracer::Span span(lane, "server.drain", arrivals);
      core.drain();
    }
    round_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - round_start).count());
  }
  server::Snapshot snapshot;
  {
    Tracer::Span span(lane, "server.finish");
    core.finish();
    snapshot = core.take_snapshot();
  }
  Pass pass;
  pass.elapsed_s = seconds_since(start);
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.rounds = round_us.size();
  pass.latency_p50_us = percentile(round_us, 0.50);
  pass.latency_p99_us = percentile(round_us, 0.99);
  pass.digest = server::snapshot_digest(snapshot);
  pass.matches = same_result(snapshot, reference) && snapshot.guarantee_violations == 0;
  return pass;
}

}  // namespace

Result run_engine_trace(const Options& o, Tracer& tracer, LayerHints& hints) {
  Result result;
  result.workload = o.workload;
  hints.policy = "greedy";

  EndToEnd e2e;
  const double rate = kArrivalsPerPass * o.scale / kHorizon;
  const Catalogue c = timed_setup(
      [&] { return make_catalogue(kObjects, rate, kHorizon, o.seed, tracer); },
      e2e.setup_s);
  hints.drain_batch = static_cast<std::size_t>(
      static_cast<double>(c.arrivals) * kRound / kHorizon);

  sim::EngineConfig config;
  config.workload = c.workload;
  config.delay = kDelay;
  config.threads = 2;
  GreedyMergePolicy reference_policy(merging::DyadicParams{}, /*batched=*/true);
  const sim::EngineResult reference = sim::run_engine(config, reference_policy);

  std::vector<Pass> passes;
  const CpuRotation rotate;
  double spent = 0.0;
  while (passes.empty() || spent < o.seconds) {
    const Clock::time_point start = Clock::now();
    passes.push_back(run_pass(c, config, reference, tracer));
    spent += seconds_since(start);
    result.attempted += c.arrivals;
    if (!passes.back().matches) {
      result.fail("engine snapshot differs from sim::run_engine on the same workload");
      break;
    }
  }
  std::vector<double> p50, p99;
  double elapsed_s = 0.0, cpu_s = 0.0;
  for (const Pass& p : passes) {
    p50.push_back(p.latency_p50_us);
    p99.push_back(p.latency_p99_us);
    elapsed_s += p.elapsed_s;
    cpu_s += p.cpu_s;
    e2e.requests += p.rounds;
  }
  const auto arrivals = static_cast<double>(result.attempted);
  e2e.latency_p50_us = median(p50);
  e2e.latency_p99_us = median(p99);
  e2e.arrivals_per_s = arrivals / elapsed_s;
  e2e.cpu_us_per_arrival = cpu_s * 1e6 / arrivals;
  e2e.peak_rss_mb = peak_rss_mb();
  add_end_to_end(result, e2e);
  result.add("passes", static_cast<double>(passes.size()), "count");
  result.digest = passes.back().digest;
  return result;
}

}  // namespace smerge::perf
