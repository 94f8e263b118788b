// recover: restart. Set-up drives a ServerCore the way a durable server
// would — one log_ingest_trace WAL record per object per drain, a drain
// marker, a checkpoint half-way — and finishes it for the uninterrupted
// digest. A request is one server::recover(): two of every three start
// from the checkpoint plus the WAL tail, the third from the WAL alone,
// so the median is the warm restart and the 99th percentile the cold
// one (per window of six restarts, then the median over windows). Every
// recovered core is finished and its snapshot_digest must equal the
// uninterrupted run's. This is the only workload that runs the
// util/snapshot codec, restore_state and WAL parsing.
#include <algorithm>
#include <stdexcept>

#include "server/checkpoint.h"
#include "server/wire.h"
#include "sim/engine.h"
#include "tracer.h"
#include "workloads.h"

namespace smerge::perf {

namespace {

constexpr Index kObjects = 64;
constexpr double kHorizon = 10.0;
constexpr double kArrivals = 1e6;
constexpr int kDrains = 100;
/// Requests per latency window: two warm-warm-cold cycles, so a
/// window's median is a warm restart and its maximum a cold one.
constexpr std::size_t kGroup = 6;

struct RecoverSetup {
  server::ServerCoreConfig config;
  std::vector<std::uint8_t> wal;
  std::vector<std::uint8_t> checkpoint;
  std::uint64_t arrivals = 0;
  std::uint64_t reference = 0;
};

RecoverSetup build_setup(const Options& o, Tracer& tracer) {
  RecoverSetup s;
  const Catalogue c =
      make_catalogue(kObjects, kArrivals * o.scale / kHorizon, kHorizon, o.seed, tracer);
  s.arrivals = c.arrivals;
  sim::EngineConfig engine;
  engine.workload = c.workload;
  engine.delay = kDelay;
  engine.threads = 2;
  s.config = sim::core_config(engine);

  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  server::ServerCore core(s.config, policy);
  server::AdmissionWal wal;
  std::vector<std::size_t> cursor(c.traces.size(), 0);
  for (int d = 1; d <= kDrains; ++d) {
    const double bound = d == kDrains ? kHorizon : kHorizon * d / kDrains;
    for (std::size_t m = 0; m < c.traces.size(); ++m) {
      const std::vector<double>& trace = c.traces[m];
      std::size_t to = cursor[m];
      while (to < trace.size() && trace[to] <= bound) ++to;
      if (to == cursor[m]) continue;
      const std::span<const double> batch{trace.data() + cursor[m], to - cursor[m]};
      wal.log_ingest_trace(static_cast<Index>(m), batch);
      core.ingest_trace(static_cast<Index>(m), {batch.begin(), batch.end()});
      cursor[m] = to;
    }
    wal.log_drain();
    core.drain();
    if (d == kDrains / 2) {
      Tracer::Span span(tracer.main_lane(), "server.checkpoint");
      s.checkpoint = core.checkpoint(wal.records());
    }
  }
  core.finish();
  s.reference = server::snapshot_digest(core.take_snapshot());
  s.wal = wal.bytes();
  return s;
}

/// One restart; false when the recovered run's digest differs.
bool restart_once(const RecoverSetup& s, OnlinePolicy& policy, bool warm,
                  Tracer::Lane* lane, double* latency_us, double* cpu_s) {
  const std::vector<std::vector<std::uint8_t>> candidates{s.checkpoint};
  const double cpu0 = process_cpu_s();
  const Clock::time_point t = Clock::now();
  server::RecoveredCore recovered;
  {
    Tracer::Span span(lane, warm ? "server.recover.warm" : "server.recover.cold",
                      s.arrivals);
    recovered = server::recover(
        s.config, &policy,
        warm ? std::span<const std::vector<std::uint8_t>>(candidates)
             : std::span<const std::vector<std::uint8_t>>(),
        {s.wal.data(), s.wal.size()});
  }
  *latency_us = std::chrono::duration<double, std::micro>(Clock::now() - t).count();
  *cpu_s = process_cpu_s() - cpu0;
  if (recovered.report.used_checkpoint != warm || recovered.report.wal_torn) return false;
  Tracer::Span span(lane, "server.finish");
  recovered.core->finish();
  return server::snapshot_digest(recovered.core->take_snapshot()) == s.reference;
}

/// The pieces of a warm restart, timed apart: restore_state of the
/// checkpoint into a fresh core, and parsing the whole WAL.
void time_pieces(const RecoverSetup& s, OnlinePolicy& policy, Tracer::Lane* lane) {
  if (lane == nullptr) return;
  server::ServerCore fresh(s.config, policy);
  {
    Tracer::Span span(lane, "server.restore");
    (void)fresh.restore_state({s.checkpoint.data(), s.checkpoint.size()});
  }
  Tracer::Span span(lane, "server.read_wal");
  (void)server::read_wal({s.wal.data(), s.wal.size()});
}

}  // namespace

Result run_recover(const Options& o, Tracer& tracer, LayerHints& hints) {
  Result result;
  result.workload = o.workload;
  hints.policy = "greedy";
  EndToEnd e2e;
  const RecoverSetup setup =
      timed_setup([&] { return build_setup(o, tracer); }, e2e.setup_s);
  hints.drain_batch = static_cast<std::size_t>(setup.arrivals / kDrains);

  Tracer::Lane* lane = tracer.main_lane();
  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  double warmup_latency = 0.0, warmup_cpu = 0.0;
  if (!restart_once(setup, policy, true, lane, &warmup_latency, &warmup_cpu)) {
    result.fail("recovered digest differs from the uninterrupted run");
  }
  Requests requests;
  const CpuRotation rotate;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       result.correct && (i < kGroup || seconds_since(start) < o.seconds); ++i) {
    double latency = 0.0, cpu = 0.0;
    const bool ok = restart_once(setup, policy, i % 3 != 2, lane, &latency, &cpu);
    requests.add(latency, cpu, static_cast<double>(setup.arrivals));
    result.attempted += setup.arrivals;
    if (!ok) result.fail("recovered digest differs from the uninterrupted run");
    if (i % 3 == 2) time_pieces(setup, policy, lane);
  }
  summarize_requests(requests, kGroup, e2e);
  e2e.peak_rss_mb = peak_rss_mb();
  add_end_to_end(result, e2e);
  result.add("wal_mb", static_cast<double>(setup.wal.size()) / 1e6, "MB");
  result.add("checkpoint_mb", static_cast<double>(setup.checkpoint.size()) / 1e6, "MB");
  result.digest = setup.reference;
  return result;
}

void probe_recover(const Options& options, Tracer& probe) {
  Options small = options;
  small.scale *= 0.1;
  const RecoverSetup setup = build_setup(small, probe);
  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  double latency = 0.0, cpu = 0.0;
  if (!restart_once(setup, policy, true, probe.main_lane(), &latency, &cpu) ||
      !restart_once(setup, policy, false, probe.main_lane(), &latency, &cpu)) {
    throw std::runtime_error("recover probe: digest mismatch");
  }
  time_pieces(setup, policy, probe.main_lane());
}

}  // namespace smerge::perf
