// offline_plan: the paper's off-line path, single-threaded, no server.
// A request plans one horizon three ways, each checked against an
// oracle:
//
//  * forest  — optimal_merge_forest(L, n).to_plan() then plan::verify;
//              the verified cost must equal the closed form full_cost(L, n)
//              (Theorem 10 against Lemma 9 / Theorem 12);
//  * general — optimal_general_plan on a Poisson trace then plan::verify;
//              the cost must equal optimal_general_cost of the same trace
//              (computed once in set-up);
//  * repair  — plan::SessionPlan absorbs 20% abandon/seek churn on a
//              forest plan, then plan::verify under the active mask.
//
// A request's latency is its total build + verify time; its arrivals
// are the clients it plans and verifies. Requests differ only in which
// of four set-up Poisson traces the general optimum plans.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/full_cost.h"
#include "core/plan.h"
#include "core/plan_repair.h"
#include "merging/optimal_general.h"
#include "sim/arrivals.h"
#include "tracer.h"
#include "util/rng.h"
#include "workloads.h"

namespace smerge::perf {

namespace {

constexpr Index kMediaSlots = 1000;      ///< L: the forest's media length in slots
constexpr double kForestClients = 50e3;
constexpr double kRepairClients = 30e3;
constexpr double kGeneralArrivals = 5e3;
constexpr double kGeneralBand = 100.0;   ///< mean arrivals per media length
constexpr std::size_t kGeneralTraces = 4;
constexpr std::size_t kGroup = 4;       ///< requests per latency window
constexpr double kChurnRate = 0.2;
constexpr double kSeekShare = 0.2;

struct ChurnEvent {
  bool seek = false;
  Index stream = -1;
  double at = 0.0;
};

std::vector<ChurnEvent> make_churn(const plan::MergePlan& base, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<ChurnEvent> events;
  for (Index i = 0; i < base.size(); ++i) {
    if (rng.next_double() >= kChurnRate) continue;
    ChurnEvent e;
    e.stream = i;
    e.seek = rng.next_double() < kSeekShare;
    const auto k = static_cast<std::size_t>(i);
    e.at = base.start()[k] + rng.next_double() * std::max(base.length()[k], 1e-9);
    events.push_back(e);
  }
  std::sort(events.begin(), events.end(), [](const ChurnEvent& a, const ChurnEvent& b) {
    return a.at != b.at ? a.at < b.at : a.stream < b.stream;
  });
  return events;
}

struct OfflineSetup {
  Index forest_clients = 0;
  std::vector<std::vector<double>> general;  ///< strictly increasing traces
  std::vector<double> general_cost;          ///< oracle per trace
  plan::MergePlan repair_base;
  std::vector<ChurnEvent> churn;
};

OfflineSetup build_setup(const Options& o, Tracer& tracer) {
  OfflineSetup s;
  s.forest_clients = static_cast<Index>(kForestClients * o.scale);
  const double horizon = kGeneralArrivals * o.scale / kGeneralBand;
  for (std::size_t k = 0; k < kGeneralTraces; ++k) {
    std::vector<double> trace;
    {
      Tracer::Span span(tracer.main_lane(), "sim.generate");
      trace = sim::poisson_arrivals(1.0 / kGeneralBand, horizon, mix_seed(o.seed, k));
      span.set_count(trace.size());
    }
    // The optimizer needs distinct times; a tie has probability ~0 but
    // would make the input invalid, so drop it.
    trace.erase(std::unique(trace.begin(), trace.end()), trace.end());
    s.general_cost.push_back(merging::optimal_general_cost(trace, 1.0));
    s.general.push_back(std::move(trace));
  }
  s.repair_base =
      optimal_merge_forest(kMediaSlots, static_cast<Index>(kRepairClients * o.scale))
          .to_plan();
  s.churn = make_churn(s.repair_base, mix_seed(o.seed, 0xc4u));
  return s;
}

struct Outcome {
  bool ok = false;
  std::uint64_t clients = 0;
  double value = 0.0;  ///< the verified cost, folded into the digest
};

Outcome forest_request(Index n, Tracer::Lane* lane) {
  plan::MergePlan p;
  {
    Tracer::Span span(lane, "core.forest_build", static_cast<std::uint64_t>(n));
    p = optimal_merge_forest(kMediaSlots, n).to_plan();
  }
  Tracer::Span span(lane, "core.verify", static_cast<std::uint64_t>(n));
  const plan::PlanReport report = plan::verify(p);
  const double expected = static_cast<double>(full_cost(kMediaSlots, n));
  return {report.ok && report.total_cost == expected, static_cast<std::uint64_t>(n),
          report.total_cost};
}

Outcome general_request(const std::vector<double>& trace, double oracle,
                        Tracer::Lane* lane) {
  plan::MergePlan p;
  {
    Tracer::Span span(lane, "merging.general_dp", trace.size());
    p = merging::optimal_general_plan(trace, 1.0);
  }
  Tracer::Span span(lane, "core.verify", trace.size());
  const plan::PlanReport report = plan::verify(p);
  const bool cost_ok =
      std::abs(report.total_cost - oracle) <= 1e-9 * std::max(1.0, oracle);
  return {report.ok && cost_ok, trace.size(), report.total_cost};
}

Outcome repair_request(const OfflineSetup& s, Tracer::Lane* lane) {
  plan::SessionPlan session(s.repair_base);
  {
    Tracer::Span span(lane, "core.repair", s.churn.size());
    for (const ChurnEvent& e : s.churn) {
      if (e.seek) {
        session.seek(e.stream, e.at);
      } else {
        session.abandon(e.stream, e.at);
      }
    }
  }
  const auto n = static_cast<std::uint64_t>(s.repair_base.size());
  Tracer::Span span(lane, "core.verify", n);
  const plan::PlanReport report =
      plan::verify(session.snapshot(), s.repair_base.model(), {session.active_mask()});
  const bool cost_ok = std::abs(report.total_cost - session.total_cost()) <=
                       1e-9 * std::max(1.0, session.total_cost());
  return {report.ok && cost_ok, n, report.total_cost};
}

/// One request: every off-line kind once.
Outcome serve(const OfflineSetup& s, std::size_t i, Tracer::Lane* lane) {
  const std::size_t k = i % s.general.size();
  const Outcome parts[] = {forest_request(s.forest_clients, lane),
                           general_request(s.general[k], s.general_cost[k], lane),
                           repair_request(s, lane)};
  Outcome all{true, 0, 0.0};
  for (const Outcome& p : parts) {
    all.ok = all.ok && p.ok;
    all.clients += p.clients;
    all.value += p.value;
  }
  return all;
}

}  // namespace

Result run_offline_plan(const Options& o, Tracer& tracer, LayerHints& hints) {
  Result result;
  result.workload = o.workload;
  hints.policy = "dg";
  EndToEnd e2e;
  const OfflineSetup setup =
      timed_setup([&] { return build_setup(o, tracer); }, e2e.setup_s);

  Tracer::Lane* lane = tracer.main_lane();
  // Warm-up: one request per general trace, untimed; its costs are the
  // output digest.
  Digest digest;
  std::size_t i = 0;
  for (; i < setup.general.size(); ++i) digest.add(serve(setup, i, lane).value);

  Requests requests;
  const CpuRotation rotate;
  const Clock::time_point start = Clock::now();
  while (requests.latency_us.size() < kGroup || seconds_since(start) < o.seconds) {
    const double cpu0 = process_cpu_s();
    const Clock::time_point t = Clock::now();
    const Outcome out = serve(setup, i++, lane);
    requests.add(std::chrono::duration<double, std::micro>(Clock::now() - t).count(),
                 process_cpu_s() - cpu0, static_cast<double>(out.clients));
    ++result.attempted;
    if (!out.ok) {
      result.fail("an off-line plan failed plan::verify or its cost oracle");
      break;
    }
  }
  summarize_requests(requests, kGroup, e2e);
  e2e.peak_rss_mb = peak_rss_mb();
  add_end_to_end(result, e2e);
  result.digest = digest.value;
  return result;
}

void probe_offline(const Options& options, Tracer& probe) {
  Options small = options;
  small.scale *= 0.2;
  const OfflineSetup setup = build_setup(small, probe);
  Tracer::Lane* lane = probe.main_lane();
  if (!forest_request(setup.forest_clients, lane).ok ||
      !general_request(setup.general[0], setup.general_cost[0], lane).ok ||
      !repair_request(setup, lane).ok) {
    throw std::runtime_error("offline probe: an oracle check failed");
  }
}

}  // namespace smerge::perf
