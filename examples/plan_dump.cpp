// plan_dump — emit a canonical MergePlan as a smerge-plan-v2 JSON
// document on stdout, for tools/plan_dump.py to pretty-print.
//
// Three producers, one per layer of the repository:
//   --kind=offline   Theorem-10 optimal uniform-arrival forest
//   --kind=online    the Section-4.1 Delay Guaranteed schedule
//   --kind=engine    a per-object plan assembled by the simulation
//                    engine from the greedy dyadic policy's emissions
// The v2 schema additions are drivable from the CLI: --chunk-base
// attaches a progressive segment timeline, and --churn applies that
// fraction of abandon/seek session events through the in-place
// SessionPlan repair, so the dump carries the repair log and the
// per-stream active mask. Whatever the producer, the dump embeds the
// universal verifier's report (run under the active mask), so
// downstream tooling can gate on `verify.ok`.
#include <algorithm>
#include <iostream>
#include <string>

#include "core/full_cost.h"
#include "core/plan.h"
#include "core/plan_repair.h"
#include "online/delay_guaranteed.h"
#include "online/policy.h"
#include "sim/engine.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

smerge::plan::MergePlan engine_plan(std::uint64_t seed) {
  using namespace smerge::sim;
  EngineConfig config;
  config.workload.process = ArrivalProcess::kPoisson;
  config.workload.objects = 4;
  config.workload.mean_gap = 0.01;
  config.workload.horizon = 3.0;
  config.workload.seed = seed;
  config.delay = 0.05;
  config.collect_plans = true;
  smerge::GreedyMergePolicy policy(smerge::merging::DyadicParams{},
                                   /*batched=*/true);
  EngineResult result = run_engine(config, policy);
  return std::move(result.plans.front());  // the most popular object
}

/// Rebuilds the plan stream-for-stream with a segment timeline attached
/// (plans are immutable; the builder re-derives identical merge times).
smerge::plan::MergePlan with_chunking(const smerge::plan::MergePlan& plan,
                                      double base) {
  smerge::plan::PlanBuilder builder(plan.media_length(), plan.model());
  builder.set_chunking({.base = base});
  for (smerge::Index i = 0; i < plan.size(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    builder.add_stream(plan.start()[u], plan.parent()[u], plan.length()[u]);
    if (plan.delay()[u] > 0.0) builder.record_wait(i, plan.delay()[u]);
  }
  return builder.build();
}

}  // namespace

int main(int argc, char** argv) {
  smerge::util::ArgParser parser(
      "plan_dump — emit a canonical MergePlan as smerge-plan-v2 JSON");
  parser.add_string("kind", "offline",
                    "producer: offline | online | engine");
  parser.add_int("media-slots", 16, "media length L in slots (offline/online)");
  parser.add_int("arrivals", 21, "number of arrivals / slots to plan");
  parser.add_int("seed", 20260728, "workload seed (engine)");
  parser.add_double("chunk-base", 0.0,
                    "first-chunk duration; > 0 attaches a segment timeline");
  parser.add_double("churn", 0.0,
                    "fraction of streams hit by abandon/seek churn, repaired "
                    "in place before dumping");

  try {
    if (!parser.parse(argc, argv)) return 0;
    const std::string kind = parser.get_string("kind");
    const auto L = parser.get_int("media-slots");
    const auto n = parser.get_int("arrivals");
    smerge::plan::MergePlan plan;
    if (kind == "offline") {
      plan = smerge::optimal_merge_forest(L, n).to_plan();
    } else if (kind == "online") {
      plan = smerge::DelayGuaranteedOnline(L).to_plan(n);
    } else if (kind == "engine") {
      plan = engine_plan(static_cast<std::uint64_t>(parser.get_int("seed")));
    } else {
      std::cerr << "error: unknown --kind '" << kind
                << "' (offline | online | engine)\n";
      return 2;
    }
    const double chunk_base = parser.get_double("chunk-base");
    if (chunk_base > 0.0) plan = with_chunking(plan, chunk_base);

    const double churn = parser.get_double("churn");
    if (churn > 0.0) {
      smerge::plan::SessionPlan session(plan);
      smerge::util::SplitMix64 rng(
          static_cast<std::uint64_t>(parser.get_int("seed")));
      for (smerge::Index i = 0; i < plan.size(); ++i) {
        if (rng.next_double() >= churn) continue;
        const auto u = static_cast<std::size_t>(i);
        const double at = plan.start()[u] +
                          rng.next_double() * std::max(plan.length()[u], 1e-12);
        if (rng.next_double() < 0.25) {
          session.seek(i, at);
        } else {
          session.abandon(i, at);
        }
      }
      const smerge::plan::MergePlan repaired = session.snapshot();
      std::cout << smerge::plan::to_json(repaired, session.edits(),
                                         session.active_mask())
                << '\n';
      return smerge::plan::verify(repaired, repaired.model(),
                                  {session.active_mask()})
                     .ok
                 ? 0
                 : 1;
    }
    std::cout << smerge::plan::to_json(plan) << '\n';
    return smerge::plan::verify(plan).ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
