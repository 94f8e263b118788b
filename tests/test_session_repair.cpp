// Tests for the session-lifecycle layer: in-place SessionPlan repair
// against the replay-from-scratch oracle over the PR-2 fuzz corpus,
// ledger retraction against a fresh rebuild, chunk-granular
// verification, churn workload generation, and engine-level shard
// determinism under churn.
#include "core/plan_repair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/plan.h"
#include "merging/dyadic.h"
#include "merging/optimal_general.h"
#include "online/policy.h"
#include "server/channel_ledger.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace smerge {
namespace {

using plan::Invariant;
using plan::MergePlan;
using plan::SessionPlan;

struct ChurnEvent {
  bool is_seek = false;
  Index stream = -1;
  double at = 0.0;
};

/// Roughly half the streams get one churn event each (seeks make up
/// ~30%), at a wall time inside the stream's own transmission window.
std::vector<ChurnEvent> make_churn(const MergePlan& plan, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<ChurnEvent> events;
  for (Index i = 0; i < plan.size(); ++i) {
    if (rng.next_double() >= 0.5) continue;
    const auto u = static_cast<std::size_t>(i);
    ChurnEvent e;
    e.stream = i;
    e.is_seek = rng.next_double() < 0.3;
    e.at = plan.start()[u] +
           rng.next_double() * std::max(plan.length()[u], 1e-12);
    events.push_back(e);
  }
  std::sort(events.begin(), events.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.stream < b.stream;
            });
  return events;
}

/// Applies one event and checks every oracle: bit-equality with the
/// full-recompute replay, verifier approval of the snapshot under the
/// active mask, and the incrementally maintained cost.
void apply_and_check(SessionPlan& session, const MergePlan& base,
                     const ChurnEvent& e, const char* context) {
  if (e.is_seek) {
    session.seek(e.stream, e.at);
  } else {
    session.abandon(e.stream, e.at);
  }
  const std::vector<double> reference = session.reference_lengths();
  const auto lengths = session.lengths();
  ASSERT_EQ(lengths.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // Same formulas, same application order: bit-equal, not just close.
    ASSERT_EQ(lengths[i], reference[i])
        << context << ": stream " << i << " after "
        << (e.is_seek ? "seek" : "abandon") << " of " << e.stream;
  }
  double sum = 0.0;
  for (const double l : lengths) sum += l;
  EXPECT_NEAR(session.total_cost(), sum, 1e-9 * std::max(1.0, sum)) << context;
  const plan::PlanReport report =
      plan::verify(session.snapshot(), base.model(), {session.active_mask()});
  EXPECT_TRUE(report.ok) << context << ": " << report.first_error;
}

TEST(SessionRepair, FuzzedCorpusMatchesReplayAndVerifies) {
  // The PR-2 fuzz corpus (same generator as test_plan.cpp: 180 trials x
  // 3 media lengths, 540 instances), each put through random
  // abandon/seek churn with every oracle checked after every event.
  std::mt19937_64 rng(20260728);
  std::uniform_int_distribution<std::size_t> size_dist(0, 24);
  std::uniform_real_distribution<double> time_dist(0.0, 8.0);
  Index abandons = 0;
  Index seeks = 0;
  Index reroots = 0;
  for (int trial = 0; trial < 180; ++trial) {
    const std::size_t n = size_dist(rng);
    std::vector<double> t(n);
    for (double& x : t) x = time_dist(rng);
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    for (const double L : {1e-6, 0.75, 100.0}) {
      const MergePlan base = merging::optimal_general_forest(t, L).forest.to_plan();
      SessionPlan session(base);
      const std::uint64_t seed =
          0x5e55'0000ULL + static_cast<std::uint64_t>(trial) * 3 +
          static_cast<std::uint64_t>(L > 1.0);
      const std::string context =
          "trial=" + std::to_string(trial) + " L=" + std::to_string(L);
      for (const ChurnEvent& e : make_churn(base, seed)) {
        apply_and_check(session, base, e, context.c_str());
      }
      abandons += session.stats().abandons;
      seeks += session.stats().seeks;
      reroots += session.stats().reroots;
      EXPECT_EQ(session.stats().abandons + session.stats().seeks,
                static_cast<Index>(session.size()) -
                    static_cast<Index>(std::count(
                        session.active_mask().begin(),
                        session.active_mask().end(), std::uint8_t{1})) +
                    session.stats().seeks)
          << context;  // exactly the abandoned clients are inactive
    }
  }
  // The corpus must actually exercise the interesting paths.
  EXPECT_GT(abandons, 500);
  EXPECT_GT(seeks, 200);
  EXPECT_GT(reroots, 50);
}

TEST(SessionRepair, AbandonedLeafTruncatesAtTheWallClock) {
  plan::PlanBuilder builder(1.0);
  const Index root = builder.add_stream(0.0, -1);
  const Index leaf = builder.add_stream(0.1, root);
  const MergePlan base = builder.build();
  const double old_length = base.length()[1];
  ASSERT_GT(old_length, 0.05);

  SessionPlan session(base);
  session.abandon(leaf, 0.1 + 0.05);
  // The leaf lost its only viewer: transmitted history stays (0.05 of
  // it), the untransmitted tail is cancelled.
  EXPECT_DOUBLE_EQ(session.lengths()[1], 0.05);
  EXPECT_FALSE(session.active(leaf));
  EXPECT_TRUE(session.active(root));
  ASSERT_EQ(session.edits().size(), 1u);
  EXPECT_EQ(session.edits()[0].stream, leaf);
  EXPECT_DOUBLE_EQ(session.edits()[0].old_end, 0.1 + old_length);
  EXPECT_DOUBLE_EQ(session.edits()[0].new_end, 0.15);
  EXPECT_FALSE(session.edits()[0].reroot);
  EXPECT_EQ(session.stats().truncations, 1);
  EXPECT_NEAR(session.stats().retracted, old_length - 0.05, 1e-12);
  const plan::PlanReport report =
      plan::verify(session.snapshot(), base.model(), {session.active_mask()});
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST(SessionRepair, SeekRerootsAndExtendsToTheFullMedia) {
  plan::PlanBuilder builder(1.0);
  const Index root = builder.add_stream(0.0, -1);
  const Index mid = builder.add_stream(0.1, root);
  builder.add_stream(0.15, mid);
  const MergePlan base = builder.build();

  SessionPlan session(base);
  session.seek(mid, 0.2);
  // The subtree detached: its stream becomes a root carrying the full
  // media, the grandchild still rides it.
  const MergePlan repaired = session.snapshot();
  EXPECT_EQ(repaired.parent()[1], -1);
  EXPECT_EQ(repaired.parent()[2], 1);
  EXPECT_DOUBLE_EQ(session.lengths()[1], 1.0);
  EXPECT_EQ(session.stats().reroots, 1);
  EXPECT_EQ(session.stats().seeks, 1);
  EXPECT_GT(session.stats().extended, 0.0);
  bool saw_reroot_edit = false;
  for (const plan::StreamEdit& edit : session.edits()) {
    saw_reroot_edit = saw_reroot_edit || (edit.stream == mid && edit.reroot);
  }
  EXPECT_TRUE(saw_reroot_edit);
  const plan::PlanReport report =
      plan::verify(repaired, base.model(), {session.active_mask()});
  EXPECT_TRUE(report.ok) << report.first_error;
  // A root seek has nothing to detach: the plan is unchanged.
  SessionPlan root_session(base);
  root_session.seek(root, 0.2);
  EXPECT_EQ(root_session.stats().reroots, 0);
  EXPECT_TRUE(root_session.edits().empty());
}

TEST(SessionRepair, ChurnOnAChunkedPlanKeepsTheTimelineLegal) {
  plan::PlanBuilder builder(1.0);
  builder.set_chunking({.base = 0.05});
  const Index root = builder.add_stream(0.0, -1);
  const Index mid = builder.add_stream(0.04, root);
  builder.add_stream(0.07, mid);
  const MergePlan base = builder.build();
  ASSERT_TRUE(base.chunked());
  ASSERT_TRUE(plan::verify(base).ok);

  SessionPlan session(base);
  session.abandon(2, 0.09);
  session.seek(mid, 0.12);
  const MergePlan repaired = session.snapshot();
  EXPECT_TRUE(repaired.chunked());
  const plan::PlanReport report =
      plan::verify(repaired, base.model(), {session.active_mask()});
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST(SessionRepair, Validation) {
  plan::PlanBuilder builder(1.0);
  const Index root = builder.add_stream(0.0, -1);
  builder.add_stream(0.1, root);
  const MergePlan base = builder.build();
  SessionPlan session(base);
  EXPECT_THROW(session.abandon(7, 0.5), std::out_of_range);
  EXPECT_THROW(session.abandon(-1, 0.5), std::out_of_range);
  EXPECT_THROW(session.abandon(1, -0.5), std::invalid_argument);
  session.abandon(1, 0.2);
  EXPECT_THROW(session.abandon(1, 0.3), std::invalid_argument);
  EXPECT_THROW(session.seek(1, 0.3), std::invalid_argument);
}

TEST(ChunkVerify, OversizedSteadyChunksMissTheirDeadlines) {
  // With the derived cap (= the start buffer) the timeline is legal;
  // an explicit cap above the start buffer cannot complete in time.
  plan::PlanBuilder builder(1.0);
  builder.set_chunking({.base = 0.05});
  builder.add_stream(0.0, -1);
  const MergePlan good = builder.build();
  const plan::PlanReport good_report = plan::verify(good);
  EXPECT_TRUE(good_report.ok) << good_report.first_error;
  // Start buffer = first two chunks = 0.05 + 0.10.
  EXPECT_NEAR(good_report.max_chunk_startup, 0.15, 1e-12);
  EXPECT_GT(good_report.chunk_peak_buffer, 0.0);

  plan::PlanBuilder bad_builder(1.0);
  bad_builder.set_chunking({.base = 0.05, .cap = 0.5});
  bad_builder.add_stream(0.0, -1);
  const plan::PlanReport bad_report = plan::verify(bad_builder.build());
  EXPECT_FALSE(bad_report.ok);
  ASSERT_FALSE(bad_report.diagnostics.empty());
  bool saw_deadline = false;
  for (const plan::PlanDiagnostic& d : bad_report.diagnostics) {
    if (d.invariant != Invariant::kChunkDeadline) continue;
    saw_deadline = true;
    EXPECT_EQ(d.stream, 0);
    EXPECT_GT(d.observed, d.expected);
    EXPECT_NE(d.message.find("deadline"), std::string::npos);
  }
  EXPECT_TRUE(saw_deadline);
  EXPECT_EQ(bad_report.first_error, bad_report.diagnostics.front().message);
}

TEST(ChannelLedger, MoveEndMatchesAFreshRebuild) {
  // Random intervals, then random retractions/extensions through
  // move_end; every query must agree with a ledger built directly from
  // the final intervals (the brute-force recount).
  util::SplitMix64 rng(0xABCDEF);
  constexpr double kSpan = 100.0;
  struct Interval {
    double start, end;
    Index object;
  };
  std::vector<Interval> intervals;
  server::ChannelLedger mutated(kSpan, 1.0);
  for (int i = 0; i < 400; ++i) {
    const double start = rng.next_double() * (kSpan - 1.0);
    const double end = start + 1e-3 + rng.next_double() * (kSpan - start - 1e-3);
    const auto object = static_cast<Index>(i % 7);
    intervals.push_back({start, end, object});
    mutated.add_interval(start, end, object);
  }
  for (int i = 0; i < 150; ++i) {
    auto& iv = intervals[static_cast<std::size_t>(rng.next_double() *
                                                  0.999 * intervals.size())];
    const bool retract = rng.next_double() < 0.7;
    const double new_end =
        retract ? iv.start + rng.next_double() * (iv.end - iv.start)
                : iv.end + rng.next_double() * (kSpan - iv.end);
    mutated.move_end(iv.end, new_end, iv.object);
    iv.end = new_end;
  }
  server::ChannelLedger fresh(kSpan, 1.0);
  for (const Interval& iv : intervals) {
    fresh.add_interval(iv.start, iv.end, iv.object);
  }

  EXPECT_EQ(mutated.peak(), fresh.peak());
  for (int i = 0; i < 64; ++i) {
    const double t = rng.next_double() * kSpan;
    Index brute = 0;
    for (const Interval& iv : intervals) {
      brute += (iv.start <= t && t < iv.end) ? 1 : 0;
    }
    EXPECT_EQ(mutated.occupancy_at(t), brute) << "t=" << t;
    EXPECT_EQ(fresh.occupancy_at(t), brute) << "t=" << t;
    const double b = t + rng.next_double() * (kSpan - t);
    EXPECT_EQ(mutated.max_over(t, b), fresh.max_over(t, b));
  }
  for (const Index capacity : {1, 2, 4, 8, 64}) {
    EXPECT_EQ(mutated.capacity_violations(capacity),
              fresh.capacity_violations(capacity))
        << "capacity=" << capacity;
  }
}

TEST(ChannelLedger, RetractionCompensationIsNotAStreamStart) {
  // [0,10) and [1,10) under capacity 1: the second start is saturated.
  // Retracting the first stream to end at 5 appends a +1 compensation
  // at 10 — which must never be counted as a new saturated start.
  server::ChannelLedger ledger(20.0, 1.0);
  ledger.add_interval(0.0, 10.0, 0);
  ledger.add_interval(1.0, 10.0, 1);
  EXPECT_EQ(ledger.capacity_violations(1), 1);
  ledger.move_end(10.0, 5.0, 0);
  EXPECT_EQ(ledger.capacity_violations(1), 1);
  EXPECT_EQ(ledger.occupancy_at(7.0), 1);
  EXPECT_EQ(ledger.occupancy_at(3.0), 2);
  // Four interval events plus the compensation pair.
  EXPECT_EQ(ledger.events(), 6);
}

TEST(Workload, SessionChurnRidesItsOwnSubstream) {
  sim::WorkloadConfig config;
  config.objects = 4;
  config.mean_gap = 0.01;
  config.horizon = 3.0;
  config.seed = 99;
  sim::SessionChurnConfig churn{.abandon_rate = 0.3, .pause_rate = 0.4,
                                .seek_rate = 0.3};
  sim::SessionChurnConfig heavy{.abandon_rate = 1.0, .pause_rate = 1.0,
                                .seek_rate = 1.0};
  for (Index object = 0; object < config.objects; ++object) {
    const std::vector<double> arrivals = sim::generate_arrivals(config, object);
    const std::vector<SessionTrace> sessions =
        sim::generate_sessions(config, churn, object);
    const std::vector<SessionTrace> stormy =
        sim::generate_sessions(config, heavy, object);
    // Session i's arrival is generate_arrivals[i] bit-for-bit, at any
    // churn setting: churn draws never touch the arrival substream.
    ASSERT_EQ(sessions.size(), arrivals.size());
    ASSERT_EQ(stormy.size(), arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      EXPECT_EQ(sessions[i].arrival, arrivals[i]);
      EXPECT_EQ(stormy[i].arrival, arrivals[i]);
    }
    for (const SessionTrace& s : stormy) {
      // All three behaviours fire at rate 1; the abandon ends the
      // event list and positions are sorted.
      ASSERT_FALSE(s.events.empty());
      EXPECT_EQ(s.events.back().type, SessionEventType::kAbandon);
      double position = 0.0;
      for (const SessionEvent& e : s.events) {
        EXPECT_GE(e.position, position);
        EXPECT_LE(e.position, 1.0);
        position = e.position;
        if (e.type == SessionEventType::kPause) {
          EXPECT_GT(e.value, 0.0);
        }
        if (e.type == SessionEventType::kSeek) {
          EXPECT_GE(e.value, 0.0);
          EXPECT_LE(e.value, 1.0);
        }
      }
    }
  }
  // Disabled churn degenerates to plain arrivals with no events.
  const std::vector<SessionTrace> quiet =
      sim::generate_sessions(config, sim::SessionChurnConfig{}, 0);
  for (const SessionTrace& s : quiet) EXPECT_TRUE(s.events.empty());
}

TEST(Workload, ChurnValidation) {
  sim::SessionChurnConfig churn;
  EXPECT_NO_THROW(sim::validate(churn));
  churn.abandon_rate = -0.1;
  EXPECT_THROW(sim::validate(churn), std::invalid_argument);
  churn.abandon_rate = 1.5;
  EXPECT_THROW(sim::validate(churn), std::invalid_argument);
  churn.abandon_rate = 0.5;
  churn.pause_rate = 2.0;
  EXPECT_THROW(sim::validate(churn), std::invalid_argument);
  churn.pause_rate = 0.5;
  churn.seek_rate = -1.0;
  EXPECT_THROW(sim::validate(churn), std::invalid_argument);
  churn.seek_rate = 0.5;
  churn.mean_pause = 0.0;
  EXPECT_THROW(sim::validate(churn), std::invalid_argument);
}

sim::EngineConfig churn_config() {
  sim::EngineConfig config;
  config.workload.process = sim::ArrivalProcess::kFlashCrowd;
  config.workload.objects = 12;
  config.workload.zipf_exponent = 1.0;
  config.workload.mean_gap = 0.004;
  config.workload.horizon = 6.0;
  config.workload.seed = 23;
  config.workload.burst_start = 1.0;
  config.workload.burst_duration = 1.0;
  config.workload.burst_multiplier = 8.0;
  config.delay = 0.02;
  config.churn = {.abandon_rate = 0.25, .pause_rate = 0.2, .seek_rate = 0.1};
  return config;
}

TEST(EngineChurn, BitIdenticalAcrossShardWidths) {
  GreedyMergePolicy one_policy(merging::DyadicParams{}, false);
  sim::EngineConfig config = churn_config();
  config.threads = 1;
  const sim::EngineResult serial = run_engine(config, one_policy);
  for (const unsigned threads : {2u, 4u}) {
    GreedyMergePolicy policy(merging::DyadicParams{}, false);
    config.threads = threads;
    const sim::EngineResult sharded = run_engine(config, policy);
    EXPECT_EQ(serial.total_arrivals, sharded.total_arrivals);
    EXPECT_EQ(serial.total_streams, sharded.total_streams);
    EXPECT_EQ(serial.streams_served, sharded.streams_served);
    EXPECT_EQ(serial.peak_concurrency, sharded.peak_concurrency);
    EXPECT_EQ(serial.wait.mean, sharded.wait.mean);
    EXPECT_EQ(serial.wait.max, sharded.wait.max);
    EXPECT_EQ(serial.total_sessions, sharded.total_sessions);
    EXPECT_EQ(serial.session_pauses, sharded.session_pauses);
    EXPECT_EQ(serial.session_seeks, sharded.session_seeks);
    EXPECT_EQ(serial.session_abandons, sharded.session_abandons);
    EXPECT_EQ(serial.plan_truncations, sharded.plan_truncations);
    EXPECT_EQ(serial.plan_reroots, sharded.plan_reroots);
    EXPECT_EQ(serial.retracted_cost, sharded.retracted_cost);
    EXPECT_EQ(serial.extended_cost, sharded.extended_cost);
    EXPECT_EQ(serial.per_object, sharded.per_object);
  }
}

TEST(EngineChurn, RepairAccountingIsConsistent) {
  GreedyMergePolicy policy(merging::DyadicParams{}, false);
  sim::EngineConfig config = churn_config();
  config.collect_stream_intervals = true;
  config.collect_plans = true;
  const sim::EngineResult churned = run_engine(config, policy);
  // Every arrival is a session, and the flash crowd is large enough to
  // exercise every behaviour and repair kind.
  EXPECT_EQ(churned.total_sessions, churned.total_arrivals);
  EXPECT_GT(churned.session_abandons, 0);
  EXPECT_GT(churned.session_pauses, 0);
  EXPECT_GT(churned.session_seeks, 0);
  EXPECT_GT(churned.plan_truncations, 0);
  EXPECT_GT(churned.retracted_cost, 0.0);
  // Totals are exactly the per-object sums.
  Index sessions = 0;
  Index truncations = 0;
  double retracted = 0.0;
  double extended = 0.0;
  for (const sim::ObjectOutcome& o : churned.per_object) {
    sessions += o.sessions;
    truncations += o.plan_truncations;
    retracted += o.retracted_cost;
    extended += o.extended_cost;
  }
  EXPECT_EQ(sessions, churned.total_sessions);
  EXPECT_EQ(truncations, churned.plan_truncations);
  EXPECT_NEAR(retracted, churned.retracted_cost, 1e-9);
  EXPECT_NEAR(extended, churned.extended_cost, 1e-9);

  // The collected intervals are the repaired streams: one per plan
  // stream, each ending where its repaired length says, and a channel
  // plan over them needs exactly the measured peak.
  ASSERT_EQ(churned.stream_intervals.size(),
            static_cast<std::size_t>(churned.total_streams));
  std::vector<StreamInterval> planned;
  for (const MergePlan& p : churned.plans) {
    for (Index i = 0; i < p.size(); ++i) {
      const auto u = static_cast<std::size_t>(i);
      planned.push_back({p.start()[u], p.start()[u] + p.length()[u]});
    }
  }
  std::stable_sort(planned.begin(), planned.end(),
                   [](const StreamInterval& a, const StreamInterval& b) {
                     return a.start < b.start;
                   });
  ASSERT_EQ(planned.size(), churned.stream_intervals.size());
  for (std::size_t i = 0; i < planned.size(); ++i) {
    EXPECT_EQ(churned.stream_intervals[i].start, planned[i].start) << i;
    EXPECT_EQ(churned.stream_intervals[i].end, planned[i].end) << i;
  }
  EXPECT_EQ(assign_channels(churned.stream_intervals).channels_used,
            churned.peak_concurrency);

  // Churn never perturbs admissions, so the served cost differs from
  // the churn-free run by exactly the repair delta.
  GreedyMergePolicy plain_policy(merging::DyadicParams{}, false);
  sim::EngineConfig plain = config;
  plain.churn = {};
  const sim::EngineResult baseline = run_engine(plain, plain_policy);
  EXPECT_EQ(baseline.total_arrivals, churned.total_arrivals);
  EXPECT_EQ(baseline.total_streams, churned.total_streams);
  EXPECT_EQ(baseline.wait.mean, churned.wait.mean);
  EXPECT_NEAR(churned.streams_served,
              baseline.streams_served - churned.retracted_cost +
                  churned.extended_cost,
              1e-6);
  EXPECT_EQ(baseline.total_sessions, 0);
  EXPECT_EQ(baseline.plan_truncations, 0);
}

}  // namespace
}  // namespace smerge
