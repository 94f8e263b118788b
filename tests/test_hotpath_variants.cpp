// The ingest paths' one contract: a run fed through the lock-free
// post() rings is the same run as one fed through serial ingest_trace —
// at every shard width, the checkpoint bytes and the finished snapshot
// are identical. Exercised over the 540-instance fuzz corpus (180
// traces x 3 policy families) at widths 1, 2 and 4.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "online/policy.h"
#include "server/server_core.h"

namespace {

using namespace smerge;

// The fuzz corpus generator shared with test_plan.cpp and
// test_recovery.cpp: 180 trials of sorted unique arrival times on [0, 8).
std::vector<std::vector<double>> corpus_traces() {
  std::mt19937_64 rng(20260728);
  std::uniform_int_distribution<std::size_t> size_dist(0, 24);
  std::uniform_real_distribution<double> time_dist(0.0, 8.0);
  std::vector<std::vector<double>> traces;
  traces.reserve(180);
  for (int trial = 0; trial < 180; ++trial) {
    const std::size_t n = size_dist(rng);
    std::vector<double> t(n);
    for (double& x : t) x = time_dist(rng);
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    traces.push_back(std::move(t));
  }
  return traces;
}

constexpr unsigned kWidths[] = {1, 2, 4};

std::unique_ptr<OnlinePolicy> make_policy(int family) {
  switch (family) {
    case 0: return std::make_unique<DelayGuaranteedPolicy>();
    case 1: return std::make_unique<BatchingPolicy>();
    default:
      return std::make_unique<GreedyMergePolicy>(merging::DyadicParams{},
                                                 /*batched=*/true);
  }
}

server::ServerCoreConfig base_config(unsigned shards) {
  server::ServerCoreConfig config;
  config.objects = 3;
  config.delay = 0.25;  // 1/L with L = 4, so the DG family is happy
  config.horizon = 8.0;
  config.shards = shards;
  return config;
}

void expect_same_snapshot(const server::Snapshot& a, const server::Snapshot& b,
                          const std::string& context) {
  EXPECT_EQ(a.total_arrivals, b.total_arrivals) << context;
  EXPECT_EQ(a.total_streams, b.total_streams) << context;
  EXPECT_EQ(a.streams_served, b.streams_served) << context;
  EXPECT_EQ(a.wait.mean, b.wait.mean) << context;
  EXPECT_EQ(a.wait.p50, b.wait.p50) << context;
  EXPECT_EQ(a.wait.p95, b.wait.p95) << context;
  EXPECT_EQ(a.wait.p99, b.wait.p99) << context;
  EXPECT_EQ(a.wait.max, b.wait.max) << context;
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency) << context;
  EXPECT_EQ(a.guarantee_violations, b.guarantee_violations) << context;
  EXPECT_EQ(a.per_object, b.per_object) << context;
}

struct Result {
  std::vector<std::uint8_t> checkpoint;
  server::Snapshot snapshot;
};

// Both runs deliver in the same two chunks (split at the global halfway
// index) with a drain after each: mid-run checkpoint bytes include the
// P2 percentile marker state, which folds waits in drain order — the
// cadence is part of the logical state (the WAL records every drain),
// so the two runs share it and differ only in the ingest path. The
// checkpoint is taken at the all-delivered quiescent point (the config
// echo records the shard width, so both runs share that too).
Result serial_run(const std::vector<double>& times, int family,
                  unsigned shards) {
  auto policy = make_policy(family);
  server::ServerCore core(base_config(shards), *policy);
  const std::size_t half = times.size() / 2;
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{0, half}, {half, times.size()}}) {
    std::vector<std::vector<double>> per_object(3);
    for (std::size_t i = begin; i < end; ++i) {
      per_object[i % 3].push_back(times[i]);
    }
    for (Index m = 0; m < 3; ++m) {
      core.ingest_trace(m, std::move(per_object[static_cast<std::size_t>(m)]));
    }
    core.drain();
  }
  Result result{core.checkpoint(), {}};
  core.finish();
  result.snapshot = core.take_snapshot();
  return result;
}

Result posted_run(const std::vector<double>& times, int family,
                  unsigned shards) {
  auto policy = make_policy(family);
  server::ServerCore core(base_config(shards), *policy);
  for (std::size_t i = 0; i < times.size(); ++i) {
    core.post(static_cast<Index>(i % 3), times[i]);
    if (i + 1 == times.size() / 2) core.drain();
  }
  core.drain();
  Result result{core.checkpoint(), {}};
  core.finish();
  result.snapshot = core.take_snapshot();
  return result;
}

TEST(PostedIngest, CorpusMatchesSerialIngestTraceBytes) {
  const auto traces = corpus_traces();
  int instances = 0;
  for (int family = 0; family < 3; ++family) {
    for (std::size_t trace = 0; trace < traces.size(); ++trace) {
      for (const unsigned shards : kWidths) {
        const std::string context = "trace=" + std::to_string(trace) +
                                    " family=" + std::to_string(family) +
                                    " shards=" + std::to_string(shards);
        const Result serial = serial_run(traces[trace], family, shards);
        const Result posted = posted_run(traces[trace], family, shards);
        EXPECT_EQ(posted.checkpoint, serial.checkpoint) << context;
        expect_same_snapshot(posted.snapshot, serial.snapshot, context);
      }
      ++instances;
    }
  }
  EXPECT_EQ(instances, 540);
}

}  // namespace
