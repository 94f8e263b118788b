// The six smerge_perf workloads and the traced per-layer pass.
#ifndef SMERGE_PERF_WORKLOADS_H
#define SMERGE_PERF_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "online/policy.h"

namespace smerge::perf {

class Tracer;

/// What the per-layer pass needs to know about the workload it follows.
struct LayerHints {
  std::string policy = "dg";         ///< the workload's policy: dg | batching | greedy
  std::size_t drain_batch = 2048;    ///< arrivals per drain() in the drain replay
  bool wire = false;                 ///< the workload itself drove the net layer
};

/// The wire server's drain cadence (vod_server's default).
inline constexpr std::uint64_t kDrainIntervalUs = 500;

/// The names `--workload` accepts, in run order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The policy a hint names (dg | batching | greedy = batched dyadic).
[[nodiscard]] std::unique_ptr<OnlinePolicy> make_policy(const std::string& name);

Result run_wire(const Options& options, Tracer& tracer, LayerHints& hints);
Result run_engine_trace(const Options& options, Tracer& tracer, LayerHints& hints);
Result run_offline_plan(const Options& options, Tracer& tracer, LayerHints& hints);
Result run_recover(const Options& options, Tracer& tracer, LayerHints& hints);

/// Small runs of a workload's own code path, recorded into `probe`, for
/// the per-layer metrics of workloads that bypass that path: a one-
/// second open-loop wire pass (100k admissions/s, DG); one off-line
/// request of each kind at a fifth of the size; a WAL, checkpoint and
/// warm + cold restart at a tenth of the size.
void probe_wire(const Options& options, Tracer& probe);
void probe_offline(const Options& options, Tracer& probe);
void probe_recover(const Options& options, Tracer& probe);

/// Replays a probe catalogue through every layer's public functions in
/// isolation, recording into `probe`.
void probe_layers(const Options& options, const LayerHints& hints, Tracer& probe);

/// Appends every per-layer metric: from the workload's own spans where
/// it exercised the layer, otherwise from the probe's.
void add_per_layer(Result& result, const Tracer& main, const Tracer& probe,
                   const LayerHints& hints);

}  // namespace smerge::perf

#endif  // SMERGE_PERF_WORKLOADS_H
