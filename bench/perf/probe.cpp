// The traced pass's per-layer measurements.
//
// The workload's own spans come first: they time the workload's calls
// into each layer. Layers the workload never calls are measured by the
// probe, which replays a small generated catalogue (64 objects, 100k
// arrivals) through each layer's public functions in isolation — the
// post()+drain() replay runs at the workload's own arrivals-per-drain —
// and runs the small wire, off-line and restart passes of workloads.h.
// Every per-layer metric therefore has a measured value on every
// workload; README.md says which source feeds which metric.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "net/protocol.h"
#include "server/channel_ledger.h"
#include "server/wire.h"
#include "tracer.h"
#include "util/snapshot.h"
#include "workloads.h"

namespace smerge::perf {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"wire_light",   "wire_heavy",
                                              "wire_saturate", "engine_trace",
                                              "offline_plan",  "recover"};
  return names;
}

std::unique_ptr<OnlinePolicy> make_policy(const std::string& name) {
  if (name == "dg") return std::make_unique<DelayGuaranteedPolicy>();
  if (name == "batching") return std::make_unique<BatchingPolicy>();
  if (name == "greedy") {
    return std::make_unique<GreedyMergePolicy>(merging::DyadicParams{}, /*batched=*/true);
  }
  throw std::invalid_argument("unknown policy: " + name);
}

namespace {

constexpr Index kProbeObjects = 64;
constexpr double kProbeHorizon = 1.0;
constexpr int kCodecReps = 5;

/// Counts what a policy emits.
class CountingSink final : public PolicySink {
 public:
  void start_stream(double, double, Index) override { ++streams; }
  void admit(double, double) override { ++admits; }
  std::uint64_t streams = 0;
  std::uint64_t admits = 0;
};

struct Arrival {
  double time;
  Index object;
};

void probe_codec(const std::vector<Arrival>& arrivals, Tracer::Lane* lane) {
  const std::uint64_t n = arrivals.size();
  std::vector<std::uint8_t> bytes;
  {
    Tracer::Span span(lane, "net.protocol.encode", n * kCodecReps);
    for (int rep = 0; rep < kCodecReps; ++rep) {
      bytes.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        net::append_admit(bytes, i + 1, arrivals[i].object, arrivals[i].time);
      }
    }
  }
  std::uint64_t decoded = 0;
  {
    Tracer::Span span(lane, "net.protocol.decode", n * kCodecReps);
    for (int rep = 0; rep < kCodecReps; ++rep) {
      net::FrameDecoder decoder;
      net::Frame frame;
      for (std::size_t pos = 0; pos < bytes.size(); pos += std::size_t{64} << 10) {
        const std::size_t len = std::min(bytes.size() - pos, std::size_t{64} << 10);
        decoder.feed({bytes.data() + pos, len});
        while (decoder.next_frame(frame)) {
          decoded += net::parse_admit(frame.payload).request_id != 0 ? 1 : 0;
        }
      }
    }
  }
  if (decoded != n * kCodecReps) throw std::runtime_error("probe: decode lost frames");
}

void probe_server(const Catalogue& c, const std::vector<Arrival>& arrivals,
                  const LayerHints& hints, Tracer::Lane* lane) {
  server::ServerCoreConfig config;
  config.objects = c.workload.objects;
  config.delay = kDelay;
  config.horizon = c.workload.horizon;
  config.shards = 2;
  const auto policy = make_policy(hints.policy);
  const std::size_t batch = std::max<std::size_t>(1, hints.drain_batch);
  {
    server::ServerCore core(config, *policy);
    for (std::size_t from = 0; from < arrivals.size(); from += batch) {
      const std::size_t to = std::min(arrivals.size(), from + batch);
      {
        Tracer::Span span(lane, "server.post", to - from);
        for (std::size_t i = from; i < to; ++i) {
          core.post(arrivals[i].object, arrivals[i].time);
        }
      }
      Tracer::Span span(lane, "server.drain", to - from);
      core.drain();
    }
    std::vector<server::Ticket> tickets(arrivals.size());
    {
      Tracer::Span span(lane, "server.preview", arrivals.size());
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        tickets[i] = core.preview_admission(arrivals[i].object, arrivals[i].time);
      }
    }
    {
      // One writer per flush-sized group of tickets, as a reactor does.
      Tracer::Span span(lane, "server.ticket_encode", tickets.size());
      std::vector<std::uint8_t> out;
      for (std::size_t from = 0; from < tickets.size(); from += 256) {
        util::SnapshotWriter w;
        out.clear();
        for (std::size_t i = from; i < std::min(tickets.size(), from + 256); ++i) {
          const std::size_t base = w.size();
          w.u64(i + 1);
          server::write_ticket(w, tickets[i]);
          net::append_frame(out, net::RecordType::kTicket, w.payload().subspan(base));
        }
      }
    }
    Tracer::Span span(lane, "server.finish");
    core.finish();
    (void)server::snapshot_digest(core.take_snapshot());
  }
  {
    server::ServerCore core(config, *policy);
    Tracer::Span span(lane, "server.ingest_trace", arrivals.size());
    for (std::size_t m = 0; m < c.traces.size(); ++m) {
      core.ingest_trace(static_cast<Index>(m), std::vector<double>(c.traces[m]));
    }
  }
  // The ledger: one media-length stream per arrival, from its batch start.
  server::ChannelLedger ledger(c.workload.horizon + 2.0, kDelay);
  std::vector<std::vector<server::LedgerEvent>> runs(c.traces.size());
  std::uint64_t events = 0;
  for (std::size_t m = 0; m < c.traces.size(); ++m) {
    for (const double t : c.traces[m]) {
      const double start = batch_start_of(t, kDelay);
      runs[m].push_back({start, static_cast<Index>(m), +1, true});
      runs[m].push_back({start + 1.0, static_cast<Index>(m), -1, false});
    }
    events += runs[m].size();
  }
  {
    Tracer::Span span(lane, "server.ledger.apply", events);
    for (const auto& run : runs) ledger.apply_batch(run);
  }
  Tracer::Span span(lane, "server.ledger.peak");
  if (ledger.peak() <= 0) throw std::runtime_error("probe: empty ledger");
}

void probe_policies(const Catalogue& c, const LayerHints& hints, Tracer& probe) {
  struct Named {
    const char* policy;
    const char* span;
  };
  const Named policies[] = {{"dg", "online.dg.on_arrival"},
                            {"greedy", "online.greedy_batched.on_arrival"},
                            {"batching", "online.batching.on_arrival"}};
  for (const Named& named : policies) {
    const auto policy = make_policy(named.policy);
    policy->prepare(kDelay, c.workload.horizon);
    std::vector<std::unique_ptr<ObjectPolicy>> objects;
    for (std::size_t m = 0; m < c.traces.size(); ++m) {
      objects.push_back(policy->make_object_policy(kDelay, c.workload.horizon));
    }
    CountingSink sink;
    {
      Tracer::Span span(probe.main_lane(), named.span, c.arrivals);
      for (std::size_t m = 0; m < c.traces.size(); ++m) {
        for (const double t : c.traces[m]) objects[m]->on_arrival(t, sink);
      }
    }
    for (auto& object : objects) object->finish(c.workload.horizon, sink);
    if (sink.admits != c.arrivals) {
      throw std::runtime_error("probe: a policy lost an admission");
    }
    if (hints.policy == named.policy) {
      probe.set("online.streams_per_arrival",
                static_cast<double>(sink.streams) / static_cast<double>(c.arrivals));
    }
  }
}

}  // namespace

void probe_layers(const Options& o, const LayerHints& hints, Tracer& probe) {
  const Catalogue c = make_catalogue(kProbeObjects, 100e3 * o.scale / kProbeHorizon,
                                     kProbeHorizon, mix_seed(o.seed, 0x9b), probe);
  std::vector<Arrival> arrivals;
  for (std::size_t m = 0; m < c.traces.size(); ++m) {
    for (const double t : c.traces[m]) arrivals.push_back({t, static_cast<Index>(m)});
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) { return a.time < b.time; });
  probe_codec(arrivals, probe.main_lane());
  probe_server(c, arrivals, hints, probe.main_lane());
  probe_policies(c, hints, probe);
  if (!hints.wire) probe_wire(o, probe);
  probe_offline(o, probe);
  probe_recover(o, probe);
}

void add_per_layer(Result& result, const Tracer& main, const Tracer& probe,
                   const LayerHints& hints) {
  const auto main_stats = main.stats();
  const auto probe_stats = probe.stats();
  const auto stat = [&](const std::string& name) {
    if (const auto it = main_stats.find(name); it != main_stats.end()) {
      return it->second;
    }
    if (const auto it = probe_stats.find(name); it != probe_stats.end()) {
      return it->second;
    }
    throw std::logic_error("no span recorded for " + name);
  };
  const auto counter = [&](const std::string& name) {
    if (main.has_counter(name)) return main.counter(name);
    if (probe.has_counter(name)) return probe.counter(name);
    throw std::logic_error("no counter recorded for " + name);
  };
  // A counter reported under its own name.
  const auto add_counter = [&](const char* name, const char* unit) {
    result.add(name, counter(name), unit);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  // Time per counted unit (call, arrival, event), in ns.
  const auto per_unit_ns = [&](const std::string& name) {
    const Tracer::Stat s = stat(name);
    return ratio(s.total_ns, static_cast<double>(s.count));
  };
  // Time per span, in ns.
  const auto per_span_ns = [&](const std::string& name) {
    const Tracer::Stat s = stat(name);
    return ratio(s.total_ns, static_cast<double>(s.spans));
  };
  const auto units_per_span = [&](const std::string& name) {
    const Tracer::Stat s = stat(name);
    return ratio(static_cast<double>(s.count), static_cast<double>(s.spans));
  };

  result.add("net.protocol.encode_ns", per_unit_ns("net.protocol.encode"), "ns");
  result.add("net.protocol.decode_ns", per_unit_ns("net.protocol.decode"), "ns");
  result.add("net.client.flush_us", per_span_ns("net.client.flush") / 1e3, "us");
  result.add("net.client.admits_per_flush", units_per_span("net.client.flush"), "count");
  result.add("net.client.poll_us", per_span_ns("net.client.poll") / 1e3, "us");
  result.add("net.client.tickets_per_poll", units_per_span("net.client.poll"), "count");
  add_counter("net.server.drains_per_s", "1/s");
  add_counter("net.server.admits_per_drain", "count");
  add_counter("net.server.bytes_in_per_admit", "B");
  add_counter("net.server.bytes_out_per_ticket", "B");
  add_counter("net.server.protocol_errors", "count");

  result.add("server.post_ns", per_unit_ns("server.post"), "ns");
  result.add("server.drain_us", per_span_ns("server.drain") / 1e3, "us");
  result.add("server.drain.arrivals_per_call", units_per_span("server.drain"), "count");
  result.add("server.preview_ns", per_unit_ns("server.preview"), "ns");
  result.add("server.ticket_encode_ns", per_unit_ns("server.ticket_encode"), "ns");
  result.add("server.ingest_trace_ns", per_unit_ns("server.ingest_trace"), "ns");
  result.add("server.ledger.apply_ns", per_unit_ns("server.ledger.apply"), "ns");
  result.add("server.ledger.peak_ns", per_span_ns("server.ledger.peak"), "ns");
  result.add("server.finish_ms", per_span_ns("server.finish") / 1e6, "ms");
  result.add("server.checkpoint_ms", per_span_ns("server.checkpoint") / 1e6, "ms");
  result.add("server.restore_ms", per_span_ns("server.restore") / 1e6, "ms");
  result.add("server.read_wal_ms", per_span_ns("server.read_wal") / 1e6, "ms");
  const double warm_ms = per_span_ns("server.recover.warm") / 1e6;
  result.add("server.recover_ms", warm_ms, "ms");
  result.add("server.cold_recover_ms", per_span_ns("server.recover.cold") / 1e6, "ms");
  const double pieces_ms =
      (per_span_ns("server.restore") + per_span_ns("server.read_wal")) / 1e6;
  result.add("server.replay_ms", warm_ms - pieces_ms, "ms");

  result.add("online.dg.on_arrival_ns", per_unit_ns("online.dg.on_arrival"), "ns");
  result.add("online.greedy_batched.on_arrival_ns",
             per_unit_ns("online.greedy_batched.on_arrival"), "ns");
  result.add("online.batching.on_arrival_ns", per_unit_ns("online.batching.on_arrival"),
             "ns");
  add_counter("online.streams_per_arrival", "count");

  result.add("core.forest_build_ns", per_unit_ns("core.forest_build"), "ns");
  result.add("core.verify_ns", per_unit_ns("core.verify"), "ns");
  result.add("core.repair_us_per_event", per_unit_ns("core.repair") / 1e3, "us");
  result.add("merging.general_dp_ns", per_unit_ns("merging.general_dp"), "ns");
  result.add("sim.generate_ns_per_arrival", per_unit_ns("sim.generate"), "ns");

  add_counter("loadgen.ticket_p50_us", "us");
  add_counter("loadgen.ticket_p99_raw_us", "us");
  add_counter("loadgen.ticket_p999_raw_us", "us");
  add_counter("loadgen.late_p99_us", "us");
  add_counter("loadgen.late_max_us", "us");
  add_counter("host.steal_share", "ratio");

  // Where the ticket p50 goes: half a drain interval of waiting, the
  // drain, one ticket's preview and encode, and a client flush. The rest
  // is what in-program stamping has to explain.
  if (!hints.wire) return;
  const double p50 = counter("loadgen.ticket_p50_us");
  const double drain_us = per_span_ns("server.drain") / 1e3;
  const double ticket_us =
      (per_unit_ns("server.preview") + per_unit_ns("server.ticket_encode")) / 1e3;
  const double flush_us = per_span_ns("net.client.flush") / 1e3;
  const double half_interval_us = static_cast<double>(kDrainIntervalUs) / 2;
  char line[256];
  std::snprintf(line, sizeof line,
                "accounting ticket_p50_us=%.1f = half_drain_interval %.1f + drain %.1f + "
                "preview+encode %.3f + flush %.1f + unattributed %.1f",
                p50, half_interval_us, drain_us, ticket_us, flush_us,
                p50 - (half_interval_us + drain_us + ticket_us + flush_us));
  result.notes.push_back(line);
}

}  // namespace smerge::perf
