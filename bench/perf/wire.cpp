// The wire workloads: a NetServer on loopback (vod_server's defaults —
// one reactor, a 500 µs drain cadence, two shards) fed by two client
// threads, one connection each.
//
//  * wire_light / wire_heavy — open loop: every ADMIT is due at its
//    arrival time (one media length = one wall second) whether or not
//    earlier tickets came back, and its latency runs from that due time,
//    so a stall is charged to every request it delays. DG policy.
//  * wire_saturate — closed loop, 8192 admissions in flight per
//    connection, batching policy: capacity. Latency there is
//    window-bound (Little's law) and runs from the admit() call.
//
// A run is a series of passes over one fixed trace, each against a
// freshly started server, until the run's time is spent; latencies are
// medians over passes, throughput and server CPU totals over them. Each
// pass ends with the FINISH handshake and its digest must equal the
// in-process ingest_trace digest of the same trace.
#include <sys/prctl.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "server/wire.h"
#include "tracer.h"
#include "workloads.h"

namespace smerge::perf {

namespace {

constexpr unsigned kClients = 2;
constexpr std::uint64_t kWindow = 8192;        ///< closed-loop in-flight cap
constexpr double kLatencyWindowS = 0.1;        ///< windowed-p99 window
constexpr auto kMaxIdleSleep = std::chrono::microseconds(100);

struct WireSpec {
  const char* name;
  bool open_loop;
  double rate;     ///< admissions per second (open) / per media length (closed)
  double horizon;  ///< one pass, in media lengths
  const char* policy;
};

constexpr WireSpec kSpecs[] = {
    {"wire_light", true, 100e3, 2.0, "dg"},
    {"wire_heavy", true, 300e3, 2.0, "dg"},
    {"wire_saturate", false, 200e3, 10.0, "batching"},
};

const WireSpec& spec_of(const std::string& name) {
  for (const WireSpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("not a wire workload: " + name);
}

/// One connection's sends: its objects' traces merged into time order
/// (stable, so every object keeps its own arrival order).
struct Schedule {
  std::vector<double> time;
  std::vector<Index> object;
};

std::vector<Schedule> make_schedules(const Catalogue& c) {
  std::vector<Schedule> schedules(kClients);
  for (unsigned k = 0; k < kClients; ++k) {
    std::vector<std::pair<double, Index>> sends;
    for (std::size_t m = k; m < c.traces.size(); m += kClients) {
      for (const double t : c.traces[m]) sends.emplace_back(t, static_cast<Index>(m));
    }
    std::stable_sort(sends.begin(), sends.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [t, m] : sends) {
      schedules[k].time.push_back(t);
      schedules[k].object.push_back(m);
    }
  }
  return schedules;
}

server::ServerCoreConfig core_config_for(const Catalogue& c) {
  server::ServerCoreConfig config;
  config.objects = c.workload.objects;
  config.delay = kDelay;
  config.horizon = c.workload.horizon;
  config.shards = 2;
  config.serve = server::ServeMode::kPolicy;
  return config;
}

/// The digest every wire pass must reproduce: the same trace ingested
/// in process.
std::uint64_t reference_digest(const Catalogue& c, const std::string& policy_name) {
  const auto policy = make_policy(policy_name);
  server::ServerCore core(core_config_for(c), *policy);
  for (std::size_t m = 0; m < c.traces.size(); ++m) {
    core.ingest_trace(static_cast<Index>(m), std::vector<double>(c.traces[m]));
  }
  core.finish();
  return server::snapshot_digest(core.take_snapshot());
}

/// A started server with connected clients. Members are destroyed in
/// reverse order: clients close before the server stops, and the policy
/// outlives the server.
struct Wire {
  std::unique_ptr<OnlinePolicy> policy;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<net::BlockingClient>> clients;
};

Wire start_wire(const Catalogue& c, const std::string& policy_name) {
  Wire w;
  w.policy = make_policy(policy_name);
  net::NetServerConfig net_config;
  net_config.reactors = 1;
  net_config.drain_interval_us = kDrainIntervalUs;
  w.server = std::make_unique<net::NetServer>(net_config, core_config_for(c),
                                              *w.policy);
  w.server->start();
  for (unsigned k = 0; k < kClients; ++k) {
    w.clients.push_back(std::make_unique<net::BlockingClient>());
    w.clients.back()->connect(net_config.host, w.server->port());
  }
  return w;
}

struct ClientRun {
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t bad = 0;  ///< wrong, duplicate or guarantee-violating tickets
  std::vector<float> latency_us;
  std::vector<std::uint32_t> window;
  std::vector<float> late_us;
  double cpu_s = 0.0;
  Clock::time_point last_ticket{};
  std::string error;
};

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Checks one ticket and records its latency from `origin[idx]`.
struct TicketSink {
  const Schedule& schedule;
  const std::vector<Clock::time_point>& origin;
  ClientRun& out;
  Clock::time_point received{};
  bool stamped = false;

  void operator()(const net::TicketReply& reply) {
    if (!stamped) {
      received = Clock::now();
      stamped = true;
    }
    ++out.responses;
    const std::uint64_t idx = reply.request_id - 1;
    if (idx >= out.latency_us.size() || out.latency_us[idx] >= 0.0f) {
      ++out.bad;
      return;
    }
    out.latency_us[idx] = static_cast<float>(us_between(origin[idx], received));
    const server::Ticket& t = reply.ticket;
    if (!t.admitted || t.object != schedule.object[idx] || t.wait < 0.0 ||
        server::violates_guarantee(t.wait, kDelay)) {
      ++out.bad;
    }
  }
};

void open_loop(net::BlockingClient& client, const Schedule& s,
               Clock::time_point t0, Tracer::Lane* lane, ClientRun& out) {
  // Sleeps end within a microsecond of the next due send.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const double cpu0 = thread_cpu_s();
  const std::size_t n = s.time.size();
  std::vector<Clock::time_point> due(n);
  out.latency_us.assign(n, -1.0f);
  out.window.resize(n);
  out.late_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s.time[i]));
    out.window[i] = static_cast<std::uint32_t>(s.time[i] / kLatencyWindowS);
  }
  TicketSink sink{s, due, out};
  std::size_t next = 0;
  while (out.responses < n) {
    const Clock::time_point now = Clock::now();
    std::uint64_t staged = 0;
    while (next < n && due[next] <= now) {
      out.late_us.push_back(static_cast<float>(us_between(due[next], now)));
      client.admit(s.object[next], s.time[next]);
      ++next;
      ++staged;
    }
    if (staged > 0) {
      Tracer::Span span(lane, "net.client.flush", staged);
      client.flush();
    }
    std::size_t got = 0;
    {
      Tracer::Span span(lane, "net.client.poll");
      sink.stamped = false;
      got = client.poll_tickets(std::ref(sink), next >= n);
      span.set_count(got);
    }
    if (got > 0) out.last_ticket = sink.received;
    if (got == 0 && next < n) {
      std::this_thread::sleep_until(std::min(due[next], Clock::now() + kMaxIdleSleep));
    }
  }
  out.sent = next;
  out.cpu_s = thread_cpu_s() - cpu0;
}

void closed_loop(net::BlockingClient& client, const Schedule& s,
                 Clock::time_point t0, Tracer::Lane* lane, ClientRun& out) {
  const double cpu0 = thread_cpu_s();
  const std::size_t n = s.time.size();
  std::vector<Clock::time_point> sent_at(n);
  out.latency_us.assign(n, -1.0f);
  out.window.resize(n);
  TicketSink sink{s, sent_at, out};
  std::uint64_t unflushed = 0;
  const auto poll = [&] {
    if (unflushed > 0) {
      Tracer::Span span(lane, "net.client.flush", unflushed);
      client.flush();
      unflushed = 0;
    }
    Tracer::Span span(lane, "net.client.poll");
    sink.stamped = false;
    const std::size_t got = client.poll_tickets(std::ref(sink), true);
    span.set_count(got);
    out.last_ticket = sink.received;
  };
  for (std::size_t i = 0; i < n; ++i) {
    while (out.sent - out.responses >= kWindow) poll();
    sent_at[i] = Clock::now();
    out.window[i] = static_cast<std::uint32_t>(us_between(t0, sent_at[i]) /
                                               (kLatencyWindowS * 1e6));
    client.admit(s.object[i], s.time[i]);
    ++out.sent;
    ++unflushed;
  }
  while (out.responses < n) poll();
  out.cpu_s = thread_cpu_s() - cpu0;
}

struct Pass {
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;  ///< windowed
  double raw_p99_us = 0.0;
  double raw_p999_us = 0.0;
  double elapsed_s = 0.0;
  double server_cpu_s = 0.0;  ///< process CPU minus the client threads'

  std::uint64_t sent = 0;
  std::uint64_t good = 0;
  std::vector<float> late_us;
  net::NetCounters counters;
  server::WireSummary summary;
  std::string error;
};

Pass run_pass(Wire& wire, const std::vector<Schedule>& schedules, bool open,
              Tracer& tracer) {
  std::vector<ClientRun> runs(kClients);
  std::vector<Tracer::Lane*> lanes;
  for (unsigned k = 0; k < kClients; ++k) lanes.push_back(tracer.lane());
  // Open loop: start after the threads are up, so the first sends are
  // not late by construction.
  const Clock::time_point t0 =
      Clock::now() + std::chrono::milliseconds(open ? 20 : 0);
  const double cpu0 = process_cpu_s();
  {
    std::vector<std::thread> threads;
    for (unsigned k = 0; k < kClients; ++k) {
      threads.emplace_back([&, k] {
        try {
          if (open) {
            open_loop(*wire.clients[k], schedules[k], t0, lanes[k], runs[k]);
          } else {
            closed_loop(*wire.clients[k], schedules[k], t0, lanes[k], runs[k]);
          }
        } catch (const std::exception& e) {
          runs[k].error = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double cpu_s = process_cpu_s() - cpu0;

  Pass pass;
  std::vector<float> latency;
  std::vector<std::uint32_t> window;
  double client_cpu_s = 0.0;
  Clock::time_point last = t0;
  for (const ClientRun& r : runs) {
    if (!r.error.empty()) pass.error = r.error;
    pass.sent += r.sent;
    pass.good += r.responses - std::min(r.responses, r.bad);
    client_cpu_s += r.cpu_s;
    last = std::max(last, r.last_ticket);
    for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
      if (r.latency_us[i] < 0.0f) continue;
      latency.push_back(r.latency_us[i]);
      window.push_back(r.window[i]);
    }
    pass.late_us.insert(pass.late_us.end(), r.late_us.begin(), r.late_us.end());
  }
  pass.elapsed_s = std::chrono::duration<double>(last - t0).count();
  pass.latency_p99_us = windowed_p99(latency, window);
  std::vector<double> all(latency.begin(), latency.end());
  pass.latency_p50_us = percentile(all, 0.50);
  pass.raw_p99_us = percentile(all, 0.99);
  pass.raw_p999_us = percentile(all, 0.999);
  pass.server_cpu_s = cpu_s - client_cpu_s;

  // Certify the pass: a control connection drives FINISH once every
  // producer has collected its tickets.
  try {
    net::BlockingClient control;
    control.connect("127.0.0.1", wire.server->port());
    pass.summary = control.finish();
    control.close();
    if (!wire.server->wait_finished(std::chrono::seconds(30))) {
      pass.error = "server did not finish";
    }
  } catch (const std::exception& e) {
    pass.error = e.what();
  }
  pass.counters = wire.server->counters();
  wire.clients.clear();
  wire.server->stop();
  return pass;
}

struct WireSetup {
  Catalogue catalogue;
  std::uint64_t reference = 0;
  std::vector<Schedule> schedules;
  Wire wire;
};

WireSetup build_setup(const WireSpec& spec, const Options& o, Tracer& tracer) {
  WireSetup s;
  s.catalogue = make_catalogue(256, spec.rate * o.scale, spec.horizon, o.seed, tracer);
  s.reference = reference_digest(s.catalogue, spec.policy);
  s.schedules = make_schedules(s.catalogue);
  s.wire = start_wire(s.catalogue, spec.policy);
  return s;
}

struct PassSummary {
  std::vector<Pass> passes;
  double setup_s = 0.0;
  std::uint64_t reference = 0;
};

/// Runs passes until `seconds` of passes have been spent; adds the
/// failures to `result`.
PassSummary run_passes(const WireSpec& spec, const Options& o, double seconds,
                       Tracer& tracer, Result& result) {
  PassSummary summary;
  WireSetup setup =
      timed_setup([&] { return build_setup(spec, o, tracer); }, summary.setup_s);
  summary.reference = setup.reference;
  double spent = 0.0;
  while (summary.passes.empty() || spent < seconds) {
    if (!setup.wire.server) setup.wire = start_wire(setup.catalogue, spec.policy);
    const Clock::time_point start = Clock::now();
    Pass pass = run_pass(setup.wire, setup.schedules, spec.open_loop, tracer);
    spent += seconds_since(start);
    setup.wire = Wire{};
    result.attempted += pass.sent;
    result.failed += pass.sent - std::min(pass.sent, pass.good);
    if (!pass.error.empty()) {
      result.fail(pass.error);
    } else if (!pass.summary.ok || pass.summary.digest != setup.reference) {
      result.fail("FINISHED digest differs from the in-process ingest_trace digest");
    }
    summary.passes.push_back(std::move(pass));
    if (!result.correct) break;
  }
  return summary;
}

template <typename F>
double median_of(const std::vector<Pass>& passes, F field) {
  std::vector<double> values;
  for (const Pass& p : passes) values.push_back(field(p));
  return median(std::move(values));
}

/// Net-layer counters and lateness into the tracer (traced runs only).
void record_wire_layers(const std::vector<Pass>& passes, Tracer& tracer) {
  net::NetCounters total;
  double elapsed = 0.0;
  std::vector<double> late;
  std::vector<double> p50, raw_p99, raw_p999;
  for (const Pass& p : passes) {
    total.admits += p.counters.admits;
    total.tickets += p.counters.tickets;
    total.drains += p.counters.drains;
    total.bytes_in += p.counters.bytes_in;
    total.bytes_out += p.counters.bytes_out;
    total.protocol_errors += p.counters.protocol_errors;
    elapsed += p.elapsed_s;
    late.insert(late.end(), p.late_us.begin(), p.late_us.end());
    p50.push_back(p.latency_p50_us);
    raw_p99.push_back(p.raw_p99_us);
    raw_p999.push_back(p.raw_p999_us);
  }
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  tracer.set("net.server.drains_per_s", per(static_cast<double>(total.drains), elapsed));
  tracer.set("net.server.admits_per_drain",
             per(static_cast<double>(total.admits), static_cast<double>(total.drains)));
  tracer.set("net.server.bytes_in_per_admit",
             per(static_cast<double>(total.bytes_in), static_cast<double>(total.admits)));
  tracer.set(
      "net.server.bytes_out_per_ticket",
      per(static_cast<double>(total.bytes_out), static_cast<double>(total.tickets)));
  tracer.set("net.server.protocol_errors", static_cast<double>(total.protocol_errors));
  tracer.set("loadgen.late_p99_us", percentile(late, 0.99));
  tracer.set("loadgen.late_max_us", late.empty() ? 0.0 : late.back());
  tracer.set("loadgen.ticket_p50_us", median(std::move(p50)));
  tracer.set("loadgen.ticket_p99_raw_us", median(std::move(raw_p99)));
  tracer.set("loadgen.ticket_p999_raw_us", median(std::move(raw_p999)));
}

}  // namespace

Result run_wire(const Options& o, Tracer& tracer, LayerHints& hints) {
  const WireSpec& spec = spec_of(o.workload);
  Result result;
  result.workload = o.workload;
  hints.policy = spec.policy;
  hints.wire = true;

  // A run shorter than one pass shortens the open-loop pass instead.
  WireSpec pass_spec = spec;
  if (spec.open_loop) pass_spec.horizon = std::min(spec.horizon, o.seconds);
  const PassSummary run = run_passes(pass_spec, o, o.seconds, tracer, result);
  const std::vector<Pass>& passes = run.passes;
  EndToEnd e2e;
  e2e.latency_p50_us = median_of(passes, [](const Pass& p) { return p.latency_p50_us; });
  e2e.latency_p99_us = median_of(passes, [](const Pass& p) { return p.latency_p99_us; });
  double good = 0.0, elapsed_s = 0.0, cpu_s = 0.0;
  for (const Pass& p : passes) {
    good += static_cast<double>(p.good);
    elapsed_s += p.elapsed_s;
    cpu_s += p.server_cpu_s;
  }
  e2e.arrivals_per_s = good / elapsed_s;
  e2e.cpu_us_per_arrival = cpu_s * 1e6 / good;
  e2e.setup_s = run.setup_s;
  e2e.peak_rss_mb = peak_rss_mb();
  e2e.requests = static_cast<std::uint64_t>(good);
  add_end_to_end(result, e2e);
  result.add("passes", static_cast<double>(passes.size()), "count");
  result.digest = run.reference;

  std::uint64_t admits = 0, drains = 0;
  for (const Pass& p : passes) {
    admits += p.counters.admits;
    drains += p.counters.drains;
  }
  hints.drain_batch = std::max<std::uint64_t>(1, drains > 0 ? admits / drains : 1);
  record_wire_layers(passes, tracer);
  return result;
}

void probe_wire(const Options& o, Tracer& probe) {
  const WireSpec probe_spec{"wire_probe", true, 100e3, std::min(1.0, o.seconds), "dg"};
  Result outcome;
  const PassSummary run = run_passes(probe_spec, o, 0.0, probe, outcome);
  if (!outcome.correct) throw std::runtime_error("wire probe failed");
  record_wire_layers(run.passes, probe);
}

}  // namespace smerge::perf
