// NetServer end-to-end over loopback: wire-fed runs must be
// indistinguishable from trace-fed runs (the determinism acceptance for
// the network front end — snapshot digests identical at shard widths 1,
// 2 and 4, with and without connection churn), tickets must carry the
// construction-time slot arithmetic, the control plane (PING / STATS /
// FINISH) must round-trip, the HTTP debug surface must answer on the
// same port, and transport failures (double bind, garbage bytes,
// per-connection contract violations) must stay contained to their
// connection.
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/event_loop.h"
#include "net/server.h"
#include "online/policy.h"
#include "server/server_core.h"
#include "server/wire.h"

namespace smerge::net {
namespace {

constexpr double kDelay = 0.01;
/// A fallback drain timer that never fires during a test: every drain
/// must then come from demand.
constexpr std::uint64_t kOneHourUs = 3'600'000'000;

/// A small deterministic catalogue: object m gets arrivals at
/// m*1e-3 + k*7.3e-3 — dense enough that batches share slots, spread
/// enough that every object differs.
std::vector<std::vector<double>> make_traces(Index objects, int per_object) {
  std::vector<std::vector<double>> traces(static_cast<std::size_t>(objects));
  for (Index m = 0; m < objects; ++m) {
    for (int k = 0; k < per_object; ++k) {
      traces[static_cast<std::size_t>(m)].push_back(
          static_cast<double>(m) * 1e-3 + static_cast<double>(k) * 7.3e-3);
    }
  }
  return traces;
}

server::ServerCoreConfig core_config(Index objects, unsigned shards) {
  server::ServerCoreConfig config;
  config.objects = objects;
  config.delay = kDelay;
  config.horizon = 10.0;
  config.shards = shards;
  return config;
}

/// Serial trace-fed run — the reference every wire run must match.
std::uint64_t reference_digest(const std::vector<std::vector<double>>& traces,
                               OnlinePolicy& policy,
                               server::Snapshot* out = nullptr) {
  server::ServerCore core(core_config(static_cast<Index>(traces.size()), 2),
                          policy);
  for (std::size_t m = 0; m < traces.size(); ++m) {
    core.ingest_trace(static_cast<Index>(m), std::vector<double>(traces[m]));
  }
  core.finish();
  server::Snapshot snap = core.take_snapshot();
  const std::uint64_t digest = server::snapshot_digest(snap);
  if (out != nullptr) *out = std::move(snap);
  return digest;
}

std::uint64_t reference_digest(const std::vector<std::vector<double>>& traces,
                               server::Snapshot* out = nullptr) {
  BatchingPolicy policy;
  return reference_digest(traces, policy, out);
}

bool snapshots_match(const server::Snapshot& a, const server::Snapshot& b) {
  return a.total_arrivals == b.total_arrivals &&
         a.total_streams == b.total_streams &&
         a.streams_served == b.streams_served &&
         a.peak_concurrency == b.peak_concurrency &&
         a.guarantee_violations == b.guarantee_violations &&
         a.wait.mean == b.wait.mean && a.wait.max == b.wait.max &&
         a.wait.p50 == b.wait.p50 && a.wait.p95 == b.wait.p95 &&
         a.wait.p99 == b.wait.p99 && a.per_object == b.per_object;
}

/// Sends `traces` over `clients` connections (objects round-robin, each
/// connection time-ordered), collects every ticket, FINISHes, and
/// returns the server's summary. `churn_every` > 0 reconnects each
/// client after that many admissions.
server::WireSummary drive_wire(NetServer& server,
                               const std::vector<std::vector<double>>& traces,
                               unsigned clients, std::uint64_t churn_every = 0,
                               std::vector<server::Ticket>* tickets = nullptr) {
  std::mutex tickets_mutex;
  auto worker = [&](unsigned who) {
    std::vector<std::pair<double, Index>> sends;
    for (std::size_t m = who; m < traces.size(); m += clients) {
      for (const double t : traces[m]) sends.emplace_back(t, static_cast<Index>(m));
    }
    std::stable_sort(sends.begin(), sends.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    BlockingClient client;
    client.connect("127.0.0.1", server.port());
    std::uint64_t sent = 0, acked = 0;
    const auto on_ticket = [&](const TicketReply& reply) {
      if (tickets != nullptr) {
        const std::lock_guard<std::mutex> lock(tickets_mutex);
        tickets->push_back(reply.ticket);
      }
      (void)reply;
    };
    const auto collect = [&] {
      client.flush();
      while (acked < sent) acked += client.poll_tickets(on_ticket, true);
    };
    for (const auto& [time, object] : sends) {
      if (churn_every > 0 && sent > 0 && sent % churn_every == 0) {
        collect();
        client.close();
        client.connect("127.0.0.1", server.port());
      }
      (void)client.admit(object, time);
      ++sent;
    }
    collect();
    client.close();
  };
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) threads.emplace_back(worker, c);
    for (auto& t : threads) t.join();
  }
  BlockingClient control;
  control.connect("127.0.0.1", server.port());
  const server::WireSummary summary = control.finish();
  control.close();
  EXPECT_TRUE(server.wait_finished(std::chrono::seconds(30)));
  return summary;
}

// The acceptance identity: wire-fed and trace-fed snapshots are
// byte-identical (same digest, same fields) at shard widths 1, 2 and 4,
// with a 200 µs fallback timer and with one that never fires (every
// drain on demand).
TEST(NetServer, WireMatchesTraceAtShardWidths) {
  const auto traces = make_traces(24, 40);
  server::Snapshot reference;
  const std::uint64_t expected = reference_digest(traces, &reference);
  for (const std::uint64_t fallback_us : {std::uint64_t{200}, kOneHourUs}) {
    for (const unsigned shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " fallback_us=" + std::to_string(fallback_us));
      BatchingPolicy policy;
      NetServerConfig net;
      net.reactors = 2;
      net.drain_interval_us = fallback_us;
      NetServer server(net, core_config(24, shards), policy);
      server.start();
      const server::WireSummary summary = drive_wire(server, traces, 2);
      EXPECT_TRUE(summary.ok);
      EXPECT_EQ(summary.digest, expected);
      EXPECT_TRUE(snapshots_match(server.snapshot(), reference));
      EXPECT_EQ(summary.total_arrivals, reference.total_arrivals);
      server.stop();
    }
  }
}

// Drains run on demand: with the fallback timer an hour away, a lone
// ADMIT's TICKET still comes back at once.
TEST(NetServer, TicketsDoNotWaitForTheTimer) {
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = kOneHourUs;
  NetServer server(net, core_config(4, 2), policy);
  server.start();
  BlockingClient client;
  client.connect("127.0.0.1", server.port());
  (void)client.admit(1, 0.5);
  client.flush();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  std::size_t got = 0;
  while (got == 0 && std::chrono::steady_clock::now() < deadline) {
    got += client.poll_tickets(nullptr, false);
    if (got == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(got, 1u) << "no TICKET within 1 s: the drain waited for the timer";
  EXPECT_GE(server.counters().drains, 1u);
  client.close();
  server.stop();
}

// Connection churn (reconnect mid-stream) must not perturb results: an
// object's arrival order survives because it never leaves its client.
TEST(NetServer, ChurnPreservesIdentity) {
  const auto traces = make_traces(16, 30);
  const std::uint64_t expected = reference_digest(traces);
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(16, 2), policy);
  server.start();
  const server::WireSummary summary =
      drive_wire(server, traces, 3, /*churn_every=*/50);
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(summary.digest, expected);
  server.stop();
}

// Tickets carry the batching preview: playback at batch_start_of, wait
// derived from it, admitted always (the generic policy path rejects
// nothing at admission).
TEST(NetServer, TicketsCarryBatchArithmetic) {
  const auto traces = make_traces(8, 10);
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(8, 2), policy);
  server.start();
  std::vector<server::Ticket> tickets;
  const server::WireSummary summary =
      drive_wire(server, traces, 1, 0, &tickets);
  EXPECT_TRUE(summary.ok);
  ASSERT_EQ(tickets.size(), 8u * 10u);
  for (const server::Ticket& t : tickets) {
    EXPECT_TRUE(t.admitted);
    const double expected_start = batch_start_of(t.arrival, kDelay);
    EXPECT_EQ(t.playback_start, expected_start);
    EXPECT_EQ(t.wait, expected_start - t.arrival);
    EXPECT_EQ(t.guarantee_wait, expected_start - t.decision_time);
    EXPECT_LE(t.wait, kDelay + 1e-12);
    EXPECT_EQ(t.deferred_slots, 0);
    EXPECT_FALSE(t.degraded);
  }
  server.stop();
}

TEST(NetServer, PingAndStatsRoundTrip) {
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(4, 1), policy);
  server.start();
  BlockingClient client;
  client.connect("127.0.0.1", server.port());
  EXPECT_EQ(client.ping(0x5EED), 0x5EEDu);
  for (int k = 0; k < 10; ++k) {
    (void)client.admit(k % 4, 0.001 * k);
  }
  client.flush();
  // Collect every ticket first — ping()/stats() block on the shared
  // stream and would silently consume (and discard) ticket frames.
  std::size_t got = 0;
  while (got < 10) got += client.poll_tickets(nullptr, true);
  // A ticket certifies that a completed drain folded its admit and
  // refreshed the cached stats, so the first STATS counts all ten.
  const server::LiveStats live = client.stats();
  EXPECT_EQ(live.arrivals, 10);
  EXPECT_EQ(live.admitted, 10);
  EXPECT_EQ(client.ping(77), 77u);
  client.close();
  server.stop();
}

/// Raw HTTP GET against the shared port; returns everything until the
/// server closes.
std::string http_get(std::uint16_t port, const std::string& request) {
  FdHandle fd = connect_tcp("127.0.0.1", port);
  std::size_t at = 0;
  while (at < request.size()) {
    const auto n = ::send(fd.get(), request.data() + at, request.size() - at,
                          MSG_NOSIGNAL);
    if (n < 0) throw_errno("send");
    at += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const auto n = ::recv(fd.get(), buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(NetServer, HttpDebugSurface) {
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(4, 2), policy);
  server.start();
  const std::string live =
      http_get(server.port(), "GET /live HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(live.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(live.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(live.find("\"arrivals\""), std::string::npos);
  const std::string stats =
      http_get(server.port(), "GET /stats HTTP/1.1\r\n\r\n");
  EXPECT_NE(stats.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(stats.find("\"net\""), std::string::npos);
  EXPECT_NE(stats.find("\"accepted\""), std::string::npos);
  const std::string dispatch =
      http_get(server.port(), "GET /dispatch HTTP/1.1\r\n\r\n");
  EXPECT_NE(dispatch.find("\"policy\""), std::string::npos);
  const std::string missing =
      http_get(server.port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  const std::string post =
      http_get(server.port(), "POST /live HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_GE(server.counters().http_requests, 5u);
  server.stop();
}

TEST(NetServer, DoubleBindThrowsSystemError) {
  BatchingPolicy policy;
  NetServerConfig net;
  NetServer first(net, core_config(2, 1), policy);
  first.start();
  NetServerConfig clash;
  clash.port = first.port();
  NetServer second(clash, core_config(2, 1), policy);
  EXPECT_THROW(second.start(), std::system_error);
  first.stop();
}

// A garbage stream (bad magic after the binary sniff byte) kills only
// its own connection; the server keeps serving and finishing.
TEST(NetServer, ProtocolErrorIsContainedToItsConnection) {
  const auto traces = make_traces(6, 8);
  const std::uint64_t expected = reference_digest(traces);
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(6, 2), policy);
  server.start();

  // 'S' selects the binary protocol, then nonsense: ProtocolError.
  FdHandle bad = connect_tcp("127.0.0.1", server.port());
  const char junk[] = "SMNX garbage that is not a frame header....";
  ASSERT_GT(::send(bad.get(), junk, sizeof junk - 1, MSG_NOSIGNAL), 0);
  char buf[64];
  EXPECT_EQ(::recv(bad.get(), buf, sizeof buf, 0), 0)
      << "server must close the bad connection";
  bad.reset();

  const server::WireSummary summary = drive_wire(server, traces, 2);
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(summary.digest, expected);
  EXPECT_GE(server.counters().protocol_errors, 1u);
  server.stop();
}

// The per-connection contract: ADMIT times must be nondecreasing. A
// violation closes the connection before the bad post can poison the
// drain (which would fail the whole run).
TEST(NetServer, DecreasingAdmitTimeClosesConnection) {
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(4, 2), policy);
  server.start();
  FdHandle fd = connect_tcp("127.0.0.1", server.port());
  std::vector<std::uint8_t> out;
  append_admit(out, 1, 0, 1.0);
  append_admit(out, 2, 1, 0.5);  // goes backwards: contract violation
  ASSERT_GT(::send(fd.get(), out.data(), out.size(), MSG_NOSIGNAL), 0);
  char buf[256];
  // The server may first flush a ticket for the valid admit; the stream
  // must end in a close either way.
  while (true) {
    const auto n = ::recv(fd.get(), buf, sizeof buf, 0);
    if (n <= 0) {
      EXPECT_EQ(n, 0);
      break;
    }
  }
  fd.reset();
  EXPECT_GE(server.counters().protocol_errors, 1u);

  // The server survives and still finishes cleanly.
  BlockingClient control;
  control.connect("127.0.0.1", server.port());
  const server::WireSummary summary = control.finish();
  EXPECT_TRUE(summary.ok);
  control.close();
  server.stop();
}

// A non-finite ADMIT time, or one past the horizon, closes only its own
// connection; it must not reach Delay Guaranteed's slot arithmetic (or
// be promised a stream the horizon flush never airs) and fail everyone's
// run.
TEST(NetServer, NonFiniteAdmitTimeClosesOnlyItsConnection) {
  const auto traces = make_traces(2, 5);  // ten admits
  DelayGuaranteedPolicy reference_policy;
  const std::uint64_t expected = reference_digest(traces, reference_policy);
  DelayGuaranteedPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  const server::ServerCoreConfig config = core_config(2, 2);
  NetServer server(net, config, policy);
  server.start();

  const double bad_times[] = {std::numeric_limits<double>::infinity(),
                              config.horizon + 0.5, 1e300};
  for (const double t : bad_times) {
    FdHandle bad = connect_tcp("127.0.0.1", server.port());
    // Bounded wait: a server that accepted the admit would never close.
    const timeval timeout{5, 0};
    ASSERT_EQ(::setsockopt(bad.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof timeout),
              0);
    std::vector<std::uint8_t> out;
    append_admit(out, 1, 1, t);
    ASSERT_GT(::send(bad.get(), out.data(), out.size(), MSG_NOSIGNAL), 0);
    char buf[256];
    ssize_t n = 0;
    while ((n = ::recv(bad.get(), buf, sizeof buf, 0)) > 0) {
    }
    EXPECT_EQ(n, 0) << "server must close the bad connection, t=" << t;
  }
  EXPECT_GE(server.counters().protocol_errors, 3u);

  const server::WireSummary summary = drive_wire(server, traces, 1);
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(summary.digest, expected);
  server.stop();
}

// stop() without any client finishing must shut down cleanly (the
// destructor path) — including with connections still open.
TEST(NetServer, StopWithoutFinishIsClean) {
  BatchingPolicy policy;
  NetServerConfig net;
  NetServer server(net, core_config(4, 2), policy);
  server.start();
  BlockingClient client;
  client.connect("127.0.0.1", server.port());
  (void)client.admit(0, 0.25);
  client.flush();
  EXPECT_FALSE(server.finished());
  EXPECT_THROW((void)server.summary(), std::logic_error);
  server.stop();  // open connection + posted admit: still clean
}

TEST(NetServer, ConfigValidation) {
  BatchingPolicy policy;
  {
    NetServerConfig net;
    net.reactors = 0;
    EXPECT_THROW(NetServer(net, core_config(2, 1), policy),
                 std::invalid_argument);
  }
  {
    NetServerConfig net;
    net.drain_interval_us = 0;
    EXPECT_THROW(NetServer(net, core_config(2, 1), policy),
                 std::invalid_argument);
  }
  {
    NetServerConfig net;
    auto config = core_config(2, 1);
    config.enable_sessions = true;
    EXPECT_THROW(NetServer(net, config, policy), std::invalid_argument);
  }
}

}  // namespace
}  // namespace smerge::net
