// The asynchronous network front end over server::ServerCore — the
// wire that turns the in-process admission engine into a service.
//
// Thread shape:
//
//  * one *driver* thread owns everything only the core's single driver
//    may touch: it accepts connections (handing each to a reactor
//    round-robin), runs `drain()` on demand, refreshes the cached stats
//    the wire and HTTP surfaces serve, and executes the finish sequence;
//  * `reactors` *reactor* threads each run an edge-triggered epoll loop
//    over their connections: non-blocking reads feed the incremental
//    frame decoder, ADMIT records go straight into
//    `ServerCore::post()` — the existing lock-free per-shard MPSC
//    mailboxes, zero new locks on the hot path — and TICKET replies are
//    stamped from `preview_admission()` (the policy's own slot
//    arithmetic over construction-time state, safe from any thread).
//
// Drains on demand: a reactor that posted in an epoll round marks posts
// waiting (`drain_state_`) and writes the driver's eventfd only on the
// idle->busy edge, so one write covers every post until the next drain.
// The driver drains at once on that edge. While posts keep coming it
// drains again as soon as a short gap has passed since the previous
// drain started (a one-shot timerfd; see kMinDrainGap in server.cpp),
// each batch being whatever arrived in between (group commit); a gap
// without posts returns it to idle. A periodic timerfd at
// `drain_interval_us` remains as a fallback bound: it drains when no
// demand drain ran for a whole interval.
//
// Tickets and the folded prefix: `post()` returns the arrival's
// sequence number in its shard, and after each drain (and its stats
// refresh) the driver publishes every shard's folded prefix
// (`ServerCore::posts_folded`). A TICKET is buffered per connection and
// flushed once its sequence number lies below its shard's published
// prefix, so a ticket certifies that its admission is folded — and that
// the STATS a client asks for next count it. That is what makes the
// FINISH handshake sound: by the time a client sends FINISH, all
// tickets (its own and, per the protocol contract, every other
// producer's) are in, so the driver's drain+finish sees quiesced
// mailboxes. The driver still retries a few drain rounds and reports a
// failed summary rather than crashing if a peer violates the contract.
// After a drain the driver writes the eventfd only of reactors that are
// asleep; an awake one flushes at the top of its next round.
//
// Determinism: the core folds arrivals by per-object arrival order, so
// the final snapshot is a pure function of each object's arrival
// sequence — not of connection interleaving, drain cadence, reactor or
// shard count. The loopback soak asserts exactly this: a wire-fed run
// hashes (server/wire.h snapshot_digest) identical to `ingest_trace`
// of the same workload at shard widths 1, 2 and 4.
//
// Debug surface: plain-text HTTP on the same port (the binary magic
// starts with 'S', so the first byte classifies the stream): GET
// /stats, /live and /dispatch answer JSON built with util::JsonWriter
// and close.
#ifndef SMERGE_NET_SERVER_H
#define SMERGE_NET_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.h"
#include "net/event_loop.h"
#include "server/server_core.h"
#include "server/wire.h"

namespace smerge::net {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 = ephemeral (read back via port())
  unsigned reactors = 1;         ///< epoll loops; >= 1
  /// Fallback bound on the gap between drains (a periodic timerfd that
  /// drains when no demand drain ran for a whole interval); drains
  /// otherwise run on demand.
  std::uint64_t drain_interval_us = 500;
  std::size_t read_chunk = std::size_t{64} << 10;
  std::size_t write_high_watermark = std::size_t{4} << 20;
  int listen_backlog = 128;
};

/// Transport-level totals (independent of the core's admission stats).
struct NetCounters {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t admits = 0;    ///< ADMIT records posted
  std::uint64_t tickets = 0;   ///< TICKET records sent
  std::uint64_t drains = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class NetServer {
 public:
  /// Builds the core (generic-policy, non-session serving only — the
  /// post() path) and validates the net config. The policy must outlive
  /// the server. Throws std::invalid_argument on a bad config.
  NetServer(const NetServerConfig& net_config,
            const server::ServerCoreConfig& core_config,
            OnlinePolicy& policy);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens and spawns the driver + reactor threads. Throws
  /// std::system_error (EADDRINUSE lands here) without leaking threads.
  void start();

  /// Stops every thread and closes every connection. Idempotent;
  /// callable whether or not a FINISH was served.
  void stop();

  /// The bound port (resolves an ephemeral request). Valid after
  /// start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Waits until a client's FINISH was served *and* its FINISHED reply
  /// flushed (or the finishing connection died). Returns false on
  /// timeout.
  bool wait_finished(std::chrono::milliseconds timeout);

  /// True once the finish sequence ran (successfully or not).
  [[nodiscard]] bool finished() const noexcept {
    return finished_.load(std::memory_order_acquire);
  }

  /// The end-of-run summary / snapshot. Valid after finished(); throws
  /// std::logic_error before.
  [[nodiscard]] const server::WireSummary& summary() const;
  [[nodiscard]] const server::Snapshot& snapshot() const;
  /// Non-empty when the finish sequence failed server-side.
  [[nodiscard]] std::string error() const;

  /// The stats the wire/HTTP surfaces serve: the core's LiveStats as of
  /// the latest completed drain. Callable from any thread.
  [[nodiscard]] server::LiveStats live() const;
  [[nodiscard]] NetCounters counters() const;

 private:
  struct Reactor;

  void driver_loop();
  void reactor_loop(Reactor& r);
  void accept_ready();
  void run_drain();
  void run_finish();
  void request_drain();
  [[nodiscard]] bool claim_posts();
  void adopt_inbox(Reactor& r);
  void handle_conn_event(Reactor& r, int fd, std::uint32_t events);
  void process_input(Reactor& r, Connection& c);
  void handle_frame(Reactor& r, Connection& c, const Frame& frame);
  void handle_http(Reactor& r, Connection& c);
  void flush_tickets(Reactor& r);
  void update_write_interest(Reactor& r, Connection& c);
  void close_conn(Reactor& r, int fd);
  [[nodiscard]] std::string http_body(const std::string& path);

  NetServerConfig net_config_;
  OnlinePolicy& policy_;
  server::ServerCore core_;
  std::uint16_t port_ = 0;

  FdHandle listener_;
  EventFd driver_wake_;
  std::thread driver_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  ///< driver-only round-robin cursor

  std::atomic<bool> running_{false};
  /// Demand drains (see driver_loop): kIdle — no posts waiting and no
  /// drain coming, so the next post wakes the driver; kArmed — a drain
  /// is coming at the gap timer; kPosted — posts wait for it.
  enum class DrainState : std::uint8_t { kIdle, kArmed, kPosted };
  std::atomic<DrainState> drain_state_{DrainState::kIdle};
  /// Per shard, the post() sequence numbers the completed drains have
  /// folded (driver writes after each drain, reactors read).
  std::vector<std::atomic<std::uint64_t>> folded_;
  std::atomic<bool> finish_requested_{false};
  std::atomic<bool> finished_{false};

  // Finish handshake: which connection sent FINISH (reactor index +
  // fd), and whether its FINISHED reply left the socket buffer.
  std::atomic<int> finish_reactor_{-1};
  std::atomic<int> finish_fd_{-1};
  std::atomic<bool> finish_flushed_{false};

  mutable std::mutex state_mutex_;  ///< cached stats + finish results
  std::condition_variable finished_cv_;
  server::LiveStats cached_live_;
  server::Snapshot snapshot_;
  server::WireSummary summary_;
  std::string error_;

  // Transport counters (relaxed; exactness is not load-bearing).
  std::atomic<std::uint64_t> n_accepted_{0}, n_closed_{0}, n_proto_errors_{0},
      n_http_{0}, n_admits_{0}, n_tickets_{0}, n_drains_{0}, n_bytes_in_{0},
      n_bytes_out_{0};
};

}  // namespace smerge::net

#endif  // SMERGE_NET_SERVER_H
