// Thin RAII wrappers over the Linux readiness primitives the network
// front end is built on: non-blocking sockets, epoll (edge-triggered),
// eventfd wakeups and timerfd drain timers. Every failure surfaces as
// std::system_error carrying errno and the failing call — which is how
// `vod_server` turns a port collision into a readable
// "bind(127.0.0.1:9090): Address already in use" instead of a raw
// throw.
#ifndef SMERGE_NET_EVENT_LOOP_H
#define SMERGE_NET_EVENT_LOOP_H

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <system_error>
#include <vector>

namespace smerge::net {

/// Owning file descriptor; closes on destruction, move-only.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) noexcept : fd_(fd) {}
  ~FdHandle() { reset(); }
  FdHandle(FdHandle&& other) noexcept : fd_(other.release()) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Throws std::system_error(errno) with `what` naming the failing call.
[[noreturn]] void throw_errno(const std::string& what);

/// O_NONBLOCK on an existing descriptor.
void set_nonblocking(int fd);
/// TCP_NODELAY — admission records are tiny; Nagle would serialize the
/// closed-loop latency measurement.
void set_nodelay(int fd);

/// Creates a non-blocking listening TCP socket bound to host:port
/// (SO_REUSEADDR; port 0 picks an ephemeral port). Throws
/// std::system_error naming the failing call and address — EADDRINUSE
/// lands here.
[[nodiscard]] FdHandle make_listener(const std::string& host,
                                     std::uint16_t port, int backlog);

/// The port a bound socket actually listens on (resolves port 0).
[[nodiscard]] std::uint16_t local_port(int fd);

/// Blocking connect to host:port with `attempts` retries spaced
/// `retry_ms` apart — absorbs the server-startup race in tests and CI.
/// Returns a connected non-blocking-capable fd (left in blocking mode).
[[nodiscard]] FdHandle connect_tcp(const std::string& host, std::uint16_t port,
                                   int attempts = 50, int retry_ms = 20);

/// One epoll readiness event.
struct ReadyEvent {
  int fd = -1;
  std::uint32_t events = 0;  ///< EPOLLIN/EPOLLOUT/EPOLLHUP/EPOLLERR bits
};

/// Edge-triggered epoll instance.
class Epoll {
 public:
  Epoll();

  /// Registers `fd` for `events` (caller ors in EPOLLET as desired).
  void add(int fd, std::uint32_t events);
  void modify(int fd, std::uint32_t events);
  void remove(int fd);

  /// Waits up to timeout_ms (-1 = forever) and appends ready fds to
  /// `out` (cleared first). Returns the number of events. EINTR retries.
  std::size_t wait(std::vector<ReadyEvent>& out, int timeout_ms);

 private:
  FdHandle epfd_;
};

/// eventfd wakeup: edge-trigger-friendly cross-thread kick.
class EventFd {
 public:
  EventFd();
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  /// Signal (async-signal-safe, callable from any thread).
  void notify() noexcept;
  /// Consume all pending signals (the owning loop, after readiness).
  void clear() noexcept;

 private:
  FdHandle fd_;
};

/// CLOCK_MONOTONIC timerfd, periodic or one-shot. The network front end
/// uses one of each: a periodic fallback bound on the gap between drains
/// (drains otherwise run on demand) and a re-armed one-shot that spaces
/// demand drains while posts keep coming.
class TimerFd {
 public:
  /// Disarmed until `fire_in`.
  TimerFd();
  /// Fires every `interval_us` microseconds (>= 1).
  explicit TimerFd(std::uint64_t interval_us);
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  /// Re-arms as a one-shot that fires once, `delay` from now (at once
  /// when `delay` is not positive).
  void fire_in(std::chrono::nanoseconds delay);
  /// Consume expirations; returns how many ticks elapsed.
  std::uint64_t read_ticks() noexcept;

 private:
  FdHandle fd_;
};

}  // namespace smerge::net

#endif  // SMERGE_NET_EVENT_LOOP_H
