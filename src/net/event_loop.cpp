#include "net/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace smerge::net {

void FdHandle::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) < 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

namespace {

[[nodiscard]] sockaddr_in resolve_v4(const std::string& host,
                                     std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::system_error(
        std::make_error_code(std::errc::invalid_argument),
        "inet_pton(" + host + "): not an IPv4 address");
  }
  return addr;
}

[[nodiscard]] std::string endpoint_name(const std::string& host,
                                        std::uint16_t port) {
  return host + ":" + std::to_string(static_cast<unsigned>(port));
}

}  // namespace

FdHandle make_listener(const std::string& host, std::uint16_t port,
                       int backlog) {
  const sockaddr_in addr = resolve_v4(host, port);
  FdHandle fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    throw_errno("bind(" + endpoint_name(host, port) + ")");
  }
  if (::listen(fd.get(), backlog) < 0) {
    throw_errno("listen(" + endpoint_name(host, port) + ")");
  }
  set_nonblocking(fd.get());
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

FdHandle connect_tcp(const std::string& host, std::uint16_t port, int attempts,
                     int retry_ms) {
  const sockaddr_in addr = resolve_v4(host, port);
  int last_errno = ECONNREFUSED;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    FdHandle fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) throw_errno("socket");
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      set_nodelay(fd.get());
      return fd;
    }
    last_errno = errno;
    if (last_errno != ECONNREFUSED && last_errno != ETIMEDOUT &&
        last_errno != EAGAIN) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
  }
  errno = last_errno;
  throw_errno("connect(" + endpoint_name(host, port) + ")");
}

Epoll::Epoll() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epfd_.valid()) throw_errno("epoll_create1");
}

void Epoll::add(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(ADD)");
  }
}

void Epoll::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(MOD)");
  }
}

void Epoll::remove(int fd) {
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr) < 0) {
    throw_errno("epoll_ctl(DEL)");
  }
}

std::size_t Epoll::wait(std::vector<ReadyEvent>& out, int timeout_ms) {
  out.clear();
  epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epfd_.get(), events, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) throw_errno("epoll_wait");
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back({events[i].data.fd, events[i].events});
  }
  return static_cast<std::size_t>(n);
}

EventFd::EventFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (!fd_.valid()) throw_errno("eventfd");
}

void EventFd::notify() noexcept {
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const auto n = ::write(fd_.get(), &one, sizeof one);
}

void EventFd::clear() noexcept {
  std::uint64_t drained;
  [[maybe_unused]] const auto n = ::read(fd_.get(), &drained, sizeof drained);
}

TimerFd::TimerFd()
    : fd_(::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK)) {
  if (!fd_.valid()) throw_errno("timerfd_create");
}

TimerFd::TimerFd(std::uint64_t interval_us) : TimerFd() {
  if (interval_us == 0) interval_us = 1;
  itimerspec spec{};
  spec.it_interval.tv_sec = static_cast<time_t>(interval_us / 1000000);
  spec.it_interval.tv_nsec = static_cast<long>((interval_us % 1000000) * 1000);
  spec.it_value = spec.it_interval;
  if (::timerfd_settime(fd_.get(), 0, &spec, nullptr) < 0) {
    throw_errno("timerfd_settime");
  }
}

void TimerFd::fire_in(std::chrono::nanoseconds delay) {
  // A zero it_value would disarm the timer instead.
  const std::int64_t ns = std::max<std::int64_t>(1, delay.count());
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000);
  if (::timerfd_settime(fd_.get(), 0, &spec, nullptr) < 0) {
    throw_errno("timerfd_settime");
  }
}

std::uint64_t TimerFd::read_ticks() noexcept {
  std::uint64_t ticks = 0;
  if (::read(fd_.get(), &ticks, sizeof ticks) != sizeof ticks) return 0;
  return ticks;
}

}  // namespace smerge::net
