#include "core/plan_io.h"

#include <cstddef>

namespace smerge::plan {

namespace {

[[nodiscard]] SessionEventType decode_event_type(std::uint8_t tag) {
  switch (tag) {
    case 0:
      return SessionEventType::kPause;
    case 1:
      return SessionEventType::kSeek;
    case 2:
      return SessionEventType::kAbandon;
    default:
      throw util::SnapshotError("plan_io: bad session event tag " +
                                std::to_string(tag));
  }
}

}  // namespace

void save_session_trace(util::SnapshotWriter& w, const SessionTrace& trace) {
  w.f64(trace.arrival);
  w.u64(trace.events.size());
  for (const SessionEvent& e : trace.events) {
    switch (e.type) {
      case SessionEventType::kPause:
        w.u8(0);
        break;
      case SessionEventType::kSeek:
        w.u8(1);
        break;
      case SessionEventType::kAbandon:
        w.u8(2);
        break;
    }
    w.f64(e.position);
    w.f64(e.value);
  }
}

SessionTrace load_session_trace(util::SnapshotReader& r) {
  SessionTrace trace;
  trace.arrival = r.f64();
  const std::uint64_t n = r.u64();
  // type byte + position + value.
  if (n > r.remaining() / 17) {
    throw util::SnapshotError("plan_io: event count exceeds remaining bytes");
  }
  trace.events.resize(static_cast<std::size_t>(n));
  for (SessionEvent& e : trace.events) {
    e.type = decode_event_type(r.u8());
    e.position = r.f64();
    e.value = r.f64();
  }
  return trace;
}

void save_session_traces(util::SnapshotWriter& w,
                         std::span<const SessionTrace> traces) {
  w.u64(traces.size());
  for (const SessionTrace& t : traces) save_session_trace(w, t);
}

std::vector<SessionTrace> load_session_traces(util::SnapshotReader& r) {
  const std::uint64_t n = r.u64();
  // Minimum trace payload: arrival + event count.
  if (n > r.remaining() / 16) {
    throw util::SnapshotError("plan_io: trace count exceeds remaining bytes");
  }
  std::vector<SessionTrace> traces;
  traces.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    traces.push_back(load_session_trace(r));
  }
  return traces;
}

}  // namespace smerge::plan
