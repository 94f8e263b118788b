// Binary codecs for the session traces a server checkpoint and the
// admission WAL carry. These are payload codecs — they append to / read
// from an open SnapshotWriter / SnapshotReader and leave framing
// (schema, checksum) to the caller.
#ifndef SMERGE_CORE_PLAN_IO_H
#define SMERGE_CORE_PLAN_IO_H

#include <span>
#include <vector>

#include "core/session.h"
#include "util/snapshot.h"

namespace smerge::plan {

/// Appends one session trace (arrival + position-ordered events).
void save_session_trace(util::SnapshotWriter& w, const SessionTrace& trace);

/// Reads a session trace written by `save_session_trace`. Throws
/// util::SnapshotError on a bad event-type tag.
[[nodiscard]] SessionTrace load_session_trace(util::SnapshotReader& r);

/// Appends a list of session traces (count + traces).
void save_session_traces(util::SnapshotWriter& w,
                         std::span<const SessionTrace> traces);

/// Reads a list written by `save_session_traces`.
[[nodiscard]] std::vector<SessionTrace> load_session_traces(
    util::SnapshotReader& r);

}  // namespace smerge::plan

#endif  // SMERGE_CORE_PLAN_IO_H
