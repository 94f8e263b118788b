// Versioned, checksummed binary state serialization — the substrate of
// crash consistency (server checkpoints, the admission WAL, policy
// state round-trips).
//
// A snapshot is a *frame*: a fixed magic, a format version, a schema
// string naming the payload layout (e.g. "smerge-ckpt-v3"), the payload
// length, the payload itself, and a trailing FNV-1a 64 checksum over
// everything before it. `SnapshotWriter` accumulates a payload through
// typed little-endian appends and seals it with `frame(schema)`;
// `SnapshotReader::open` validates the whole envelope (magic, version,
// schema, length, checksum) before a single payload byte is interpreted,
// and every typed read is bounds-checked. Corruption — a flipped byte, a
// truncated file, a wrong schema — surfaces as a structured
// `SnapshotError`, never as undefined behaviour: a reader cannot be made
// to read past its span, and vector reads cap their element counts by
// the bytes actually remaining.
//
// Encodings are bit-exact and platform-independent: integers are
// little-endian fixed width, doubles are their IEEE-754 bit patterns
// (`std::bit_cast` through u64), so a state round-trip reproduces every
// value bit-identically — the property the kill-point recovery oracle
// (tests/test_recovery.cpp) is built on.
#ifndef SMERGE_UTIL_SNAPSHOT_H
#define SMERGE_UTIL_SNAPSHOT_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace smerge::util {

/// Structured (de)serialization failure: bad magic, schema mismatch,
/// truncation, checksum mismatch, or an out-of-bounds read. The message
/// names the failing field.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FNV-1a 64-bit hash — the frame checksum. Not cryptographic; it
/// detects the corruption classes crash recovery cares about (torn
/// writes, flipped bytes, truncation).
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept;

/// Typed little-endian appender. Accumulates a raw payload; `frame`
/// seals it into a self-validating snapshot.
class SnapshotWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// IEEE-754 bit pattern through u64 — bit-exact, including NaNs and
  /// infinities.
  void f64(double v);
  void boolean(bool v);
  /// u32 length + bytes.
  void str(std::string_view s);
  /// Raw bytes, no length prefix (caller frames them).
  void raw(std::span<const std::uint8_t> bytes);
  /// u64 length + bytes — a skippable sub-blob (policy state, driver
  /// extensions).
  void blob(std::span<const std::uint8_t> bytes);
  /// u64 count + elements.
  void f64_vec(std::span<const double> v);
  void i64_vec(std::span<const std::int64_t> v);

  /// Payload accumulated so far.
  [[nodiscard]] std::span<const std::uint8_t> payload() const noexcept {
    return {buffer_.data(), buffer_.size()};
  }
  /// Bytes appended so far.
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

  /// Seals the payload into a checksummed frame tagged with `schema`
  /// (non-empty, at most 64 bytes). The writer keeps its payload and
  /// can keep appending (frames are value snapshots).
  [[nodiscard]] std::vector<std::uint8_t> frame(std::string_view schema) const;

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked typed reader over a byte span. Construct directly for
/// raw payloads (WAL record bodies); use `open` for framed snapshots.
/// The reader never owns memory — the span must outlive it.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::span<const std::uint8_t> payload) noexcept
      : data_(payload) {}

  /// Validates a frame end to end — magic, format version, schema
  /// (must equal `expected_schema`), payload length, checksum — and
  /// returns a reader positioned at the payload start. Throws
  /// SnapshotError naming the first violated property.
  [[nodiscard]] static SnapshotReader open(std::span<const std::uint8_t> frame,
                                           std::string_view expected_schema);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::string str();
  /// Exactly `n` raw bytes.
  [[nodiscard]] std::span<const std::uint8_t> raw(std::size_t n);
  /// A u64-length-prefixed sub-blob (mirror of SnapshotWriter::blob).
  [[nodiscard]] std::span<const std::uint8_t> blob();
  [[nodiscard]] std::vector<double> f64_vec();
  [[nodiscard]] std::vector<std::int64_t> i64_vec();

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// Throws SnapshotError unless every byte was consumed — catches
  /// schema drift where a reader under-reads a record.
  void expect_end() const;

 private:
  [[nodiscard]] const std::uint8_t* take(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Writes `bytes` to `path` atomically enough for checkpoints (write to
/// `path` directly, optionally fsync before close). Throws
/// std::runtime_error on I/O failure.
void write_bytes_file(const std::string& path, std::span<const std::uint8_t> bytes,
                      bool fsync);

/// Reads a whole file; throws std::runtime_error when it cannot be
/// opened or read.
[[nodiscard]] std::vector<std::uint8_t> read_bytes_file(const std::string& path);

}  // namespace smerge::util

#endif  // SMERGE_UTIL_SNAPSHOT_H
