// Minimal command-line flag parser for the example programs and bench
// harnesses. Supports `--name=value` and `--name value` forms plus boolean
// switches (`--verbose`). Unknown flags are an error so typos surface.
#ifndef SMERGE_UTIL_CLI_H
#define SMERGE_UTIL_CLI_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace smerge::util {

/// Parses `argv` into a flag map and positional arguments.
///
/// The parser is intentionally strict: every flag must be registered with a
/// default before parsing, so `--help` output is always complete and any
/// misspelled flag aborts with a clear message instead of being ignored.
class ArgParser {
 public:
  /// `program_summary` is printed at the top of `help()`.
  explicit ArgParser(std::string program_summary);

  /// Registers flags with defaults and a help description.
  void add_int(const std::string& name, std::int64_t def, const std::string& help);
  void add_double(const std::string& name, double def, const std::string& help);
  void add_string(const std::string& name, const std::string& def, const std::string& help);
  void add_bool(const std::string& name, bool def, const std::string& help);

  /// Parses the command line. Returns false after printing `help()` to
  /// stdout when `--help` (or `-h`) was requested; the caller should
  /// then exit successfully. Throws std::invalid_argument on bad input.
  bool parse(int argc, const char* const* argv);

  /// Typed accessors; throw std::out_of_range on unregistered names and
  /// std::invalid_argument when the stored text cannot be converted.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// True when the flag appeared on the parsed command line (as opposed
  /// to holding its registered default) — the hook for rejecting
  /// contradictory combinations like `--mode` without `--capacity`.
  [[nodiscard]] bool provided(const std::string& name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Renders the usage text.
  [[nodiscard]] std::string help() const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool };
  struct Flag {
    Kind kind;
    std::string value;  // textual representation
    std::string help;
    std::string default_text;
    bool provided = false;  // appeared on the command line
  };

  void add_flag(const std::string& name, Kind kind, std::string def, const std::string& help);
  [[nodiscard]] const Flag& flag(const std::string& name) const;

  std::string summary_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace smerge::util

#endif  // SMERGE_UTIL_CLI_H
