#ifndef RLPLANNER_UTIL_FLAGS_H_
#define RLPLANNER_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace rlplanner::util {

/// A parsed command line of the form `prog <command> [--flag value]...`.
///
/// Flag syntax (matching the historical rlplanner_cli behavior):
/// - `--key value` and `--key=value` both bind `value` to `key`;
/// - a `--key` followed by another flag (or nothing) is a boolean flag and
///   binds "1";
/// - a repeated flag keeps the *last* occurrence;
/// - bare positional tokens after the command are collected separately so
///   callers can reject them.
struct CommandLine {
  /// The subcommand (argv[1]), empty when absent.
  std::string command;
  /// Flag bindings without the leading "--".
  std::map<std::string, std::string> flags;
  /// Non-flag tokens found after the command (usually a usage error).
  std::vector<std::string> positional;

  bool HasFlag(const std::string& key) const {
    return flags.find(key) != flags.end();
  }

  /// The flag's value, or nullopt when unset.
  std::optional<std::string> GetFlag(const std::string& key) const;

  /// The flag's value, or `fallback` when unset.
  std::string GetFlagOr(const std::string& key, std::string fallback) const;
};

/// Parses `argv[1..argc)` into a CommandLine. Never fails: validation is the
/// caller's job (see RequireFlags / AllowFlags).
CommandLine ParseCommandLine(int argc, const char* const* argv);

/// InvalidArgument naming every flag of `required` missing from `cmd`,
/// Ok when all are present.
Status RequireFlags(const CommandLine& cmd,
                    const std::vector<std::string>& required);

/// InvalidArgument naming the first flag of `cmd` not in `allowed`
/// (catches typos like --dataest), Ok otherwise.
Status AllowFlags(const CommandLine& cmd,
                  const std::vector<std::string>& allowed);

/// Parses `text` as a bare decimal integer in [min, max]: no sign, space or
/// suffix. Anything else is InvalidArgument naming `what`, the text and the
/// range (the CLIs turn this into usage-on-stderr + exit 2).
Result<std::uint64_t> ParseDecimal(const std::string& text, std::uint64_t min,
                                   std::uint64_t max, const std::string& what);

/// A validated `HOST:PORT` pair as parsed from `--listen` / `--target`
/// flags. `port` 0 is legal and means "bind an ephemeral port".
struct HostPort {
  std::string host;
  std::uint16_t port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }
};

/// Parses `spec` of the form `HOST:PORT` into a HostPort. The host part must
/// be non-empty; the port must be a bare decimal in [0, 65535]. A missing
/// colon, empty host, or malformed/out-of-range port is InvalidArgument with
/// a message naming the offending piece (the CLIs turn this into
/// usage-on-stderr + exit 2).
Result<HostPort> ParseHostPort(const std::string& spec);

}  // namespace rlplanner::util

#endif  // RLPLANNER_UTIL_FLAGS_H_
