#include "util/flags.h"

#include <algorithm>
#include <cstdlib>

namespace rlplanner::util {

std::optional<std::string> CommandLine::GetFlag(const std::string& key) const {
  const auto it = flags.find(key);
  if (it == flags.end()) return std::nullopt;
  return it->second;
}

std::string CommandLine::GetFlagOr(const std::string& key,
                                   std::string fallback) const {
  const auto it = flags.find(key);
  return it == flags.end() ? std::move(fallback) : it->second;
}

CommandLine ParseCommandLine(int argc, const char* const* argv) {
  CommandLine cmd;
  if (argc < 2) return cmd;
  cmd.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      cmd.positional.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      cmd.flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      cmd.flags[arg] = argv[++i];
    } else {
      cmd.flags[arg] = "1";  // boolean flag
    }
  }
  return cmd;
}

Status RequireFlags(const CommandLine& cmd,
                    const std::vector<std::string>& required) {
  std::string missing;
  for (const std::string& key : required) {
    if (cmd.HasFlag(key)) continue;
    if (!missing.empty()) missing += ", ";
    missing += "--" + key;
  }
  if (missing.empty()) return Status::Ok();
  return Status::InvalidArgument("missing required flag(s): " + missing);
}

Status AllowFlags(const CommandLine& cmd,
                  const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : cmd.flags) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  return Status::Ok();
}

Result<std::uint64_t> ParseDecimal(const std::string& text, std::uint64_t min,
                                   std::uint64_t max, const std::string& what) {
  std::string range = "[";
  range += std::to_string(min) + ", " + std::to_string(max) + "]";
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument(what + " '" + text +
                                   "' is not a decimal in " + range);
  }
  // 19 digits cannot overflow a u64; longer runs count as out of range.
  const std::uint64_t value =
      text.size() > 19 ? 0 : std::strtoull(text.c_str(), nullptr, 10);
  if (text.size() > 19 || value < min || value > max) {
    return Status::InvalidArgument(what + " " + text + " out of range " +
                                   range);
  }
  return value;
}

Result<HostPort> ParseHostPort(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("'" + spec +
                                   "' is not HOST:PORT (missing ':')");
  }
  HostPort result;
  result.host = spec.substr(0, colon);
  if (result.host.empty()) {
    return Status::InvalidArgument("'" + spec + "' has an empty host");
  }
  auto port = ParseDecimal(spec.substr(colon + 1), 0, 65535, "port");
  if (!port.ok()) return port.status();
  result.port = static_cast<std::uint16_t>(port.value());
  return result;
}

}  // namespace rlplanner::util
