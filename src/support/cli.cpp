#include "support/cli.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <string_view>

namespace lr::support {

CommandLine::CommandLine(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

bool CommandLine::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::string CommandLine::get(const std::string& name,
                             const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t CommandLine::get_int(const std::string& name,
                                  std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? value : fallback;
}

std::vector<std::string> CommandLine::option_names() const {
  std::vector<std::string> names;
  names.reserve(options_.size());
  for (const auto& [name, value] : options_) names.push_back(name);
  return names;  // options_ is an ordered map: already sorted and unique
}

std::string unknown_flag(const CommandLine& cli,
                         const std::vector<FlagSpec>& specs) {
  for (const std::string& name : cli.option_names()) {
    const bool known = std::any_of(
        specs.begin(), specs.end(),
        [&name](const FlagSpec& spec) { return spec.name == name; });
    if (!known) return name;
  }
  return "";
}

std::string format_flag_help(const std::vector<FlagSpec>& specs) {
  // Column where help text starts; wide enough for the longest flag in use
  // and stable so goldens do not churn when a flag is added.
  constexpr std::size_t kHelpColumn = 24;
  std::string out;
  for (const FlagSpec& spec : specs) {
    std::string head = "  --" + spec.name;
    if (!spec.value.empty()) head += "=" + spec.value;
    if (head.size() + 2 > kHelpColumn) {
      out += head + "\n" + std::string(kHelpColumn, ' ');
    } else {
      out += head + std::string(kHelpColumn - head.size(), ' ');
    }
    std::string_view help = spec.help;
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = help.find('\n', start);
      out += help.substr(start, nl == std::string_view::npos ? nl
                                                            : nl - start);
      out += "\n";
      if (nl == std::string_view::npos) break;
      out += std::string(kHelpColumn, ' ');
      start = nl + 1;
    }
  }
  return out;
}

}  // namespace lr::support
