#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lr::support {

/// Tiny command-line option parser for the example binaries.
///
/// Understands "--key=value", "--key value" and bare "--flag" arguments;
/// everything else is collected as a positional argument. The examples use
/// this to select instance sizes and toggles without pulling in a real
/// argument-parsing dependency.
class CommandLine {
 public:
  CommandLine(int argc, const char* const* argv);

  /// True when "--name" (with or without a value) was present.
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of --name, or fallback when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;

  /// Integer value of --name, or fallback when absent or unparsable.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Positional (non-option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Names of every "--name[=value]" option that was passed (sorted,
  /// deduplicated). Lets binaries with a declared flag set reject typos
  /// instead of silently ignoring them.
  [[nodiscard]] std::vector<std::string> option_names() const;

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Declaration of one "--flag" a binary accepts: the machine-readable side
/// of its --help text. Binaries keep a table of these so that help output,
/// unknown-flag rejection and the README flag table can be checked against
/// each other (see tests/support/test_cli_flags.cpp).
struct FlagSpec {
  std::string name;   ///< without the leading "--"
  std::string value;  ///< placeholder ("N", "FILE", ...); empty for booleans
  std::string help;   ///< description; '\n' continues on an indented line
};

/// Renders specs as aligned "  --name=VALUE   help" lines (with embedded
/// newlines in `help` continued at the help column).
[[nodiscard]] std::string format_flag_help(const std::vector<FlagSpec>& specs);

/// The first option passed on `cli` that `specs` does not declare, or ""
/// when every option is known. Binaries reject typos with it instead of
/// silently ignoring them.
[[nodiscard]] std::string unknown_flag(const CommandLine& cli,
                                       const std::vector<FlagSpec>& specs);

}  // namespace lr::support
