// Minimal command-line flag parsing for the examples and bench harnesses.
// Supports --name=value and boolean --name forms (the separated
// "--name value" form is deliberately not supported: it is ambiguous with
// boolean flags followed by positionals).
//
// Every query (has/get/get_*) registers its flag name as recognised;
// warn_unrecognized() then reports any flag the user passed that no query
// ever asked about -- call it after all flags have been read (the bench
// harnesses do this from BenchRun::finish()).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace compsyn {

class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def = "") const;
  /// Numeric flags: `def` when the flag is absent. A value that is not
  /// wholly a number of the type (empty, trailing text, out of range, a
  /// sign on an unsigned flag, a non-finite double) throws UsageError.
  std::uint64_t get_u64(const std::string& name, std::uint64_t def) const;
  int get_int(const std::string& name, int def) const;
  double get_double(const std::string& name, double def) const;

  /// Non-flag positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// All parsed --name[=value] flags (value "1" for the bare boolean form).
  const std::map<std::string, std::string>& flags() const { return flags_; }

  /// Flags the user passed that were never queried, in sorted order.
  std::vector<std::string> unrecognized() const;

  /// Prints one "warning: unrecognized flag --x (ignored)" line per
  /// unrecognized flag. Returns the number of warnings emitted.
  std::size_t warn_unrecognized(std::ostream& os) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> queried_;
};

}  // namespace compsyn
