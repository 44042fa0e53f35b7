#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <string_view>

#include "util/errors.hpp"

namespace compsyn {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    std::string name(eq == std::string_view::npos ? arg : arg.substr(0, eq));
    std::string value(eq == std::string_view::npos ? std::string_view("1")
                                                   : arg.substr(eq + 1));
    flags_.insert_or_assign(std::move(name), std::move(value));
  }
}

bool Cli::has(const std::string& name) const {
  queried_.insert(name);
  return flags_.count(name) != 0;
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  queried_.insert(name);
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

namespace {

/// Parses all of `text` with `parse` (a strto* call) and checks the result
/// with `ok`, or throws UsageError naming the flag and what it expected.
template <typename Parse, typename Ok>
auto parse_flag(const std::string& name, const std::string& text,
                const char* what, Parse parse, Ok ok) {
  errno = 0;
  char* end = nullptr;
  const auto v = parse(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE || !ok(v)) {
    throw UsageError("--" + name + "=" + text + ": expected " + what);
  }
  return v;
}

}  // namespace

std::uint64_t Cli::get_u64(const std::string& name, std::uint64_t def) const {
  queried_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  // strtoull would wrap a sign around; an unsigned flag takes none.
  const bool signed_text = it->second.find_first_of("+-") == 0;
  return parse_flag(
      name, it->second, "an unsigned integer",
      [](const char* s, char** end) { return std::strtoull(s, end, 0); },
      [&](unsigned long long) { return !signed_text; });
}

int Cli::get_int(const std::string& name, int def) const {
  queried_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return static_cast<int>(parse_flag(
      name, it->second, "an integer",
      [](const char* s, char** end) { return std::strtol(s, end, 10); },
      [](long v) {
        return v >= std::numeric_limits<int>::min() &&
               v <= std::numeric_limits<int>::max();
      }));
}

double Cli::get_double(const std::string& name, double def) const {
  queried_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return parse_flag(
      name, it->second, "a number",
      [](const char* s, char** end) { return std::strtod(s, end); },
      [](double v) { return std::isfinite(v); });
}

std::vector<std::string> Cli::unrecognized() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    if (queried_.count(name) == 0) out.push_back(name);
  }
  return out;
}

std::size_t Cli::warn_unrecognized(std::ostream& os) const {
  const auto unknown = unrecognized();
  for (const std::string& name : unknown) {
    os << "warning: unrecognized flag --" << name << " (ignored)\n";
  }
  return unknown.size();
}

}  // namespace compsyn
