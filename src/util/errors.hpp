// Error taxonomy shared across subsystems.
//
// InputError marks failures caused by the *input* (malformed .bench text,
// an unreadable file, inconsistent flag combinations discovered after
// parsing) as opposed to internal invariant violations. The top-level
// error boundary (robust/guard.hpp) maps UsageError to exit code 2,
// InputError to exit code 3 and everything else unexpected to exit code 4,
// so scripts can distinguish "fix your input" from "file a bug".
#pragma once

#include <stdexcept>
#include <string>

namespace compsyn {

struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A flag value that does not parse (exit code 2).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace compsyn
