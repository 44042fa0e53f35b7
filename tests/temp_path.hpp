// Scratch file names for the test suites. Every name carries the test
// process's pid, so two test runs on one host (two ctest invocations, or a
// suite run by hand next to ctest) never share a report, journal or daemon
// socket.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace compsyn {

/// testing::TempDir() + "compsyn_<pid>_<leaf>". Compute names in the test
/// process: a forked child has a different pid.
inline std::string test_temp_path(const std::string& leaf) {
  return testing::TempDir() + "compsyn_" + std::to_string(::getpid()) + "_" + leaf;
}

}  // namespace compsyn
