#include "robust/inject.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>

#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/strings.hpp"

namespace compsyn::robust {
namespace {

const FaultPlan* g_plan = nullptr;
std::atomic<std::uint64_t> g_sat_calls{0};
std::atomic<std::uint64_t> g_oracle_calls{0};
std::atomic<std::uint64_t> g_write_calls{0};
std::atomic<std::uint64_t> g_checkpoint_writes{0};
std::atomic<std::uint64_t> g_frames_sent{0};
std::atomic<std::uint64_t> g_accepts{0};
std::atomic<std::uint64_t> g_lane_starts{0};
std::atomic<std::uint64_t> g_wal_appends{0};

/// True when the 1-based ordinal of this event is scripted in `hits`.
bool fires(std::atomic<std::uint64_t>& counter,
           const std::vector<std::uint64_t>& hits) {
  if (hits.empty()) return false;
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return std::find(hits.begin(), hits.end(), n) != hits.end();
}

bool parse_count(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec,
                                          std::string* error) {
  FaultPlan plan;
  if (trim(spec).empty()) {
    if (error) *error = "empty inject spec";
    return std::nullopt;
  }
  for (const std::string& part : split(spec, ',')) {
    const std::string item(trim(part));
    if (item.empty()) {
      // An empty item is a typo ("sat:1,,halt:2"), not a request for
      // nothing; a chaos plan that silently loses events is worse than an
      // error.
      if (error) *error = "empty item in inject spec";
      return std::nullopt;
    }
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      if (error) *error = "inject spec '" + item + "' is missing ':N'";
      return std::nullopt;
    }
    const std::string kind(trim(item.substr(0, colon)));
    std::uint64_t n = 0;
    if (!parse_count(std::string(trim(item.substr(colon + 1))), &n) || n == 0) {
      if (error) {
        *error = "inject spec '" + item + "' needs a positive count";
      }
      return std::nullopt;
    }
    if (kind == "sat") plan.sat_failures.push_back(n);
    else if (kind == "oracle") plan.oracle_timeouts.push_back(n);
    else if (kind == "write") plan.write_failures.push_back(n);
    else if (kind == "halt") plan.halts.push_back(n);
    else if (kind == "frame") plan.frame_corruptions.push_back(n);
    else if (kind == "accept") plan.accept_failures.push_back(n);
    else if (kind == "lane") plan.lane_crashes.push_back(n);
    else if (kind == "wal") plan.wal_failures.push_back(n);
    else if (kind == "budget") plan.budget_trip = n;
    else {
      if (error) {
        *error = "unknown inject kind '" + kind +
                 "' (expected sat|oracle|write|budget|halt|frame|accept|"
                 "lane|wal)";
      }
      return std::nullopt;
    }
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::from_cli(const Cli& cli) {
  if (!cli.has("inject")) return std::nullopt;
  std::string err;
  std::optional<FaultPlan> plan = parse(cli.get("inject"), &err);
  if (!plan) throw UsageError("--inject=" + cli.get("inject") + ": " + err);
  return plan;
}

InjectScope::InjectScope(const FaultPlan& plan) {
  assert(g_plan == nullptr && "nested InjectScope is not supported");
  g_sat_calls.store(0);
  g_oracle_calls.store(0);
  g_write_calls.store(0);
  g_checkpoint_writes.store(0);
  g_frames_sent.store(0);
  g_accepts.store(0);
  g_lane_starts.store(0);
  g_wal_appends.store(0);
  g_plan = &plan;
}

InjectScope::~InjectScope() { g_plan = nullptr; }

bool inject_active() { return g_plan != nullptr; }

bool inject_sat_failure() {
  if (g_plan == nullptr) return false;
  return fires(g_sat_calls, g_plan->sat_failures);
}

bool inject_oracle_timeout() {
  if (g_plan == nullptr) return false;
  return fires(g_oracle_calls, g_plan->oracle_timeouts);
}

bool inject_write_failure() {
  if (g_plan == nullptr) return false;
  return fires(g_write_calls, g_plan->write_failures);
}

void inject_halt_after_checkpoint() {
  if (g_plan == nullptr) return;
  if (fires(g_checkpoint_writes, g_plan->halts)) std::_Exit(137);
}

std::uint64_t injected_budget_trip() {
  return g_plan ? g_plan->budget_trip : 0;
}

bool inject_frame_corruption() {
  if (g_plan == nullptr) return false;
  return fires(g_frames_sent, g_plan->frame_corruptions);
}

bool inject_accept_failure() {
  if (g_plan == nullptr) return false;
  return fires(g_accepts, g_plan->accept_failures);
}

bool inject_lane_crash() {
  if (g_plan == nullptr) return false;
  return fires(g_lane_starts, g_plan->lane_crashes);
}

bool inject_wal_failure() {
  if (g_plan == nullptr) return false;
  return fires(g_wal_appends, g_plan->wal_failures);
}

}  // namespace compsyn::robust
