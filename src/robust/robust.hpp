// Deterministic budgets and cooperative cancellation.
//
// Two independent stop mechanisms with very different guarantees:
//
// * Budget — counts abstract work *ticks* (cones evaluated, SAT conflicts,
//   PODEM backtracks, fault-sim blocks). Engines charge ticks for work they
//   have COMPLETED and consult the budget only at commit points (between
//   roots in the resynthesis sweep, between faults in redundancy removal).
//   Because the work performed before each commit point is a pure function
//   of the input, the tick total observed at every decision point is too,
//   so `--budget=N` stops at the same place bit-for-bit on every run. The
//   budget never throws: engines notice `should_stop()` and wind down,
//   committing only fully-verified work.
//
// * Cancellation — an asynchronous flag set by a signal handler, the
//   deadline watchdog, or `request_cancel()`. It is checked at frequent
//   poll points (every cone in resynthesis, every node of a cut-database
//   build, solver iterations) and surfaces as a `CancelledError` thrown
//   from `poll_cancellation()`. Where the flag
//   happens to be observed depends on wall-clock timing, so cancellation is
//   documented non-deterministic; the contract is weaker but still strong:
//   the run winds down at the next poll point, commits nothing unverified,
//   and the flow reports `"status":"interrupted"`.
//
// Both mechanisms live in a *slot* -- a small bundle of lock-free atomics
// (installed budget, pending cancel reason/signal). Deep engine code still
// reaches them through free functions without threading a context object
// through every signature, but the functions route through the calling
// thread's *bound* slot: one-shot binaries never bind one and use the
// process-default slot (exactly the old process-global behaviour), while
// the serving daemon binds a private slot per job lane (SlotBind) so one
// lane's budget trip or per-job deadline can never stop a neighbour's job.
//
// Signals are the exception: SIGINT/SIGTERM must stop the whole process,
// not one lane, so a signal cancellation is recorded process-globally and
// observed by every slot. The handler touches only lock-free atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace compsyn::robust {

/// How a run ended, in rising severity: the worst of several runs is the
/// largest.
enum class RunStatus {
  Complete,     // ran to its natural fixpoint
  Degraded,     // budget tripped: best-so-far result, fully verified
  Interrupted,  // signal / deadline: wound down at a poll point
  Error,        // failed: bad input, a failed verification, an internal error
};

/// What triggered a stop (None while running normally).
enum class StopReason {
  None,
  Budget,    // deterministic tick budget exhausted
  Deadline,  // wall-clock watchdog fired (non-deterministic)
  Signal,    // SIGINT / SIGTERM
  Injected,  // fault-injection harness tripped the run
};

/// The one spelling of a status: "ok", "degraded", "interrupted", "error".
const char* to_string(RunStatus s);
const char* to_string(StopReason r);
/// The status to_string() spells `s` as; nullopt for any other text.
std::optional<RunStatus> parse_run_status(std::string_view s);

/// The run status a stop reason maps to: budget-style stops degrade the
/// run (deterministic best-so-far), asynchronous ones interrupt it.
inline RunStatus run_status_for(StopReason r) {
  switch (r) {
    case StopReason::Budget:
    case StopReason::Injected:
      return RunStatus::Degraded;
    case StopReason::Signal:
    case StopReason::Deadline:
      return RunStatus::Interrupted;
    case StopReason::None:
      break;
  }
  return RunStatus::Complete;
}

/// Counts work ticks against an optional limit. `limit == 0` means
/// unlimited (counting still happens so reports can show ticks consumed).
/// The *decision* to stop is only taken at commit points. `reason` names
/// the limit: the user's budget, or a trip the fault plan scripted.
class Budget {
 public:
  explicit Budget(std::uint64_t limit = 0, std::uint64_t consumed = 0,
                  StopReason reason = StopReason::Budget)
      : ticks_(consumed), limit_(limit), reason_(reason) {}

  void charge(std::uint64_t n) {
    ticks_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  std::uint64_t limit() const { return limit_; }
  bool exhausted() const { return limit_ != 0 && ticks() >= limit_; }
  StopReason reason() const { return reason_; }
  /// True the first time only: the run's one budget.exhausted milestone.
  bool first_trip() {
    return !tripped_.exchange(true, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ticks_;
  std::uint64_t limit_;
  StopReason reason_;
  std::atomic<bool> tripped_{false};
};

/// One isolation unit of robustness state: the installed budget and any
/// pending (non-signal) cancellation. The process has a default slot that
/// unbound threads share; a serving lane owns a private one. All members
/// are lock-free atomics -- reads are wait-free from lanes and handlers.
struct Slot {
  std::atomic<Budget*> budget{nullptr};
  std::atomic<int> cancel_reason{0};  // 0 = none, else StopReason value
  std::atomic<int> cancel_signal{0};
};

/// The slot unbound threads use (one-shot binaries, tests, the listener).
Slot& default_slot();

/// The calling thread's slot: the bound one, else default_slot().
Slot& current_slot();

/// Binds `s` as the calling thread's slot for a scope. Used by serving
/// lanes (around their job loop). Nests by restoration.
class SlotBind {
 public:
  explicit SlotBind(Slot& s);
  ~SlotBind();
  SlotBind(const SlotBind&) = delete;
  SlotBind& operator=(const SlotBind&) = delete;

 private:
  Slot* prev_;
};

/// Installs `b` as the current slot's budget for a scope. Nesting is not
/// supported (the inner scope would silently shadow the outer charge
/// stream); the constructor asserts the slot has none installed.
class BudgetScope {
 public:
  explicit BudgetScope(Budget& b);
  ~BudgetScope();
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  Slot* slot_;  // the slot the budget was installed into
};

/// Charges `n` ticks to the installed budget; no-op when none is installed.
void charge(std::uint64_t n = 1);
/// Ticks consumed by the installed budget (0 when none is installed).
std::uint64_t ticks_consumed();
/// True when a budget is installed and its limit is reached.
bool budget_exhausted();

/// FNV-1a 64-bit hash: the integrity guard of checkpoints and the serve
/// WAL, and a cheap key hash (not cryptographic).
std::uint64_t fnv1a64(std::string_view data);
/// True when a BudgetScope is active.
bool budget_installed();

/// Requests cooperative cancellation. First caller wins; later requests
/// (e.g. a second Ctrl-C while winding down) keep the original reason.
/// Signal cancels are recorded process-globally (every slot observes
/// them); all other reasons land on the calling thread's slot.
/// Async-signal-safe: touches only lock-free atomics.
void request_cancel(StopReason reason, int signal = 0) noexcept;
/// Targets a specific slot (daemon watchdog cancelling one lane's job).
/// A Signal reason is still broadcast process-globally.
void request_cancel_on(Slot& s, StopReason reason, int signal = 0) noexcept;
/// Clears any pending cancellation on the current slot AND the global
/// signal broadcast (used between test scenarios and one-shot retries).
void clear_cancel() noexcept;
/// Clears only `s`'s pending cancellation, leaving a process-wide signal
/// broadcast intact. Lanes use this between jobs so a concurrent SIGTERM
/// can never be raced away.
void clear_slot_cancel(Slot& s) noexcept;
/// True once request_cancel has been called.
bool cancel_requested() noexcept;
/// Reason of the pending cancellation (None if none).
StopReason cancel_reason() noexcept;
/// Signal number recorded with a StopReason::Signal cancel (0 otherwise).
int cancel_signal() noexcept;

/// Serial-point check: budget exhausted OR cancellation pending. Engines
/// consult this where winding down is deterministic-safe.
inline bool should_stop() {
  return cancel_requested() || budget_exhausted();
}

/// The reason should_stop() fired: the cancel reason if one is pending,
/// else the tripped budget's reason, else None.
StopReason stop_reason();

/// Thrown from poll points when cancellation is pending. Engines either
/// let it propagate to the top-level guard (flow stages) or catch it and
/// return a degraded-but-valid result (solver, PODEM).
struct CancelledError : std::runtime_error {
  explicit CancelledError(StopReason r)
      : std::runtime_error("run cancelled"), reason(r) {}
  StopReason reason;
};

/// Poll point: throws CancelledError when cancellation is pending. Budget
/// exhaustion never throws here — the budget stops runs only at serial
/// decision points, keeping its behaviour deterministic.
inline void poll_cancellation() {
  if (cancel_requested()) throw CancelledError(cancel_reason());
}

/// Installs SIGINT/SIGTERM handlers that call
/// `request_cancel(StopReason::Signal, sig)`. Idempotent.
void install_signal_handlers();

/// Wall-clock watchdog: requests cancellation (StopReason::Deadline) after
/// `seconds` of wall time unless destroyed first. Inert for seconds <= 0.
/// Deadlines are inherently non-deterministic; see the header comment.
class DeadlineWatchdog {
 public:
  explicit DeadlineWatchdog(double seconds);
  ~DeadlineWatchdog();
  DeadlineWatchdog(const DeadlineWatchdog&) = delete;
  DeadlineWatchdog& operator=(const DeadlineWatchdog&) = delete;

 private:
  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace compsyn::robust
