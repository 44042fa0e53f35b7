#include "robust/robust.hpp"

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <mutex>
#include <thread>

#include "obs/chrome_trace.hpp"
#include "obs/events.hpp"

namespace compsyn::robust {
namespace {

// The process-default slot, shared by every thread that never binds one.
// Leaked-static style is unnecessary: Slot is trivially destructible.
Slot g_default_slot;

// The calling thread's bound slot (nullptr = use the default). Serve lanes
// bind their private slot around the job loop.
thread_local Slot* t_slot = nullptr;

// Signal cancellation is process-wide: SIGINT/SIGTERM must stop every
// lane, so the handler publishes here and every slot observes it. 0 =
// none; otherwise the StopReason value (always Signal in practice).
std::atomic<int> g_signal_reason{0};
std::atomic<int> g_signal_signal{0};

extern "C" void robust_signal_handler(int sig) {
  request_cancel(StopReason::Signal, sig);
}

}  // namespace

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::Complete: return "ok";
    case RunStatus::Degraded: return "degraded";
    case RunStatus::Interrupted: return "interrupted";
    case RunStatus::Error: return "error";
  }
  return "?";
}

std::optional<RunStatus> parse_run_status(std::string_view s) {
  for (RunStatus r : {RunStatus::Complete, RunStatus::Degraded,
                      RunStatus::Interrupted, RunStatus::Error}) {
    if (s == to_string(r)) return r;
  }
  return std::nullopt;
}

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::None: return "none";
    case StopReason::Budget: return "budget";
    case StopReason::Deadline: return "deadline";
    case StopReason::Signal: return "signal";
    case StopReason::Injected: return "injected";
  }
  return "?";
}

Slot& default_slot() { return g_default_slot; }

Slot& current_slot() { return t_slot != nullptr ? *t_slot : g_default_slot; }

SlotBind::SlotBind(Slot& s) : prev_(t_slot) { t_slot = &s; }

SlotBind::~SlotBind() { t_slot = prev_; }

BudgetScope::BudgetScope(Budget& b) : slot_(&current_slot()) {
  Budget* expected = nullptr;
  const bool ok = slot_->budget.compare_exchange_strong(expected, &b);
  assert(ok && "nested BudgetScope is not supported");
  (void)ok;
}

BudgetScope::~BudgetScope() { slot_->budget.store(nullptr); }

void charge(std::uint64_t n) {
  if (Budget* b = current_slot().budget.load(std::memory_order_relaxed)) {
    b->charge(n);
  }
}

std::uint64_t ticks_consumed() {
  Budget* b = current_slot().budget.load(std::memory_order_relaxed);
  return b ? b->ticks() : 0;
}

bool budget_exhausted() {
  Budget* b = current_slot().budget.load(std::memory_order_relaxed);
  return b != nullptr && b->exhausted();
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool budget_installed() {
  return current_slot().budget.load(std::memory_order_relaxed) != nullptr;
}

void request_cancel_on(Slot& s, StopReason reason, int signal) noexcept {
  if (reason == StopReason::Signal) {
    int expected = 0;
    if (g_signal_reason.compare_exchange_strong(expected,
                                                static_cast<int>(reason))) {
      g_signal_signal.store(signal, std::memory_order_relaxed);
    }
    return;
  }
  int expected = 0;
  if (s.cancel_reason.compare_exchange_strong(expected,
                                              static_cast<int>(reason))) {
    s.cancel_signal.store(signal, std::memory_order_relaxed);
  }
}

void request_cancel(StopReason reason, int signal) noexcept {
  request_cancel_on(current_slot(), reason, signal);
}

void clear_cancel() noexcept {
  clear_slot_cancel(current_slot());
  g_signal_reason.store(0);
  g_signal_signal.store(0);
}

void clear_slot_cancel(Slot& s) noexcept {
  s.cancel_reason.store(0);
  s.cancel_signal.store(0);
}

bool cancel_requested() noexcept {
  return current_slot().cancel_reason.load(std::memory_order_relaxed) != 0 ||
         g_signal_reason.load(std::memory_order_relaxed) != 0;
}

StopReason cancel_reason() noexcept {
  // A slot-local reason (budget/deadline/watchdog) takes precedence: it
  // was requested first from this slot's perspective, and the per-job
  // answer should name the per-job cause. The daemon maps a concurrent
  // signal at the process level regardless.
  const int local =
      current_slot().cancel_reason.load(std::memory_order_relaxed);
  if (local != 0) return static_cast<StopReason>(local);
  return static_cast<StopReason>(
      g_signal_reason.load(std::memory_order_relaxed));
}

int cancel_signal() noexcept {
  const int local =
      current_slot().cancel_reason.load(std::memory_order_relaxed);
  if (local != 0) {
    return current_slot().cancel_signal.load(std::memory_order_relaxed);
  }
  return g_signal_signal.load(std::memory_order_relaxed);
}

StopReason stop_reason() {
  if (cancel_requested()) return cancel_reason();
  Budget* b = current_slot().budget.load(std::memory_order_relaxed);
  if (b == nullptr || !b->exhausted()) return StopReason::None;
  // The run's first observation of the trip gets a telemetry milestone.
  // Emitted here -- a decision point -- rather than in charge(), which runs
  // in the hot path.
  if (b->first_trip()) {
    ChromeTrace::instant("budget.exhausted");
    EventLog::milestone("budget.exhausted");
  }
  return b->reason();
}

void install_signal_handlers() {
  std::signal(SIGINT, robust_signal_handler);
  std::signal(SIGTERM, robust_signal_handler);
}

struct DeadlineWatchdog::Impl {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  Slot* slot = nullptr;  // slot of the constructing thread
  std::thread thread;
};

DeadlineWatchdog::DeadlineWatchdog(double seconds) {
  if (seconds <= 0.0) return;
  impl_ = new Impl();
  // The watchdog thread has no binding of its own; fire on the slot of
  // whoever armed the deadline so only that lane's job is interrupted.
  impl_->slot = &current_slot();
  impl_->thread = std::thread([impl = impl_, seconds] {
    std::unique_lock<std::mutex> lock(impl->mu);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    if (!impl->cv.wait_until(lock, deadline, [&] { return impl->stop; })) {
      request_cancel_on(*impl->slot, StopReason::Deadline);
    }
  });
}

DeadlineWatchdog::~DeadlineWatchdog() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
  delete impl_;
}

}  // namespace compsyn::robust
