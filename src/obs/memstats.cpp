#include "obs/memstats.hpp"

#if COMPSYN_TRACE

#include <atomic>
#include <cstdlib>
#include <new>

#include <sys/resource.h>

// The counting allocator and sanitizer allocators both want to own
// operator new; the sanitizer wins (its interposition carries the poisoning
// and leak bookkeeping the CI sanitizer jobs depend on).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define COMPSYN_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define COMPSYN_ALLOC_HOOK 0
#else
#define COMPSYN_ALLOC_HOOK 1
#endif
#else
#define COMPSYN_ALLOC_HOOK 1
#endif

namespace compsyn {
namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

}  // namespace

MemSnapshot mem_snapshot() {
  MemSnapshot s;
  s.alloc_count = g_alloc_count.load(std::memory_order_relaxed);
  s.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t peak_rss_bytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

namespace memstats_detail {

void* counted_alloc(std::size_t n) {
  // Phase spans are the only consumer, and they record at extended only.
  if (obs_level() == ObsLevel::extended) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  // operator new must never return nullptr for n == 0.
  return std::malloc(n != 0 ? n : 1);
}

}  // namespace memstats_detail
}  // namespace compsyn

#if COMPSYN_ALLOC_HOOK

void* operator new(std::size_t n) {
  void* p = compsyn::memstats_detail::counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) {
  void* p = compsyn::memstats_detail::counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return compsyn::memstats_detail::counted_alloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return compsyn::memstats_detail::counted_alloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // COMPSYN_ALLOC_HOOK

#endif  // COMPSYN_TRACE
