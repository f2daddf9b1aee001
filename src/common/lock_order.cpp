#include "common/lock_order.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace candle::lock_order {
namespace {

struct Held {
  int level;
  const char* name;
};

// Per-thread stack of tracked locks, pushed in acquisition order. A fixed
// POD array rather than a vector: trivially constructible and destructible,
// so the tracker stays valid during static initialization and — critically —
// during thread/process teardown, where e.g. an exiting thread's parallel
// team lease still locks the registry mutex from a thread_local destructor.
constexpr std::size_t kMaxHeld = 32;
thread_local Held t_held[kMaxHeld];
thread_local std::size_t t_depth = 0;

std::atomic<std::size_t> g_violations{0};

// Handler state; guarded by a plain std::mutex (never an AnnotatedMutex —
// the validator must not recurse into itself).
// candle-analyze: allow(lock-level)
std::mutex g_handler_mutex;
ViolationHandler g_handler;  // empty => default print-and-abort

void default_handler(const std::string& diagnostic) {
  std::fprintf(stderr, "candle lock_order: %s\n", diagnostic.c_str());
  std::abort();
}

void report(const std::string& diagnostic) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  ViolationHandler handler;
  {
    std::lock_guard<std::mutex> lock(g_handler_mutex);
    handler = g_handler;
  }
  if (handler) {
    handler(diagnostic);
  } else {
    default_handler(diagnostic);
  }
}

}  // namespace

namespace detail {

std::atomic<int> g_state{-1};

int init_state() {
#if defined(CANDLE_ENABLE_LOCK_ORDER_CHECKS)
  int on = 1;
#else
  int on = 0;
#endif
  if (const char* env = std::getenv("CANDLE_LOCK_ORDER")) {
    if (env[0] == '0' && env[1] == '\0') on = 0;
    if (env[0] == '1' && env[1] == '\0') on = 1;
  }
  // Last writer wins on a first-use race; every writer computes the same
  // value, so the state is still deterministic.
  g_state.store(on, std::memory_order_relaxed);
  return on;
}

void acquire_slow(int lvl, const char* name) {
  if (t_depth > 0 && t_held[t_depth - 1].level <= lvl) {
    const Held& holding = t_held[t_depth - 1];
    report("acquiring '" + std::string(name) + "' (level " +
           std::to_string(lvl) + ") while holding '" + holding.name +
           "' (level " + std::to_string(holding.level) +
           "): lock levels must be strictly descending — see the lock table "
           "in EXPERIMENTS.md \"Static analysis\"");
  }
  // Track the lock even after a reported violation so unlock stays balanced.
  push_slow(lvl, name);
}

void push_slow(int lvl, const char* name) {
  if (t_depth < kMaxHeld) t_held[t_depth++] = Held{lvl, name};
  // A thread holding kMaxHeld tracked locks is itself a hierarchy bug; the
  // descending-level rule bounds depth by the level count, so saturating
  // (dropping the entry) cannot happen on a conforming execution.
}

void release_slow(int lvl) {
  // Remove the most recent entry at this level. Scoped MutexLock releases
  // are LIFO; a condvar wait unlocks the innermost lock. Unmatched levels
  // (validation enabled between acquire and release) are ignored.
  for (std::size_t i = t_depth; i > 0; --i) {
    if (t_held[i - 1].level == lvl) {
      for (std::size_t j = i - 1; j + 1 < t_depth; ++j)
        t_held[j] = t_held[j + 1];
      --t_depth;
      return;
    }
  }
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

void set_violation_handler(ViolationHandler handler) {
  std::lock_guard<std::mutex> lock(g_handler_mutex);
  g_handler = std::move(handler);
}

std::size_t violation_count() {
  return g_violations.load(std::memory_order_relaxed);
}

std::size_t held_count() { return t_depth; }

}  // namespace candle::lock_order
