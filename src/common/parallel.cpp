#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/thread_annotations.h"

namespace candle::parallel {
namespace {

using ChunkTable = std::vector<std::pair<std::size_t, std::size_t>>;

// Set while the current thread is inside a parallel region — on a team
// worker for the whole dispatch, on the calling thread while it executes
// its own chunk. Any parallel_for seen with this flag runs inline, which
// makes nested regions (gemm inside a parallelized layer loop) safe.
thread_local bool tl_in_parallel = false;

/// Width of every caller's next top-level region; 0 until first resolved.
std::atomic<std::size_t> g_width{0};

std::size_t default_width() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return detail::parse_thread_count(std::getenv("CANDLE_NUM_THREADS"),
                                    hw > 0 ? hw : 1);
}

/// One caller's workers. The leasing thread is thread 0 and the team owns
/// threads 1..width-1. Only the leasing thread dispatches, so regions need
/// no gate: workers_, stride_ and the shape of errors_ change only on that
/// thread between regions, and the registry's mutex orders the hand-over
/// from one leaseholder to the next.
class Team {
 public:
  Team() = default;
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;
  ~Team() { stop_workers(); }

  /// Runs fn over every chunk of `chunks` (offset by `begin`) at `width`;
  /// chunk i is statically owned by thread (i % width). The caller
  /// participates as thread 0 and the call returns after every chunk
  /// completed, rethrowing the exception of the lowest-indexed failing
  /// chunk. Resizes the team first when the width changed.
  void run(std::size_t width, std::size_t begin, const ChunkTable& chunks,
           const ChunkFn& fn) {
    if (workers_.size() + 1 != width) {
      stop_workers();
      spawn_workers(width);
    }
    errors_.assign(chunks.size(), nullptr);
    const Region region{begin, &chunks, &fn};
    {
      MutexLock lock(mutex_);
      region_ = region;
      pending_ = workers_.size();
      ++generation_;
    }
    wake_.notify_all();
    run_chunks(0, region);
    {
      MutexLock lock(mutex_);
      done_.wait(mutex_, [this]() CANDLE_REQUIRES(mutex_) {
        return pending_ == 0;
      });
      region_ = Region{};
    }
    for (std::exception_ptr& err : errors_)
      if (err) std::rethrow_exception(err);
  }

 private:
  /// The region in flight, as the workers see it.
  struct Region {
    std::size_t begin = 0;
    const ChunkTable* chunks = nullptr;
    const ChunkFn* fn = nullptr;
  };

  void spawn_workers(std::size_t n) {
    // Written only while no worker exists (before the spawns below, after
    // the joins in stop_workers), so workers can read it lock-free.
    stride_ = n;
    // Workers must start at the *current* generation: it keeps counting
    // across resizes, and a fresh worker that compared against 0 would
    // treat the previous region's bump as a dispatch and run a null fn.
    std::uint64_t gen0 = 0;
    {
      MutexLock lock(mutex_);
      gen0 = generation_;
    }
    workers_.reserve(n - 1);
    for (std::size_t id = 1; id < n; ++id)
      workers_.emplace_back([this, id, gen0] { worker_main(id, gen0); });
  }

  void stop_workers() {
    if (workers_.empty()) return;
    {
      MutexLock lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    MutexLock lock(mutex_);
    stopping_ = false;
  }

  /// Executes the chunks this thread owns: id, id + width, id + 2*width...
  /// The static stride assignment keeps ownership deterministic, though
  /// determinism of results only needs the chunk *boundaries* fixed.
  void run_chunks(std::size_t id, const Region& region) {
    const std::size_t stride = stride_;
    const ChunkTable& chunks = *region.chunks;
    tl_in_parallel = true;
    for (std::size_t c = id; c < chunks.size(); c += stride) {
      try {
        (*region.fn)(region.begin + chunks[c].first,
                     region.begin + chunks[c].second);
      } catch (...) {
        errors_[c] = std::current_exception();
      }
    }
    tl_in_parallel = false;
  }

  void worker_main(std::size_t id, std::uint64_t seen) {
    while (true) {
      Region region;
      {
        MutexLock lock(mutex_);
        wake_.wait(mutex_, [&]() CANDLE_REQUIRES(mutex_) {
          return stopping_ || generation_ != seen;
        });
        if (stopping_) return;
        seen = generation_;
        region = region_;
      }
      run_chunks(id, region);
      {
        MutexLock lock(mutex_);
        --pending_;
        if (pending_ == 0) done_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  /// Per-chunk exceptions; distinct chunks write distinct slots, and the
  /// vector is only reshaped between regions. Not lock-protected by design.
  std::vector<std::exception_ptr> errors_;
  /// Total thread count (workers + caller); see spawn_workers for why this
  /// is safe to read without a lock.
  std::size_t stride_ = 1;

  /// Dispatch state for the region in flight. Never held while a chunk
  /// body runs, so chunk bodies may take any lock their caller could.
  AnnotatedMutex mutex_{CANDLE_LOCK_LEVEL(lock_order::level::kParallelDispatch),
                        "parallel::Team::mutex_"};
  AnnotatedCondVar wake_;
  AnnotatedCondVar done_;
  Region region_ CANDLE_GUARDED_BY(mutex_);
  std::size_t pending_ CANDLE_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ CANDLE_GUARDED_BY(mutex_) = 0;
  bool stopping_ CANDLE_GUARDED_BY(mutex_) = false;
};

/// Process-wide set of teams. A thread leases one at its first top-level
/// region and gives it back when it exits; a new team is created only when
/// none is idle, so the registry holds as many teams as the peak number of
/// threads holding one at once.
class Registry {
 public:
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  Team* lease() {
    MutexLock lock(mutex_);
    if (!idle_.empty()) {
      Team* team = idle_.back();
      idle_.pop_back();
      return team;
    }
    teams_.push_back(std::make_unique<Team>());
    return teams_.back().get();
  }

  void give_back(Team* team) {
    MutexLock lock(mutex_);
    idle_.push_back(team);
  }

  std::size_t size() {
    MutexLock lock(mutex_);
    return teams_.size();
  }

 private:
  Registry() = default;

  ~Registry() {
    // Joins every team's workers outside the lock: the registry mutex is
    // never held together with a team's dispatch mutex.
    std::vector<std::unique_ptr<Team>> teams;
    {
      MutexLock lock(mutex_);
      teams.swap(teams_);
      idle_.clear();
    }
  }

  AnnotatedMutex mutex_{CANDLE_LOCK_LEVEL(lock_order::level::kParallelRegistry),
                        "parallel::Registry::mutex_"};
  std::vector<std::unique_ptr<Team>> teams_ CANDLE_GUARDED_BY(mutex_);
  std::vector<Team*> idle_ CANDLE_GUARDED_BY(mutex_);
};

/// The calling thread's team, leased on first use and given back when the
/// thread exits. Thread-local destructors complete before static ones, so
/// the main thread's lease returns before the registry is torn down.
class Lease {
 public:
  Lease() = default;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() {
    if (team_ != nullptr) Registry::instance().give_back(team_);
  }

  Team& team() {
    if (team_ == nullptr) team_ = Registry::instance().lease();
    return *team_;
  }

 private:
  Team* team_ = nullptr;
};

thread_local Lease tl_lease;

}  // namespace

namespace detail {

std::vector<std::pair<std::size_t, std::size_t>> partition(
    std::size_t n, std::size_t grain, std::size_t threads) {
  require(grain >= 1, "parallel_for: grain must be >= 1");
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (n == 0) return chunks;
  // Floor division: with count <= n / grain every chunk holds at least
  // `grain` indices (the single-chunk n < grain case is the only exception),
  // so dispatch overhead is always amortized over at least one grain.
  const std::size_t max_by_grain = n / grain;
  const std::size_t count =
      std::max<std::size_t>(1, std::min(threads, max_by_grain));
  chunks.reserve(count);
  // Sizes differ by at most one: the first (n % count) chunks get the
  // extra index, so the table is a pure function of (n, grain, threads).
  const std::size_t base = n / count;
  const std::size_t extra = n % count;
  std::size_t at = 0;
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    chunks.emplace_back(at, at + len);
    at += len;
  }
  return chunks;
}

std::size_t parse_thread_count(const char* text, std::size_t fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || v == 0) return fallback;
  return static_cast<std::size_t>(v);
}

std::size_t team_count() { return Registry::instance().size(); }

}  // namespace detail

std::size_t num_threads() {
  const std::size_t width = g_width.load();
  if (width != 0) return width;
  // First use: resolve the default unless set_num_threads got there first.
  std::size_t expected = 0;
  const std::size_t resolved = default_width();
  return g_width.compare_exchange_strong(expected, resolved) ? resolved
                                                             : expected;
}

void set_num_threads(std::size_t n) {
  require(n >= 1, "parallel::set_num_threads: thread count must be >= 1");
  g_width.store(n);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const ChunkFn& fn) {
  require(grain >= 1, "parallel_for: grain must be >= 1");
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Inline paths: nested region, width 1, or a range too small to split.
  // Running fn over the whole range reproduces serial behavior.
  if (tl_in_parallel || n <= grain) {
    fn(begin, end);
    return;
  }
  const std::size_t width = num_threads();
  if (width == 1) {
    fn(begin, end);
    return;
  }
  const auto chunks = detail::partition(n, grain, width);
  if (chunks.size() == 1) {
    fn(begin, end);
    return;
  }
  tl_lease.team().run(width, begin, chunks, fn);
}

}  // namespace candle::parallel
