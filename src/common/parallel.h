// Shared intra-node parallel runtime: per-caller worker teams feeding every
// hot loop in the repo (GEMM tiles, im2col, elementwise ops, optimizer
// updates, fusion-buffer pack/unpack, parallel CSV parsing).
//
// Design goals, in order:
//
//  1. Determinism. parallel_for partitions [begin, end) into contiguous
//     chunks computed only from (range, grain, thread count) — never from
//     scheduling order — and parallel_reduce combines per-chunk partials in
//     ascending chunk index. For a fixed CANDLE_NUM_THREADS the result of
//     every parallel region is bit-identical run to run, which is what lets
//     the golden tests and the TSan preset gate this code.
//
//  2. Safety. Exceptions thrown by chunk bodies are captured and the
//     lowest-indexed one is rethrown on the calling thread after the region
//     completes. Nested parallel regions (a chunk body calling parallel_for
//     again, directly or through gemm) run inline on the current thread, so
//     a team can never deadlock on itself.
//
//  3. One team per caller. The width is per calling thread: a thread that
//     opens a top-level region runs chunk 0 itself and hands the rest to its
//     own team of width - 1 workers, so concurrent callers (the
//     rank-per-thread comm tests, the ranks of comm::World::run, serving
//     dispatchers) compute at the same time instead of taking turns. Total
//     compute threads are therefore callers x width. A thread leases an idle
//     team from a process-wide registry at its first top-level region and
//     returns it when the thread exits, so the next thread — say the ranks
//     of the next World::run — reuses the same workers: nothing is spawned
//     per run. The registry only grows when every existing team is leased,
//     which bounds live workers by
//
//         (peak number of live threads holding a team at once) x (width - 1)
//
//     where a thread holds a team from its first top-level region until it
//     exits. `CANDLE_NUM_THREADS=1` (or set_num_threads(1)) disables
//     threading entirely — every region runs inline and never touches a
//     team, reproducing the pre-pool serial behavior exactly.
//
// Thread count resolution on first use: CANDLE_NUM_THREADS if set and
// valid, else std::thread::hardware_concurrency(). Benches expose the same
// knob as a --threads CLI flag via set_num_threads.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace candle::parallel {

/// Chunk body: processes the half-open index range [chunk_begin, chunk_end).
using ChunkFn = std::function<void(std::size_t, std::size_t)>;

/// Configured parallel width per calling thread (caller + its workers),
/// >= 1. First call resolves it from CANDLE_NUM_THREADS /
/// hardware_concurrency.
std::size_t num_threads();

/// Sets the width of every caller's next top-level region to `n` (n == 1
/// disables threading). The width is one process-wide value: a call from
/// any thread applies to all threads, and each team resizes at its own next
/// region; regions already running finish at their old width. Throws
/// InvalidArgument for n == 0.
void set_num_threads(std::size_t n);

/// Runs fn over [begin, end) split into contiguous chunks of at least
/// `grain` indices (grain >= 1), at most one chunk per thread. The chunk
/// boundaries depend only on (end - begin, grain, num_threads()). Blocks
/// until every chunk finished; rethrows the lowest-chunk-index exception.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const ChunkFn& fn);

namespace detail {
/// Deterministic chunk table for [0, n): at most `threads` chunks of at
/// least `grain` indices, sizes differing by at most one, in index order.
/// Exposed for the partitioning unit tests.
std::vector<std::pair<std::size_t, std::size_t>> partition(
    std::size_t n, std::size_t grain, std::size_t threads);

/// Parses a CANDLE_NUM_THREADS-style value: returns the parsed count, or
/// `fallback` when `text` is null, empty, non-numeric, or zero.
std::size_t parse_thread_count(const char* text, std::size_t fallback);

/// Teams the registry has created so far (leased plus idle). Never
/// shrinks; exposed so tests can check that teams are reused.
std::size_t team_count();
}  // namespace detail

/// Deterministic map-reduce: partitions [begin, end) like parallel_for,
/// evaluates `map(chunk_begin, chunk_end)` per chunk, and folds the chunk
/// partials into `init` with `combine` in ascending chunk order — the
/// float result is reproducible for a fixed thread count.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T init, const MapFn& map, const CombineFn& combine) {
  if (begin >= end) return init;
  const auto chunks = detail::partition(end - begin, grain, num_threads());
  std::vector<T> partials(chunks.size(), init);
  parallel_for(0, chunks.size(), 1,
               [&](std::size_t c0, std::size_t c1) {
                 for (std::size_t c = c0; c < c1; ++c)
                   partials[c] = map(begin + chunks[c].first,
                                     begin + chunks[c].second);
               });
  T acc = init;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

}  // namespace candle::parallel
