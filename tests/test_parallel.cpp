// Tests for the shared intra-node runtime (common/parallel.*) and the
// threaded hot paths wired onto it: partitioning determinism, exception
// propagation, nested regions, per-caller teams (concurrency, reuse,
// isolation), and exact threaded-vs-serial equivalence
// for GEMM, Conv1D, the in-place ops, optimizer updates, and the parallel
// CSV reader. "Exact" means bit-identical buffers at a fixed thread count
// — the determinism contract the TSan CI job runs under
// CANDLE_NUM_THREADS=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "candle/models.h"
#include "comm/communicator.h"
#include "common/aligned.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "hvd/context.h"
#include "hvd/distributed_optimizer.h"
#include "hvd/fusion.h"
#include "io/csv_reader.h"
#include "io/synthetic.h"
#include "nn/dataset.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace candle {
namespace {

using parallel::parallel_for;
using parallel::parallel_reduce;
using parallel::set_num_threads;

/// Restores the ambient thread count when a test scope ends, so test order
/// never leaks a pool size into another test.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n)
      : saved_(parallel::num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  std::size_t saved_;
};

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (float& v : t.values()) v = static_cast<float>(rng.normal(0, 1));
  return t;
}

void expect_bit_identical(const Tensor& got, const Tensor& ref,
                          const char* what) {
  ASSERT_EQ(got.shape(), ref.shape()) << what;
  ASSERT_EQ(0, std::memcmp(got.data(), ref.data(),
                           got.numel() * sizeof(float)))
      << what << ": threaded result differs from serial";
}

// ---------------------------------------------------------------------------
// parallel_for basics
// ---------------------------------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadCountGuard guard(4);
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 1000u, 1001u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(1, hits[i].load()) << "n=" << n << " i=" << i;
  }
}

TEST(ParallelFor, HonorsNonZeroBegin) {
  ThreadCountGuard guard(4);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(37, 91, 5, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(i >= 37 && i < 91 ? 1 : 0, hits[i].load()) << i;
}

TEST(ParallelFor, GrainEdgeCases) {
  ThreadCountGuard guard(4);
  // grain exceeding the range -> one inline chunk spanning everything.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(0, 10, 100, [&](std::size_t b, std::size_t e) {
    chunks.emplace_back(b, e);
  });
  ASSERT_EQ(1u, chunks.size());
  EXPECT_EQ(0u, chunks[0].first);
  EXPECT_EQ(10u, chunks[0].second);
  // Empty range: the body must never run.
  parallel_for(5, 5, 1, [](std::size_t, std::size_t) { FAIL(); });
  parallel_for(7, 3, 1, [](std::size_t, std::size_t) { FAIL(); });
  // grain 0 is a caller bug.
  EXPECT_THROW(parallel_for(0, 4, 0, [](std::size_t, std::size_t) {}),
               InvalidArgument);
}

TEST(ParallelFor, PartitionIsDeterministicAndGrainBounded) {
  // The chunk table is a pure function of (n, grain, threads): contiguous,
  // complete, sizes within one of each other and never below grain (except
  // the single-chunk case).
  for (std::size_t n : {1u, 5u, 63u, 64u, 65u, 4096u}) {
    for (std::size_t grain : {1u, 3u, 64u}) {
      for (std::size_t threads : {1u, 2u, 4u, 7u}) {
        const auto a = parallel::detail::partition(n, grain, threads);
        const auto b = parallel::detail::partition(n, grain, threads);
        ASSERT_EQ(a, b);
        ASSERT_LE(a.size(), threads);
        std::size_t at = 0;
        for (const auto& [lo, hi] : a) {
          ASSERT_EQ(at, lo);
          ASSERT_LT(lo, hi);
          at = hi;
        }
        ASSERT_EQ(n, at);
        if (a.size() > 1) {
          for (const auto& [lo, hi] : a) ASSERT_GE(hi - lo, grain);
        }
      }
    }
  }
}

TEST(ParallelFor, NeverExceedsConfiguredConcurrency) {
  // Deflake guard: the pool must never run more than CANDLE_NUM_THREADS
  // chunk bodies at once — an over-wide pool shows up elsewhere only as
  // rare nondeterministic oversubscription flakes, so pin it down here
  // with a high-water mark over many short overlapping chunks.
  constexpr std::size_t kThreads = 4;
  ThreadCountGuard guard(kThreads);
  std::atomic<int> live{0};
  std::atomic<int> high_water{0};
  for (int round = 0; round < 8; ++round) {
    parallel_for(0, 4096, 1, [&](std::size_t b, std::size_t e) {
      const int now = live.fetch_add(1) + 1;
      int hw = high_water.load();
      while (now > hw && !high_water.compare_exchange_weak(hw, now)) {
      }
      volatile float sink = 0.0f;  // keep chunks alive long enough to overlap
      for (std::size_t i = b; i < e; ++i)
        sink = sink + static_cast<float>(i);
      live.fetch_sub(1);
    });
    ASSERT_EQ(0, live.load()) << "round " << round;
  }
  EXPECT_GE(high_water.load(), 1);
  EXPECT_LE(high_water.load(), static_cast<int>(kThreads));
}

TEST(ParallelFor, SingleThreadRunsInline) {
  ThreadCountGuard guard(1);
  const auto caller = std::this_thread::get_id();
  std::size_t calls = 0;
  parallel_for(0, 1000, 1, [&](std::size_t, std::size_t) {
    // With threading disabled the body runs once, on the calling thread.
    EXPECT_EQ(caller, std::this_thread::get_id());
    ++calls;
  });
  EXPECT_EQ(1u, calls);
}

TEST(ParallelFor, NestedRegionsRunInlineAndStayCorrect) {
  ThreadCountGuard guard(4);
  const std::size_t rows = 16, cols = 256;
  std::vector<int> cells(rows * cols, 0);
  parallel_for(0, rows, 1, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      // Inner region must not deadlock against the outer one.
      parallel_for(0, cols, 1, [&](std::size_t c0, std::size_t c1) {
        for (std::size_t c = c0; c < c1; ++c) cells[r * cols + c] += 1;
      });
    }
  });
  for (int v : cells) ASSERT_EQ(1, v);
}

TEST(ParallelFor, PropagatesExceptionAndPoolSurvives) {
  ThreadCountGuard guard(4);
  const auto boom = [](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      if (i == 97) throw std::runtime_error("chunk 97 failed");
  };
  EXPECT_THROW(parallel_for(0, 256, 1, boom), std::runtime_error);
  try {
    parallel_for(0, 256, 1, boom);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ("chunk 97 failed", e.what());
  }
  // The pool must stay usable after an exceptional region.
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 100, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(4950u, sum.load());
}

TEST(ParallelConfig, SetNumThreadsValidatesAndReports) {
  EXPECT_THROW(set_num_threads(0), InvalidArgument);
  ThreadCountGuard guard(3);
  EXPECT_EQ(3u, parallel::num_threads());
  set_num_threads(1);
  EXPECT_EQ(1u, parallel::num_threads());
}

TEST(ParallelConfig, EnvValueParsing) {
  using parallel::detail::parse_thread_count;
  EXPECT_EQ(5u, parse_thread_count(nullptr, 5));
  EXPECT_EQ(5u, parse_thread_count("", 5));
  EXPECT_EQ(4u, parse_thread_count("4", 5));
  EXPECT_EQ(1u, parse_thread_count("1", 5));
  EXPECT_EQ(5u, parse_thread_count("0", 5));      // zero -> fallback
  EXPECT_EQ(5u, parse_thread_count("four", 5));   // junk -> fallback
  EXPECT_EQ(5u, parse_thread_count("4x", 5));     // trailing junk
}

// ---------------------------------------------------------------------------
// parallel_reduce
// ---------------------------------------------------------------------------

TEST(ParallelReduce, MatchesSerialSumAndIsRepeatable) {
  ThreadCountGuard guard(4);
  Rng rng(7);
  std::vector<float> xs(100001);
  for (float& v : xs) v = static_cast<float>(rng.normal(0, 1));

  const auto map = [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += xs[i];
    return acc;
  };
  const auto combine = [](double a, double b) { return a + b; };
  const double first =
      parallel_reduce(std::size_t{0}, xs.size(), std::size_t{1024}, 0.0,
                      map, combine);
  // Fixed thread count -> fixed chunk table -> bit-identical result.
  for (int run = 0; run < 3; ++run)
    ASSERT_EQ(first, parallel_reduce(std::size_t{0}, xs.size(),
                                     std::size_t{1024}, 0.0, map, combine));
  // And it is the true sum within fp tolerance of the serial fold.
  const double serial = std::accumulate(xs.begin(), xs.end(), 0.0);
  EXPECT_NEAR(serial, first, 1e-6 * std::abs(serial) + 1e-9);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadCountGuard guard(4);
  const int got = parallel_reduce(
      std::size_t{10}, std::size_t{10}, std::size_t{1}, 42,
      [](std::size_t, std::size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(42, got);
}

// ---------------------------------------------------------------------------
// Per-caller teams
// ---------------------------------------------------------------------------

/// Threads of this process, from /proc/self/task; 0 when unavailable.
std::size_t live_thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  std::size_t n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) ++n;
  return n;
}

/// Spins until `pred` holds or `limit` passes; returns pred's final value.
/// A bounded wait makes a missing concurrency a failure, not a hang.
template <typename Pred>
bool wait_for(Pred pred, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    std::this_thread::yield();
  }
  return true;
}

TEST(ParallelTeams, ConcurrentCallersRunRegionsAtTheSameTime) {
  // Two callers at width 2: each region has 2 chunks, and every chunk body
  // waits until 4 bodies are live. That only completes when both regions
  // run at once; a process-wide pool that takes regions one at a time
  // tops out at 2 live bodies and fails here after the bounded wait.
  ThreadCountGuard guard(2);
  std::atomic<int> live{0};
  std::atomic<int> met{0};
  const auto body = [&](std::size_t, std::size_t) {
    live.fetch_add(1);
    if (wait_for([&] { return live.load() >= 4; },
                 std::chrono::seconds(20)))
      met.fetch_add(1);
  };
  std::thread a([&] { parallel_for(0, 2, 1, body); });
  std::thread b([&] { parallel_for(0, 2, 1, body); });
  a.join();
  b.join();
  EXPECT_EQ(4, live.load());
  EXPECT_EQ(4, met.load()) << "regions of different callers were serialized";
}

TEST(ParallelTeams, ShortLivedCallersReuseTeams) {
  // 50 caller threads in sequence, as successive comm::World::run calls
  // start them: each leases the team its predecessor gave back, so no
  // worker is spawned per caller and the thread count stays flat.
  constexpr std::size_t kWidth = 4;
  constexpr std::size_t kCallers = 50;
  ThreadCountGuard guard(kWidth);
  // Counts threads that run a chunk body for the first time in their life.
  std::atomic<std::size_t> fresh_threads{0};
  std::atomic<std::size_t> peak_threads{0};
  const auto region = [&] {
    std::atomic<std::size_t> sum{0};
    parallel_for(0, 64, 1, [&](std::size_t b, std::size_t e) {
      thread_local bool seen = false;
      if (!seen) fresh_threads.fetch_add(1);
      seen = true;
      if (b == 0) {  // the caller's own chunk
        const std::size_t now = live_thread_count();
        std::size_t peak = peak_threads.load();
        while (now > peak && !peak_threads.compare_exchange_weak(peak, now)) {
        }
      }
      for (std::size_t i = b; i < e; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(2016u, sum.load());
  };
  // Warm-up caller: afterwards an idle team of this width exists.
  std::thread(region).join();
  const std::size_t teams = parallel::detail::team_count();
  const std::size_t baseline = live_thread_count();
  fresh_threads.store(0);
  peak_threads.store(0);
  for (std::size_t i = 0; i < kCallers; ++i) std::thread(region).join();

  EXPECT_EQ(teams, parallel::detail::team_count());
  // Every caller is a new thread; the workers are the warm-up's.
  EXPECT_EQ(kCallers, fresh_threads.load());
  if (baseline > 0) {
    // Inside a region: the baseline plus the caller itself, plus one for
    // a predecessor that join() already returned from but the kernel has
    // not yet unlisted. Spawning a team per caller would add kWidth - 1.
    EXPECT_LE(peak_threads.load(), baseline + 2);
    EXPECT_TRUE(wait_for([&] { return live_thread_count() <= baseline; },
                         std::chrono::seconds(5)));
  }
}

TEST(ParallelTeams, RepeatedWorldRunsStayWithinTheRegistryBound) {
  // Successive World::run calls at width > 1: the ranks of each run lease
  // the teams the previous run's ranks gave back, so the registry does not
  // grow and the process never holds more than those teams' workers.
  constexpr std::size_t kWidth = 3;
  constexpr std::size_t kRanks = 2;
  ThreadCountGuard guard(kWidth);
  std::atomic<std::size_t> peak_threads{0};
  const auto run = [&] {
    comm::World::run(kRanks, [&](comm::Communicator& c) {
      parallel_for(0, 64, 1, [&](std::size_t b, std::size_t) {
        if (b != 0) return;
        const std::size_t now = live_thread_count();
        std::size_t peak = peak_threads.load();
        while (now > peak && !peak_threads.compare_exchange_weak(peak, now)) {
        }
      });
      c.barrier();  // both ranks hold their teams at once
    });
  };
  run();  // warm-up: afterwards kRanks idle teams of this width exist
  const std::size_t teams = parallel::detail::team_count();
  const std::size_t baseline = live_thread_count();
  peak_threads.store(0);
  for (int i = 0; i < 20; ++i) run();
  EXPECT_EQ(teams, parallel::detail::team_count());
  if (baseline > 0) {
    // The baseline already counts the idle teams' workers; a run adds its
    // rank threads (plus one a finished predecessor may still occupy).
    EXPECT_LE(peak_threads.load(), baseline + kRanks + 1);
  }
}

TEST(ParallelTeams, SetNumThreadsAppliesToEveryCaller) {
  ThreadCountGuard guard(3);
  // Distinct threads that ran a region's chunks; with 8 indices per chunk
  // the chunk index of [b, e) is b / 8.
  const auto threads_in_region = [] {
    const std::size_t width = parallel::num_threads();
    std::vector<std::thread::id> owner(width);
    parallel_for(0, 8 * width, 8, [&](std::size_t b, std::size_t) {
      owner[b / 8] = std::this_thread::get_id();
    });
    return std::set<std::thread::id>(owner.begin(), owner.end()).size();
  };
  std::atomic<int> step{0};
  std::size_t before = 0, after = 0;
  std::thread other([&] {
    before = threads_in_region();  // width 3, set by the main thread
    step.store(1);
    wait_for([&] { return step.load() == 2; }, std::chrono::seconds(20));
    after = threads_in_region();  // width 4, set by the main thread
    set_num_threads(2);           // applies to the main thread too
  });
  ASSERT_TRUE(
      wait_for([&] { return step.load() == 1; }, std::chrono::seconds(20)));
  set_num_threads(4);
  step.store(2);
  other.join();
  EXPECT_EQ(3u, before);
  EXPECT_EQ(4u, after) << "the other caller's team did not resize";
  EXPECT_EQ(2u, parallel::num_threads());
  EXPECT_EQ(2u, threads_in_region());
}

TEST(ParallelTeams, ExceptionStaysWithItsCaller) {
  ThreadCountGuard guard(2);
  constexpr int kRounds = 200;
  std::atomic<int> thrower_caught{0};
  std::atomic<int> clean_failed{0};
  std::thread thrower([&] {
    for (int i = 0; i < kRounds; ++i) {
      try {
        // Chunk [32, 64) runs on the team's worker.
        parallel_for(0, 64, 1, [](std::size_t b, std::size_t) {
          if (b >= 32) throw std::runtime_error("worker chunk failed");
        });
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "worker chunk failed")
          thrower_caught.fetch_add(1);
      }
    }
  });
  std::thread clean([&] {
    for (int i = 0; i < kRounds; ++i) {
      std::atomic<std::size_t> sum{0};
      try {
        parallel_for(0, 64, 1, [&](std::size_t b, std::size_t e) {
          for (std::size_t j = b; j < e; ++j) sum.fetch_add(j);
        });
      } catch (...) {
        clean_failed.fetch_add(1);
      }
      if (sum.load() != 2016u) clean_failed.fetch_add(1);
    }
  });
  thrower.join();
  clean.join();
  EXPECT_EQ(kRounds, thrower_caught.load());
  EXPECT_EQ(0, clean_failed.load());
}

/// Trains a P1B1-shaped autoencoder (wide Dense layers) on 2 rank threads
/// with a synchronous allreduce; returns both ranks' final parameters.
std::vector<float> fit_p1b1_on_two_ranks() {
  const BenchmarkId id = BenchmarkId::kP1B1;
  const ScaledGeometry geometry = scaled_geometry(id, 0.01);
  const BenchmarkData data = make_benchmark_data(id, geometry, /*seed=*/3);
  const std::size_t rows = std::min<std::size_t>(32, data.train.size() / 2);
  std::vector<std::vector<float>> weights(2);
  comm::World::run(2, [&](comm::Communicator& c) {
    const nn::Dataset shard{
        nn::take_rows(data.train.x, c.rank() * rows, rows),
        nn::take_rows(data.train.y, c.rank() * rows, rows)};
    hvd::Context ctx(c);
    nn::Model model = build_model(id, geometry);
    model.compile({geometry.features},
                  std::make_unique<hvd::DistributedOptimizer>(
                      nn::make_optimizer(benchmark_optimizer(id), 0.01), ctx),
                  nn::make_loss(benchmark_loss(id)), /*seed=*/5);
    nn::FitOptions fit;
    fit.epochs = 2;
    fit.batch_size = 8;
    fit.shuffle = false;
    fit.classification = false;
    (void)model.fit(shard, fit);
    for (Tensor* p : model.parameters())
      weights[c.rank()].insert(weights[c.rank()].end(), p->data(),
                               p->data() + p->numel());
  });
  std::vector<float> flat = std::move(weights[0]);
  flat.insert(flat.end(), weights[1].begin(), weights[1].end());
  return flat;
}

TEST(ParallelTeams, TwoRankP1b1FitAtWidthTwoMatchesWidthOneBitExact) {
  std::vector<float> serial, threaded;
  {
    ThreadCountGuard guard(1);
    serial = fit_p1b1_on_two_ranks();
  }
  {
    ThreadCountGuard guard(2);
    threaded = fit_p1b1_on_two_ranks();
  }
  ASSERT_EQ(serial.size(), threaded.size());
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(0, std::memcmp(serial.data(), threaded.data(),
                           serial.size() * sizeof(float)))
      << "concurrent rank teams changed the trained weights";
}

// ---------------------------------------------------------------------------
// Aligned allocation
// ---------------------------------------------------------------------------

TEST(Alignment, TensorStorageIsCacheLineAligned) {
  // Shapes straddling small/large allocator size classes; every backing
  // buffer must start on a 64-byte boundary for the AVX2 microkernel and
  // the per-worker panel math in gemm.cpp.
  for (std::size_t n : {1u, 3u, 16u, 17u, 1024u, 60483u}) {
    Tensor t({n});
    EXPECT_TRUE(is_cacheline_aligned(t.data())) << "numel=" << n;
  }
  Tensor copied = Tensor({5}, {1, 2, 3, 4, 5});
  EXPECT_TRUE(is_cacheline_aligned(copied.data()));
  const Tensor reshaped = copied.reshaped({5, 1});
  EXPECT_TRUE(is_cacheline_aligned(reshaped.data()));
  static_assert(kCacheLineBytes % (4 * sizeof(float)) == 0,
                "cache line must hold whole 128-bit vectors");
}

TEST(Alignment, FusionBufferStorageIsCacheLineAligned) {
  // The persistent fusion scratch packs gradient buckets for the allreduce
  // pack/unpack memcpy loops; it must share the numeric buffers' 64-byte
  // alignment, including across monotonic growth steps.
  hvd::FusionBuffer buffer;
  for (std::size_t elems : {1u, 17u, 1024u, 4099u}) {
    EXPECT_TRUE(is_cacheline_aligned(buffer.acquire(elems).data()))
        << "elems=" << elems;
  }
  EXPECT_TRUE(is_cacheline_aligned(buffer.data()));
}

// ---------------------------------------------------------------------------
// Threaded-vs-serial equivalence of the wired hot paths. Each case runs
// the kernel at 1 thread and at 4 threads and requires bit-identical
// output buffers (the GEMM tile schedule and all elementwise updates
// perform the same fp ops in the same per-element order regardless of the
// thread count).
// ---------------------------------------------------------------------------

TEST(ThreadedEquivalence, GemmMatchesSerialBitExact) {
  Rng rng(31);
  // The PR 2 golden edge-tile shapes: straddle MR/NR/MC/KC boundaries.
  const std::size_t ms[] = {1, kGemmMR - 1, kGemmMR + 1, kGemmMC + 5};
  const std::size_t ns[] = {1, kGemmNR - 1, 3 * kGemmNR + 1};
  const std::size_t ks[] = {7, kGemmKC + 44};
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (std::size_t m : ms) {
        for (std::size_t n : ns) {
          for (std::size_t k : ks) {
            const Tensor a = ta ? random_tensor({k, m}, rng)
                                : random_tensor({m, k}, rng);
            const Tensor b = tb ? random_tensor({n, k}, rng)
                                : random_tensor({k, n}, rng);
            Epilogue ep;
            ep.op = EpilogueOp::kRelu;
            Tensor serial, threaded;
            {
              ThreadCountGuard guard(1);
              serial = gemm(ta, tb, a, b, ep);
            }
            {
              ThreadCountGuard guard(4);
              threaded = gemm(ta, tb, a, b, ep);
            }
            ASSERT_EQ(serial.shape(), threaded.shape());
            ASSERT_EQ(0, std::memcmp(serial.data(), threaded.data(),
                                     serial.numel() * sizeof(float)))
                << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
                << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(ThreadedEquivalence, Conv1dForwardBackwardMatchSerialBitExact) {
  Rng rng(37);
  const Tensor x = random_tensor({3, 257, 4}, rng);
  const Tensor w = random_tensor({9, 4, 16}, rng);
  const Tensor b = random_tensor({16}, rng);
  Tensor y1, y4;
  Tensor dx1(x.shape()), dw1(w.shape()), db1(b.shape());
  Tensor dx4(x.shape()), dw4(w.shape()), db4(b.shape());
  {
    ThreadCountGuard guard(1);
    Conv1dWorkspace ws;
    y1 = conv1d_forward(x, w, b, 2, &ws, EpilogueOp::kRelu);
    const Tensor dy(y1.shape(), 1.0f);
    conv1d_backward(x, w, dy, 2, dx1, dw1, db1, &ws);
  }
  {
    ThreadCountGuard guard(4);
    Conv1dWorkspace ws;
    y4 = conv1d_forward(x, w, b, 2, &ws, EpilogueOp::kRelu);
    const Tensor dy(y4.shape(), 1.0f);
    conv1d_backward(x, w, dy, 2, dx4, dw4, db4, &ws);
  }
  expect_bit_identical(y4, y1, "conv1d forward");
  expect_bit_identical(dx4, dx1, "conv1d dx");
  expect_bit_identical(dw4, dw1, "conv1d dw");
  expect_bit_identical(db4, db1, "conv1d dbias");
}

TEST(ThreadedEquivalence, InplaceOpsMatchSerialBitExact) {
  Rng rng(41);
  const Tensor x = random_tensor({97, 193}, rng);
  for (auto* op : {&relu_inplace, &sigmoid_inplace, &tanh_inplace,
                   &softmax_rows_inplace}) {
    Tensor serial = x, threaded = x;
    {
      ThreadCountGuard guard(1);
      (*op)(serial);
    }
    {
      ThreadCountGuard guard(4);
      (*op)(threaded);
    }
    expect_bit_identical(threaded, serial, "inplace op");
  }
}

TEST(ThreadedEquivalence, OptimizersMatchSerialBitExact) {
  for (const char* name : {"sgd", "adam", "rmsprop"}) {
    Rng rng(43);
    Tensor w_serial = random_tensor({123, 77}, rng);
    Tensor w_threaded = w_serial;
    Tensor g0 = random_tensor({123, 77}, rng);
    Tensor g1 = random_tensor({123, 77}, rng);
    {
      ThreadCountGuard guard(1);
      auto opt = nn::make_optimizer(name, 0.01);
      for (Tensor* g : {&g0, &g1}) opt->apply({&w_serial}, {g});
    }
    {
      ThreadCountGuard guard(4);
      auto opt = nn::make_optimizer(name, 0.01);
      for (Tensor* g : {&g0, &g1}) opt->apply({&w_threaded}, {g});
    }
    expect_bit_identical(w_threaded, w_serial, name);
  }
}

// ---------------------------------------------------------------------------
// read_csv_parallel: exact frame equality with the chunked reader
// ---------------------------------------------------------------------------

std::string temp_csv_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ParallelCsv, ExactlyFrameEqualToChunkedReader) {
  const std::string path = temp_csv_path("test_parallel_eq.csv");
  candle::io::write_synthetic_csv(path, {200, 133, false}, 1234);
  const candle::io::DataFrame chunked = candle::io::read_csv_chunked(path);
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadCountGuard guard(threads);
    candle::io::CsvReadStats stats;
    const candle::io::DataFrame par =
        candle::io::read_csv_parallel(path, &stats);
    ASSERT_EQ(chunked.rows, par.rows) << threads;
    ASSERT_EQ(chunked.cols, par.cols) << threads;
    ASSERT_EQ(0, std::memcmp(chunked.data.data(), par.data.data(),
                             chunked.data.size() * sizeof(float)))
        << "threads=" << threads;
    EXPECT_EQ(par.rows, stats.rows);
    EXPECT_EQ(par.cols, stats.cols);
    EXPECT_EQ(0u, stats.piece_allocs);
  }
  std::filesystem::remove(path);
}

TEST(ParallelCsv, SmallBlocksManyThreadsStillExact) {
  // Blocks far smaller than the file force many phase-1 blocks whose
  // newline lists must concatenate back in file order.
  ThreadCountGuard guard(4);
  const std::string path = temp_csv_path("test_parallel_blocks.csv");
  candle::io::write_synthetic_csv(path, {500, 23, false}, 99);
  const candle::io::DataFrame chunked = candle::io::read_csv_chunked(path);
  candle::io::CsvReadStats stats;
  const candle::io::DataFrame par =
      candle::io::read_csv_parallel(path, &stats, 4096);
  ASSERT_EQ(chunked.rows, par.rows);
  ASSERT_EQ(chunked.cols, par.cols);
  ASSERT_EQ(0, std::memcmp(chunked.data.data(), par.data.data(),
                           chunked.data.size() * sizeof(float)));
  EXPECT_GT(stats.chunks, 1u);
  std::filesystem::remove(path);
}

TEST(ParallelCsv, HandlesCrlfBlankLinesAndMissingFinalNewline) {
  ThreadCountGuard guard(4);
  const std::string path = temp_csv_path("test_parallel_quirks.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << "1,2,3\r\n"
        << "\n"
        << "4,5,6\n"
        << "\r\n"
        << "7.5,-8e2,9";  // no trailing newline
  }
  const candle::io::DataFrame chunked = candle::io::read_csv_chunked(path);
  const candle::io::DataFrame par = candle::io::read_csv_parallel(path);
  ASSERT_EQ(3u, par.rows);
  ASSERT_EQ(3u, par.cols);
  ASSERT_EQ(chunked.rows, par.rows);
  ASSERT_EQ(0, std::memcmp(chunked.data.data(), par.data.data(),
                           chunked.data.size() * sizeof(float)));
  EXPECT_FLOAT_EQ(7.5f, par.at(2, 0));
  EXPECT_FLOAT_EQ(-800.0f, par.at(2, 1));
  std::filesystem::remove(path);
}

TEST(ParallelCsv, RaggedRowThrowsIoError) {
  ThreadCountGuard guard(4);
  const std::string path = temp_csv_path("test_parallel_ragged.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << "1,2,3\n1,2\n1,2,3\n";
  }
  EXPECT_THROW((void)candle::io::read_csv_parallel(path), IoError);
  std::filesystem::remove(path);
}

TEST(ParallelCsv, RaggedRowReportsFieldCounts) {
  ThreadCountGuard guard(4);
  const std::string path = temp_csv_path("test_parallel_ragged_msg.csv");
  const auto message_for = [&](const char* text) -> std::string {
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    try {
      (void)candle::io::read_csv_parallel(path);
    } catch (const IoError& e) {
      return e.what();
    }
    return "no IoError";
  };
  EXPECT_EQ("read_csv: ragged row (got 2 fields, expected 3)",
            message_for("1,2,3\n1,2\n1,2,3\n"));
  EXPECT_EQ("read_csv: ragged row (got more fields than the 3 expected)",
            message_for("1,2,3\n1,2,3,4\n1,2,3\n"));
  std::filesystem::remove(path);
}

TEST(ParallelCsv, DispatchesThroughLoaderKind) {
  ThreadCountGuard guard(2);
  const std::string path = temp_csv_path("test_parallel_kind.csv");
  candle::io::write_synthetic_csv(path, {32, 8, false}, 5);
  const candle::io::DataFrame direct = candle::io::read_csv_parallel(path);
  const candle::io::DataFrame via_kind =
      candle::io::read_csv(path, candle::io::LoaderKind::kParallel);
  ASSERT_EQ(direct.rows, via_kind.rows);
  ASSERT_EQ(0, std::memcmp(direct.data.data(), via_kind.data.data(),
                           direct.data.size() * sizeof(float)));
  EXPECT_FALSE(
      candle::io::loader_name(candle::io::LoaderKind::kParallel).empty());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace candle
