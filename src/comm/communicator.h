// In-process multi-rank communication runtime.
//
// This substitutes for MPI + NCCL in the paper's Horovod stack: every MPI
// rank is a thread of one process, and the collectives move real bytes
// between per-rank buffers using the same algorithms the real libraries use
// (ring allreduce as in NCCL/baidu-allreduce, binomial-tree broadcast as in
// MPI_Bcast). Collectives are synchronized with a phase barrier; the
// algorithms are lock-free between barriers because every rank writes only
// its own buffer.
//
// One collective core carries every allreduce algorithm and the standalone
// reduce_scatter/allgather: the reduce-scatter and allgather phases of one
// ring over a strided rank set (first, stride, count) — stride 1 for the
// world, ranks_per_node for the hierarchical node leaders — plus one root
// reduce and one root broadcast. Every hop reads a peer through its wire
// image, and fp32 is the identity codec: an fp32 image is the rank's buffer
// itself (encode is a no-op, decode from a peer a memcpy, decode-add the
// plain fp32 add), so fp32 and the compressed dtypes run the same hop
// schedule. An owner offset fixes which segment each ring member completes
// and with it the per-segment summation order: the allreduce rings own
// segment k+1, the public reduce_scatter/allgather own segment k. A rank
// encodes every image a peer reads before the barrier that precedes the
// read; in particular the reduce-scatter phase encodes its last hop before
// the step barrier when the allgather phase follows, because the successor
// copies that segment in its first allgather step.
//
// Usage:
//   comm::World::run(4, [](comm::Communicator& c) {
//     std::vector<float> grad = ...;
//     c.allreduce_average(grad);
//   });
#pragma once

#include <array>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "comm/wire_codec.h"
#include "common/thread_annotations.h"

namespace candle::comm {

/// Reduction algorithm selection.
enum class AllreduceAlgo {
  kRing,          // NCCL-style ring: 2(P-1)/P * N data volume per rank
  kNaive,         // gather-to-root + broadcast (reference implementation)
  kHierarchical,  // two-level: intra-node reduce, inter-node ring over node
                  // leaders, intra-node broadcast (NCCL on Summit's
                  // NVLink-within/IB-between topology)
};

/// Number of allreduce algorithms (fixed-size stats arrays in CommStats).
inline constexpr std::size_t kNumAllreduceAlgos = 3;

/// Stable index of an algorithm for stats arrays / CLI tables.
[[nodiscard]] constexpr std::size_t allreduce_algo_index(AllreduceAlgo a) {
  return static_cast<std::size_t>(a);
}

/// Human-readable algorithm name ("ring" | "naive" | "hierarchical").
[[nodiscard]] const char* allreduce_algo_name(AllreduceAlgo a);

/// Parses an --allreduce-algo value; throws InvalidArgument on unknown names.
[[nodiscard]] AllreduceAlgo parse_allreduce_algo(const char* name);

/// Per-rank traffic accounting, used by tests and the fusion ablation.
struct CommStats {
  std::size_t allreduce_calls = 0;
  std::size_t broadcast_calls = 0;
  std::size_t reduce_calls = 0;
  std::size_t allgather_calls = 0;
  std::size_t reduce_scatter_calls = 0;
  std::size_t barrier_calls = 0;
  std::size_t bytes_sent = 0;  // bytes this rank moved to a peer buffer

  /// On-wire bytes this rank moved per allreduce [algo][dtype] — the
  /// observable half of compressed collectives: an fp16/bf16 reduction of
  /// the same payload shows half the bytes of its fp32 row, int8 a quarter
  /// plus the per-chunk scale metadata (wire_range_bytes). Indexed with
  /// allreduce_algo_index() / wire_dtype_index(); also counted in
  /// bytes_sent. A hierarchical call with a compressed local_wire_dtype
  /// charges its intra-node legs at the local dtype's width, accumulated
  /// under the call's [kHierarchical][wire] row.
  std::array<std::array<std::size_t, kNumWireDtypes>, kNumAllreduceAlgos>
      allreduce_wire_bytes{};

  /// On-wire bytes per standalone reduce_scatter / allgather collective,
  /// by dtype (also counted in bytes_sent). The ring formulas are exact
  /// and asserted in test_comm.cpp: with P ranks and n elements divisible
  /// by P, each rank moves (P-1) * n/P elements per call. The concat-style
  /// allgather overload counts its fp32 copies here too.
  std::array<std::size_t, kNumWireDtypes> reduce_scatter_wire_bytes{};
  std::array<std::size_t, kNumWireDtypes> allgather_wire_bytes{};

  /// Sum of allreduce_wire_bytes over algorithms for one dtype.
  [[nodiscard]] std::size_t wire_bytes(WireDtype d) const {
    std::size_t total = 0;
    for (const auto& per_algo : allreduce_wire_bytes)
      total += per_algo[wire_dtype_index(d)];
    return total;
  }
};

class World;
struct WorldOptions;

/// Per-rank handle; valid only inside World::run's callback, on that thread.
class Communicator {
 public:
  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] std::size_t size() const;

  /// Rank within the node, given `ranks_per_node` from the WorldOptions
  /// (Summit: 6 GPUs per node -> local_rank in 0..5, as in the paper).
  [[nodiscard]] std::size_t local_rank() const;
  [[nodiscard]] std::size_t node() const;

  /// World configuration this rank runs under (algorithm, topology, default
  /// wire dtype) — lets callers model per-rank collective cost.
  [[nodiscard]] const WorldOptions& world_options() const;

  /// Blocks until all ranks arrive.
  void barrier();

  /// In-place sum-reduction across all ranks; every rank ends with the sum.
  /// Uses the world's default wire dtype (kFp32 unless configured).
  void allreduce_sum(std::span<float> data);

  /// allreduce_sum with an explicit on-wire dtype for this collective. With
  /// kFp16/kBf16 every inter-rank hop moves 16-bit words — and with kInt8
  /// block-scaled bytes plus per-chunk fp32 scales — while each rank
  /// accumulates its owned ring segment in the fp32 buffer itself (fp32
  /// master accumulation): one encode/decode pair per hop, identical op
  /// order on every rank, so the result is deterministic and rank-invariant
  /// for a fixed dtype. Compressed results carry the codec's documented
  /// error bound (see wire_codec.h) instead of bit-exactness; kFp32 is
  /// bit-identical to the overload above. All ranks must pass the same
  /// dtype — the rendezvous rejects a mismatch with CommError.
  void allreduce_sum(std::span<float> data, WireDtype wire);

  /// allreduce_sum followed by division by world size (gradient averaging).
  void allreduce_average(std::span<float> data);

  /// allreduce_average with an explicit on-wire dtype (see allreduce_sum).
  /// The averaging divide runs after the reduction, as the same fp32 op on
  /// bit-identical inputs on every rank.
  void allreduce_average(std::span<float> data, WireDtype wire);

  /// Copies root's buffer into every rank's buffer (binomial tree).
  void broadcast(std::span<float> data, std::size_t root);

  /// Sum-reduction onto `root` only (MPI_Reduce): root ends with the sum,
  /// other ranks' buffers are unchanged. Used by the parameter-server
  /// baseline's gradient push.
  void reduce_sum_to(std::span<float> data, std::size_t root);

  /// Gathers equal-size contributions from all ranks, in rank order.
  void allgather(std::span<const float> contribution,
                 std::vector<float>& gathered);

  /// In-place ring reduce-scatter (MPI_Reduce_scatter_block generalized to
  /// the ring's uneven segments): on return, rank r's segment r of the ring
  /// partition holds the element-wise sum over all ranks; the rest of the
  /// buffer holds partial sums and must be treated as scratch. Segment g
  /// covers [off(g), off(g+1)) with off(g) = granularity * (g * (n /
  /// granularity) / P) — granularity-aligned boundaries let callers gather
  /// per-rank blocks of `granularity`-strided rows (n must be divisible by
  /// granularity). Deterministic and rank-invariant: the ring schedule
  /// fixes the accumulation order per segment independent of thread timing.
  /// With a compressed wire dtype every hop moves 16-bit words and fuses
  /// decode+add into the fp32 master buffer (wire_codec.h).
  void reduce_scatter(std::span<float> data);
  void reduce_scatter(std::span<float> data, WireDtype wire,
                      std::size_t granularity = 1);

  /// In-place ring allgather, the inverse of reduce_scatter: rank r
  /// contributes its segment r (same boundary function, same granularity
  /// rules) and on return every rank holds every segment. With a
  /// compressed dtype each segment crosses the wire once in 16-bit words
  /// and the contributing rank round-trips its own segment through the
  /// codec, so all ranks end bit-identical.
  void allgather(std::span<float> data);
  void allgather(std::span<float> data, WireDtype wire,
                 std::size_t granularity = 1);

  /// Reduces a single double (sum) — convenience for scalar metrics.
  double allreduce_scalar(double value);

  [[nodiscard]] const CommStats& stats() const { return stats_; }

 private:
  friend class World;
  Communicator(World& world, std::size_t rank)
      : world_(&world), rank_(rank) {}

  World* world_;
  std::size_t rank_;
  CommStats stats_;
  /// Number of collectives this rank has issued, bumped at the start of
  /// every collective. The rendezvous cross-checks it (together with the op
  /// name) across ranks at registration, so a rank that skips, reorders, or
  /// interleaves collectives — e.g. an overlap scheduler letting a bucket
  /// leak across a step boundary — fails fast with CommError instead of
  /// silently reducing mismatched buffers. Per-rank collectives are
  /// serialized (one issuing thread at a time — the rank thread, or its
  /// overlap comm thread while the rank thread is quiesced), so no atomics.
  std::uint64_t seq_ = 0;
  /// Persistent per-rank wire image for the compressed legs of a
  /// collective — n 16-bit words for fp16/bf16, or the planar
  /// [scales | int8 payload] image for int8 (wire_codec.h), sized by
  /// wire::wire_image_scratch_elems. fp32 legs never touch it: their image
  /// is the buffer itself. Incoming segments need no fp32 landing zone —
  /// the fused decode_add kernels accumulate straight into the master
  /// buffer in one pass. Reused across calls so steady-state training does
  /// not allocate per bucket. Same serialization as seq_.
  std::vector<std::uint16_t> wire_scratch_;
};

/// World configuration.
struct WorldOptions {
  std::size_t ranks_per_node = 6;  // Summit node: 6 V100s
  AllreduceAlgo allreduce_algo = AllreduceAlgo::kRing;
  /// Default on-wire dtype for allreduce_sum/allreduce_average calls that
  /// do not pass one explicitly. kFp32 keeps the bit-exact contract;
  /// allreduce_scalar always stays fp32 so scalar metrics never quantize.
  WireDtype wire_dtype = WireDtype::kFp32;
  /// On-wire dtype for the intra-node legs (phases 1 and 3) of the
  /// kHierarchical allreduce, for when `local_bw` — not the inter-node
  /// wire — is the bottleneck. kFp32 (the default) keeps the intra-node
  /// legs exact; a compressed dtype makes members publish encoded images
  /// for the leader's phase-1 reduce and decode the leader's re-encoded
  /// result in phase 3 (leaders round-trip their own image so every rank
  /// of the world still ends bit-identical). World-level configuration —
  /// never per call — so ranks can never disagree about it. Ignored by
  /// the other algorithms.
  WireDtype local_wire_dtype = WireDtype::kFp32;
};

/// Owns the shared rendezvous state for `size` rank threads.
///
/// Thread model: the collective *payload* is synchronized by the phase
/// barrier (every rank writes only its own buffer between barriers), while
/// the rendezvous *metadata* — which buffer each rank registered and with
/// how many elements — is guarded by `reg_mutex_` and only touched through
/// the annotated helpers below, so clang -Wthread-safety proves the lock
/// discipline at compile time.
class World {
 public:
  explicit World(std::size_t size, WorldOptions options = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const WorldOptions& options() const { return options_; }

  /// Spawns `size` threads, each running `body` with its Communicator.
  /// After joining all, rethrows the exception of the rank that failed
  /// first in time — the root cause, not a survivor's follow-on error.
  /// Returns the per-rank CommStats.
  static std::vector<CommStats> run(
      std::size_t size, const std::function<void(Communicator&)>& body,
      WorldOptions options = {});

 private:
  friend class Communicator;
  struct Group;  // strided rank set / ring (communicator.cpp)

  void do_barrier();
  void allreduce(Communicator& self, std::span<float> data, bool average,
                 WireDtype wire);
  void do_broadcast(Communicator& self, std::span<float> data,
                    std::size_t root);
  void do_reduce_to(Communicator& self, std::span<float> data,
                    std::size_t root);
  void do_reduce_scatter(Communicator& self, std::span<float> data,
                         WireDtype wire, std::size_t granularity);
  void do_allgather_inplace(Communicator& self, std::span<float> data,
                            WireDtype wire, std::size_t granularity);

  // The collective core (see the file comment). Every rank of the world
  // steps the barriers of each phase (count-1 for a ring phase, two for the
  // root broadcast, none for the root reduce). Only the members of `ring`
  // move data; `root` reduces its `group`; every other rank copies from
  // the `root` it passes (its node leader, or rank 0).
  void publish_segments(Communicator& self, std::span<float> data,
                        WireDtype wire, const Group& ring);
  void ring_reduce_scatter(Communicator& self, std::span<float> data,
                           WireDtype wire, const Group& ring,
                           bool publish_last);
  void ring_allgather(Communicator& self, std::span<float> data,
                      WireDtype wire, const Group& ring);
  void root_reduce(Communicator& self, std::span<float> data, WireDtype wire,
                   const Group& group, std::size_t root);
  void root_broadcast(Communicator& self, std::span<float> data,
                      WireDtype wire, std::size_t root);

  /// Registers `rank`'s buffer for the collective that is about to start,
  /// tagged with the rank's collective sequence number, the op name, and
  /// the requested wire dtype (with the rank's wire scratch when any leg
  /// of the call is compressed). Must be followed by a barrier before any
  /// peer reads it.
  void register_buffer(std::size_t rank, float* data, std::size_t count,
                       std::uint64_t seq, const char* op,
                       WireDtype wire = WireDtype::kFp32,
                       std::uint16_t* wire_buf = nullptr,
                       std::size_t granularity = 1)
      CANDLE_EXCLUDES(reg_mutex_);

  /// The image `rank` registered for a leg at `wire`: its fp32 buffer for
  /// kFp32, its wire scratch otherwise. May only be dereferenced in barrier
  /// phases where `rank` is not writing the same segment.
  [[nodiscard]] const void* peer_image(std::size_t rank, WireDtype wire) const
      CANDLE_EXCLUDES(reg_mutex_);

  /// Throws CommError unless every rank registered `count` elements for
  /// the same op at the same collective sequence number with the same wire
  /// dtype. The sequence/op check is what makes per-bucket collectives from
  /// an overlap comm thread safe to reason about: any divergence in the
  /// global collective order across ranks (or a bucket interleaving across
  /// steps) is reported as an error at the rendezvous instead of corrupting
  /// a reduction; the dtype check catches ranks disagreeing about whether a
  /// bucket crosses the wire compressed, and the granularity check catches
  /// ranks disagreeing about segment boundaries (reduce_scatter/allgather).
  void check_rendezvous(std::size_t count, std::uint64_t seq, const char* op,
                        WireDtype wire = WireDtype::kFp32,
                        std::size_t granularity = 1) const
      CANDLE_EXCLUDES(reg_mutex_);

  std::size_t size_;
  WorldOptions options_;
  std::barrier<> barrier_;
  mutable AnnotatedMutex reg_mutex_{
      CANDLE_LOCK_LEVEL(lock_order::level::kCommRendezvous),
      "comm::World::reg_mutex_"};
  std::vector<float*> bufs_ CANDLE_GUARDED_BY(reg_mutex_);
  std::vector<std::uint16_t*> wire_bufs_ CANDLE_GUARDED_BY(reg_mutex_);
  std::vector<std::size_t> counts_ CANDLE_GUARDED_BY(reg_mutex_);
  std::vector<std::uint64_t> seqs_ CANDLE_GUARDED_BY(reg_mutex_);
  std::vector<const char*> ops_ CANDLE_GUARDED_BY(reg_mutex_);
  std::vector<WireDtype> dtypes_ CANDLE_GUARDED_BY(reg_mutex_);
  std::vector<std::size_t> grans_ CANDLE_GUARDED_BY(reg_mutex_);
};

}  // namespace candle::comm
