#include "comm/communicator.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/error.h"

namespace candle::comm {

namespace {

// Dtype-generic operations on range [b, e) of a compressed wire image over
// `n` total elements. For the 16-bit dtypes the range is simply words
// [b, e); for int8 the payload and scale planes are addressed with
// pre-offset pointers, so the quantization chunk grid is always relative to
// the range start and disjoint ring segments own disjoint scale slots
// (wire_codec.h). Every collective therefore encodes int8 per segment —
// never as one whole-buffer range — so encoder and decoder agree on the
// grid at every hop.

void encode_range(WireDtype wire, const float* data, std::uint16_t* image,
                  std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b) return;
  if (wire == WireDtype::kInt8)
    wire::encode_int8(data + b, wire::int8_payload(image, n) + b,
                      wire::int8_scales(image) + b, e - b);
  else
    wire::encode(wire, data + b, image + b, e - b);
}

void decode_range(WireDtype wire, const std::uint16_t* image, float* data,
                  std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b) return;
  if (wire == WireDtype::kInt8)
    wire::decode_int8(wire::int8_payload(image, n) + b,
                      wire::int8_scales(image) + b, data + b, e - b);
  else
    wire::decode(wire, image + b, data + b, e - b);
}

void decode_add_range(WireDtype wire, const std::uint16_t* image, float* data,
                      std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b) return;
  if (wire == WireDtype::kInt8)
    wire::decode_add_int8(wire::int8_payload(image, n) + b,
                          wire::int8_scales(image) + b, data + b, e - b);
  else
    wire::decode_add(wire, image + b, data + b, e - b);
}

// Propagates range [b, e) of a peer's wire image into ours (ring allgather
// hops): the payload words/bytes plus, for int8, the range's scale slots.
void copy_range(WireDtype wire, std::uint16_t* dst, const std::uint16_t* src,
                std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b) return;
  if (wire == WireDtype::kInt8) {
    std::memcpy(wire::int8_payload(dst, n) + b, wire::int8_payload(src, n) + b,
                e - b);
    float* dst_scales = wire::int8_scales(dst);
    const float* src_scales = wire::int8_scales(src);
    for (std::size_t s = b; s < e; s += kInt8ChunkElems)
      dst_scales[s] = src_scales[s];
  } else {
    std::memcpy(dst + b, src + b, (e - b) * sizeof(std::uint16_t));
  }
}

}  // namespace

const char* allreduce_algo_name(AllreduceAlgo a) {
  switch (a) {
    case AllreduceAlgo::kRing: return "ring";
    case AllreduceAlgo::kNaive: return "naive";
    case AllreduceAlgo::kHierarchical: return "hierarchical";
  }
  return "?";
}

AllreduceAlgo parse_allreduce_algo(const char* name) {
  const std::string s = name == nullptr ? "" : name;
  if (s == "ring") return AllreduceAlgo::kRing;
  if (s == "naive") return AllreduceAlgo::kNaive;
  if (s == "hierarchical") return AllreduceAlgo::kHierarchical;
  throw InvalidArgument("parse_allreduce_algo: unknown algorithm '" + s +
                        "' (expected ring | naive | hierarchical)");
}

std::size_t Communicator::size() const { return world_->size(); }

std::size_t Communicator::local_rank() const {
  return rank_ % world_->options().ranks_per_node;
}

std::size_t Communicator::node() const {
  return rank_ / world_->options().ranks_per_node;
}

const WorldOptions& Communicator::world_options() const {
  return world_->options();
}

void Communicator::barrier() {
  ++stats_.barrier_calls;
  world_->do_barrier();
}

void Communicator::allreduce_sum(std::span<float> data) {
  allreduce_sum(data, world_->options().wire_dtype);
}

void Communicator::allreduce_sum(std::span<float> data, WireDtype wire) {
  ++stats_.allreduce_calls;
  world_->allreduce(*this, data, /*average=*/false, wire);
}

void Communicator::allreduce_average(std::span<float> data) {
  allreduce_average(data, world_->options().wire_dtype);
}

void Communicator::allreduce_average(std::span<float> data, WireDtype wire) {
  ++stats_.allreduce_calls;
  world_->allreduce(*this, data, /*average=*/true, wire);
}

void Communicator::broadcast(std::span<float> data, std::size_t root) {
  require(root < size(), "broadcast: root out of range");
  ++stats_.broadcast_calls;
  world_->do_broadcast(*this, data, root);
}

void Communicator::reduce_sum_to(std::span<float> data, std::size_t root) {
  require(root < size(), "reduce_sum_to: root out of range");
  ++stats_.reduce_calls;
  world_->do_reduce_to(*this, data, root);
}

void Communicator::allgather(std::span<const float> contribution,
                             std::vector<float>& gathered) {
  ++stats_.allgather_calls;
  world_->do_allgather(*this, contribution, gathered);
}

void Communicator::reduce_scatter(std::span<float> data) {
  reduce_scatter(data, world_->options().wire_dtype);
}

void Communicator::reduce_scatter(std::span<float> data, WireDtype wire,
                                  std::size_t granularity) {
  ++stats_.reduce_scatter_calls;
  world_->do_reduce_scatter(*this, data, wire, granularity);
}

void Communicator::allgather(std::span<float> data) {
  allgather(data, world_->options().wire_dtype);
}

void Communicator::allgather(std::span<float> data, WireDtype wire,
                             std::size_t granularity) {
  ++stats_.allgather_calls;
  world_->do_allgather_inplace(*this, data, wire, granularity);
}

double Communicator::allreduce_scalar(double value) {
  float v = static_cast<float>(value);
  // Always fp32 on the wire: scalar metrics (loss, accuracy) must not
  // quantize even when the world's default gradient dtype is compressed.
  allreduce_sum(std::span<float>(&v, 1), WireDtype::kFp32);
  return static_cast<double>(v);
}

World::World(std::size_t size, WorldOptions options)
    : size_(size),
      options_(options),
      barrier_(static_cast<std::ptrdiff_t>(size)),
      bufs_(size, nullptr),
      const_bufs_(size, nullptr),
      wire_bufs_(size, nullptr),
      counts_(size, 0),
      seqs_(size, 0),
      ops_(size, nullptr),
      dtypes_(size, WireDtype::kFp32),
      grans_(size, 1) {
  require(size > 0, "World: size must be > 0");
  require(options.ranks_per_node > 0, "World: ranks_per_node must be > 0");
}

World::~World() = default;

void World::do_barrier() { barrier_.arrive_and_wait(); }

void World::register_buffer(std::size_t rank, float* data, std::size_t count,
                            std::uint64_t seq, const char* op, WireDtype wire,
                            std::uint16_t* wire_buf,
                            std::size_t granularity) {
  MutexLock lock(reg_mutex_);
  bufs_[rank] = data;
  wire_bufs_[rank] = wire_buf;
  counts_[rank] = count;
  seqs_[rank] = seq;
  ops_[rank] = op;
  dtypes_[rank] = wire;
  grans_[rank] = granularity;
}

void World::register_const_buffer(std::size_t rank, const float* data,
                                  std::size_t count, std::uint64_t seq,
                                  const char* op) {
  MutexLock lock(reg_mutex_);
  const_bufs_[rank] = data;
  wire_bufs_[rank] = nullptr;
  counts_[rank] = count;
  seqs_[rank] = seq;
  ops_[rank] = op;
  dtypes_[rank] = WireDtype::kFp32;
  grans_[rank] = 1;
}

float* World::peer_buffer(std::size_t rank) const {
  MutexLock lock(reg_mutex_);
  return bufs_[rank];
}

const float* World::peer_const_buffer(std::size_t rank) const {
  MutexLock lock(reg_mutex_);
  return const_bufs_[rank];
}

std::size_t World::peer_count(std::size_t rank) const {
  MutexLock lock(reg_mutex_);
  return counts_[rank];
}

std::uint16_t* World::peer_wire_buffer(std::size_t rank) const {
  MutexLock lock(reg_mutex_);
  return wire_bufs_[rank];
}

void World::check_rendezvous(std::size_t count, std::uint64_t seq,
                             const char* op, WireDtype wire,
                             std::size_t granularity) const {
  MutexLock lock(reg_mutex_);
  for (std::size_t r = 0; r < size_; ++r) {
    if (seqs_[r] != seq || ops_[r] == nullptr ||
        std::strcmp(ops_[r], op) != 0)
      throw CommError(std::string(op) +
                      ": ranks issued different collective sequences "
                      "(rank registered " +
                      (ops_[r] != nullptr ? ops_[r] : "<none>") + " #" +
                      std::to_string(seqs_[r]) + ", expected " + op + " #" +
                      std::to_string(seq) + ")");
    if (counts_[r] != count)
      throw CommError(std::string(op) +
                      ": ranks passed different element counts");
    if (dtypes_[r] != wire)
      throw CommError(std::string(op) +
                      ": ranks requested different wire dtypes (rank " +
                      std::to_string(r) + " registered " +
                      wire_dtype_name(dtypes_[r]) + ", expected " +
                      wire_dtype_name(wire) + ")");
    if (grans_[r] != granularity)
      throw CommError(std::string(op) +
                      ": ranks passed different segment granularities "
                      "(rank " + std::to_string(r) + " registered " +
                      std::to_string(grans_[r]) + ", expected " +
                      std::to_string(granularity) + ")");
  }
}

void World::allreduce(Communicator& self, std::span<float> data, bool average,
                      WireDtype wire) {
  const std::uint64_t seq = ++self.seq_;
  const std::size_t n = data.size();
  // A single-rank reduction moves no bytes; keep it exact regardless of the
  // requested dtype (all ranks take this branch identically).
  const bool compressed = wire != WireDtype::kFp32 && size_ > 1;
  if (!compressed) wire = WireDtype::kFp32;
  const bool hier = options_.allreduce_algo == AllreduceAlgo::kHierarchical;
  // The hierarchical local-leg dtype is world-level configuration, so every
  // rank derives the same value — no rendezvous cross-check needed.
  const WireDtype local_wire =
      (hier && size_ > 1) ? options_.local_wire_dtype : WireDtype::kFp32;
  const bool local_compressed = local_wire != WireDtype::kFp32;
  if (compressed || local_compressed) {
    self.wire_scratch_.resize(
        std::max(wire::wire_image_scratch_elems(wire, n),
                 wire::wire_image_scratch_elems(local_wire, n)));
    std::uint16_t* mine = self.wire_scratch_.data();
    // Ring/naive peers read the wire image right after the rendezvous
    // barrier; the hierarchical leader ring publishes it after the
    // intra-node reduce, but members publish their contribution here when
    // the local leg compresses. The ring encodes per segment so re-encoded
    // hops keep the int8 chunk grid (identical bytes for 16-bit dtypes).
    if (compressed && options_.allreduce_algo == AllreduceAlgo::kRing) {
      for (std::size_t g = 0; g < size_; ++g)
        encode_range(wire, data.data(), mine, n, g * n / size_,
                     (g + 1) * n / size_);
    } else if (compressed && options_.allreduce_algo == AllreduceAlgo::kNaive) {
      encode_range(wire, data.data(), mine, n, 0, n);
    } else if (local_compressed &&
               self.rank_ % options_.ranks_per_node != 0) {
      encode_range(local_wire, data.data(), mine, n, 0, n);
    }
  }
  register_buffer(
      self.rank_, data.data(), n, seq, "allreduce", wire,
      (compressed || local_compressed) ? self.wire_scratch_.data() : nullptr);
  do_barrier();
  check_rendezvous(n, seq, "allreduce", wire);
  const std::size_t sent_before = self.stats_.bytes_sent;
  if (size_ > 1) {
    switch (options_.allreduce_algo) {
      case AllreduceAlgo::kRing:
        if (compressed)
          allreduce_ring_compressed(self, data, wire);
        else
          allreduce_ring(self, data);
        break;
      case AllreduceAlgo::kNaive:
        if (compressed)
          allreduce_naive_compressed(self, data, wire);
        else
          allreduce_naive(self, data);
        break;
      case AllreduceAlgo::kHierarchical:
        allreduce_hierarchical(self, data, wire, local_wire);
        break;
    }
  }
  self.stats_.allreduce_wire_bytes[allreduce_algo_index(
      options_.allreduce_algo)][wire_dtype_index(wire)] +=
      self.stats_.bytes_sent - sent_before;
  if (average && size_ > 1) {
    // Runs after the reduction as the same fp32 op on bit-identical inputs
    // on every rank, so averaging preserves rank-invariance for any dtype.
    const float inv = 1.0f / static_cast<float>(size_);
    for (float& v : data) v *= inv;
  }
  do_barrier();
}

void World::allreduce_ring(Communicator& self, std::span<float> data) {
  const std::size_t P = size_;
  const std::size_t r = self.rank_;
  const std::size_t n = data.size();

  // Segment boundaries: segment g covers [off(g), off(g+1)).
  auto off = [&](std::size_t g) { return g * n / P; };
  auto seg = [&](std::size_t g) {
    return std::pair<std::size_t, std::size_t>{off(g), off(g + 1)};
  };
  auto mod = [&](std::size_t a) { return a % P; };

  // Scatter-reduce: after step s, this rank's segment (r-1-s mod P) holds
  // the partial sum of s+2 contributions. Between barriers each rank writes
  // only its own buffer, and reads a neighbor segment the neighbor is not
  // writing in the same step.
  for (std::size_t s = 0; s + 1 < P; ++s) {
    const std::size_t recv_seg = mod(r + 2 * P - 1 - s);
    const auto [b, e] = seg(recv_seg);
    const float* src = peer_buffer(mod(r + P - 1));
    for (std::size_t i = b; i < e; ++i) data[i] += src[i];
    self.stats_.bytes_sent += (e - b) * sizeof(float);
    do_barrier();
  }

  // Allgather: step s copies segment (r - s mod P) from the predecessor,
  // which completed it in the previous step (or in scatter-reduce for s=0).
  for (std::size_t s = 0; s + 1 < P; ++s) {
    const std::size_t copy_seg = mod(r + 2 * P - s);
    const auto [b, e] = seg(copy_seg);
    const float* src = peer_buffer(mod(r + P - 1));
    if (e > b)
      std::memcpy(data.data() + b, src + b, (e - b) * sizeof(float));
    self.stats_.bytes_sent += (e - b) * sizeof(float);
    do_barrier();
  }
}

void World::allreduce_ring_compressed(Communicator& self,
                                      std::span<float> data, WireDtype wire) {
  // Same segment/barrier schedule as allreduce_ring, with wire images in
  // place of the fp32 buffers: each hop decodes the predecessor's wire
  // segment, accumulates into this rank's fp32 buffer (the "master"), and
  // re-encodes the partial for the successor — so the running sum is
  // quantized once per hop but never accumulated in reduced precision.
  const std::size_t P = size_;
  const std::size_t r = self.rank_;
  const std::size_t n = data.size();
  std::uint16_t* mine = self.wire_scratch_.data();

  auto off = [&](std::size_t g) { return g * n / P; };
  auto mod = [&](std::size_t a) { return a % P; };

  for (std::size_t s = 0; s + 1 < P; ++s) {
    const std::size_t recv_seg = mod(r + 2 * P - 1 - s);
    const std::size_t b = off(recv_seg), e = off(recv_seg + 1);
    const std::uint16_t* src = peer_wire_buffer(mod(r + P - 1));
    if (e > b) {
      decode_add_range(wire, src, data.data(), n, b, e);
      encode_range(wire, data.data(), mine, n, b, e);
    }
    self.stats_.bytes_sent += wire_range_bytes(wire, e - b);
    do_barrier();
  }

  // This rank's fp32 master now holds a higher-precision sum for its owned
  // segment than the wire image peers will copy; round-trip it through the
  // codec so every rank ends with bit-identical fp32 results.
  {
    const std::size_t own = mod(r + 1);
    decode_range(wire, mine, data.data(), n, off(own), off(own + 1));
  }

  // Allgather: copy the predecessor's completed wire segment (propagating
  // it around the ring) and decode it into the fp32 buffer.
  for (std::size_t s = 0; s + 1 < P; ++s) {
    const std::size_t copy_seg = mod(r + 2 * P - s);
    const std::size_t b = off(copy_seg), e = off(copy_seg + 1);
    const std::uint16_t* src = peer_wire_buffer(mod(r + P - 1));
    if (e > b) {
      copy_range(wire, mine, src, n, b, e);
      decode_range(wire, mine, data.data(), n, b, e);
    }
    self.stats_.bytes_sent += wire_range_bytes(wire, e - b);
    do_barrier();
  }
}

void World::allreduce_naive(Communicator& self, std::span<float> data) {
  // Rank 0 accumulates everyone, then everyone copies rank 0.
  if (self.rank_ == 0) {
    for (std::size_t peer = 1; peer < size_; ++peer) {
      const float* src = peer_buffer(peer);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += src[i];
      self.stats_.bytes_sent += data.size() * sizeof(float);
    }
  }
  do_barrier();
  if (self.rank_ != 0 && !data.empty()) {
    std::memcpy(data.data(), peer_buffer(0), data.size() * sizeof(float));
    self.stats_.bytes_sent += data.size() * sizeof(float);
  }
  do_barrier();
}

void World::allreduce_naive_compressed(Communicator& self,
                                       std::span<float> data,
                                       WireDtype wire) {
  // Rank 0 decodes and accumulates every peer's wire image in fp32, then
  // publishes the result compressed; peers decode rank 0's image. The
  // whole buffer is one wire range (chunk grid starts at element 0 on
  // every rank).
  const std::size_t n = data.size();
  std::uint16_t* mine = self.wire_scratch_.data();
  if (self.rank_ == 0) {
    for (std::size_t peer = 1; peer < size_; ++peer) {
      decode_add_range(wire, peer_wire_buffer(peer), data.data(), n, 0, n);
      self.stats_.bytes_sent += wire_range_bytes(wire, n);
    }
    // Adopt the published wire image locally so rank 0's fp32 result
    // matches what every peer decodes.
    encode_range(wire, data.data(), mine, n, 0, n);
    decode_range(wire, mine, data.data(), n, 0, n);
  }
  do_barrier();
  if (self.rank_ != 0 && n > 0) {
    decode_range(wire, peer_wire_buffer(0), data.data(), n, 0, n);
    self.stats_.bytes_sent += wire_range_bytes(wire, n);
  }
  do_barrier();
}

void World::allreduce_hierarchical(Communicator& self, std::span<float> data,
                                   WireDtype wire, WireDtype local_wire) {
  // Two-level reduction matching Summit's topology: NVLink within a node,
  // InfiniBand between node leaders (what NCCL does for multi-node jobs).
  // `wire` compresses the inter-node leader ring (IB-class links, usually
  // the bottleneck); `local_wire` compresses the intra-node legs for
  // machines where local_bw is the limit instead. Both kFp32 reproduces
  // the exact fp32 reduction bit-identically; on a single node a
  // compressed `wire` alone degenerates to it too.
  const std::size_t rpn = options_.ranks_per_node;
  const std::size_t rank = self.rank_;
  const std::size_t node = rank / rpn;
  const std::size_t local = rank % rpn;
  const std::size_t leader = node * rpn;
  const std::size_t nnodes = (size_ + rpn - 1) / rpn;
  const std::size_t node_end = std::min(size_, leader + rpn);
  const std::size_t n = data.size();
  const bool ring_compressed = wire != WireDtype::kFp32;
  const bool local_compressed = local_wire != WireDtype::kFp32;
  std::uint16_t* mine = self.wire_scratch_.data();

  // Phase 1: intra-node reduce onto the node leader. With a compressed
  // local leg the members published whole-buffer wire images at entry
  // (World::allreduce) and the leader fuses decode+add into its fp32
  // master; otherwise the leader reads the members' fp32 buffers.
  if (local == 0) {
    for (std::size_t m = leader + 1; m < node_end; ++m) {
      if (local_compressed) {
        decode_add_range(local_wire, peer_wire_buffer(m), data.data(), n, 0,
                         n);
        self.stats_.bytes_sent += wire_range_bytes(local_wire, n);
      } else {
        const float* src = peer_buffer(m);
        for (std::size_t i = 0; i < n; ++i) data[i] += src[i];
        self.stats_.bytes_sent += n * sizeof(float);
      }
    }
  }
  do_barrier();

  // Phase 2: ring over the node leaders. Every rank participates in the
  // step barriers; only leaders move data. Segment arithmetic is the same
  // ring as allreduce_ring with P = nnodes and my index = node. When the
  // ring compresses, leaders publish their node-reduced buffer on the wire
  // first (per segment, so int8 chunk grids match the per-hop re-encodes);
  // the extra barrier makes the images visible before the first hop.
  if (nnodes > 1) {
    const std::size_t P = nnodes;
    auto off = [&](std::size_t g) { return g * n / P; };
    const std::size_t pred_leader = ((node + P - 1) % P) * rpn;
    if (ring_compressed) {
      if (local == 0)
        for (std::size_t g = 0; g < P; ++g)
          encode_range(wire, data.data(), mine, n, off(g), off(g + 1));
      do_barrier();
    }
    for (std::size_t s = 0; s + 1 < P; ++s) {
      if (local == 0) {
        const std::size_t recv_seg = (node + 2 * P - 1 - s) % P;
        const std::size_t b = off(recv_seg), e = off(recv_seg + 1);
        if (ring_compressed) {
          const std::uint16_t* src = peer_wire_buffer(pred_leader);
          if (e > b) {
            decode_add_range(wire, src, data.data(), n, b, e);
            encode_range(wire, data.data(), mine, n, b, e);
          }
          self.stats_.bytes_sent += wire_range_bytes(wire, e - b);
        } else {
          const float* src = peer_buffer(pred_leader);
          for (std::size_t i = b; i < e; ++i) data[i] += src[i];
          self.stats_.bytes_sent += (e - b) * sizeof(float);
        }
      }
      do_barrier();
    }
    if (ring_compressed && local == 0) {
      // Owner round-trip, as in allreduce_ring_compressed: leaders must
      // end bit-identical so phase 3 broadcasts identical buffers.
      const std::size_t own = (node + 1) % P;
      decode_range(wire, mine, data.data(), n, off(own), off(own + 1));
    }
    for (std::size_t s = 0; s + 1 < P; ++s) {
      if (local == 0) {
        const std::size_t copy_seg = (node + 2 * P - s) % P;
        const std::size_t b = off(copy_seg), e = off(copy_seg + 1);
        if (ring_compressed) {
          const std::uint16_t* src = peer_wire_buffer(pred_leader);
          if (e > b) {
            copy_range(wire, mine, src, n, b, e);
            decode_range(wire, mine, data.data(), n, b, e);
          }
          self.stats_.bytes_sent += wire_range_bytes(wire, e - b);
        } else {
          const float* src = peer_buffer(pred_leader);
          if (e > b)
            std::memcpy(data.data() + b, src + b, (e - b) * sizeof(float));
          self.stats_.bytes_sent += (e - b) * sizeof(float);
        }
      }
      do_barrier();
    }
  }

  // Phase 3: intra-node broadcast of the leader's result. With a
  // compressed local leg the leader re-encodes its final buffer (reusing
  // the wire image the leader ring is done with), adopts its own decode,
  // and an extra barrier publishes the image for the members — every
  // leader round-trips even on member-less nodes, so all ranks of the
  // world still end bit-identical.
  if (local_compressed) {
    if (local == 0) {
      encode_range(local_wire, data.data(), mine, n, 0, n);
      decode_range(local_wire, mine, data.data(), n, 0, n);
    }
    do_barrier();
    if (local != 0 && n > 0) {
      decode_range(local_wire, peer_wire_buffer(leader), data.data(), n, 0,
                   n);
      self.stats_.bytes_sent += wire_range_bytes(local_wire, n);
    }
    do_barrier();
  } else {
    if (local != 0 && !data.empty()) {
      std::memcpy(data.data(), peer_buffer(leader), n * sizeof(float));
      self.stats_.bytes_sent += n * sizeof(float);
    }
    do_barrier();
  }
}

void World::do_broadcast(Communicator& self, std::span<float> data,
                         std::size_t root) {
  const std::uint64_t seq = ++self.seq_;
  register_buffer(self.rank_, data.data(), data.size(), seq, "broadcast");
  do_barrier();
  check_rendezvous(data.size(), seq, "broadcast");
  const std::size_t P = size_;
  const std::size_t rel = (self.rank_ + P - root % P) % P;
  // Binomial tree: in round k, ranks [2^k, 2^(k+1)) (relative to root) pull
  // from the peer 2^k below them.
  for (std::size_t span = 1; span < P; span <<= 1) {
    if (rel >= span && rel < 2 * span && !data.empty()) {
      const std::size_t src_rank = (rel - span + root) % P;
      std::memcpy(data.data(), peer_buffer(src_rank),
                  data.size() * sizeof(float));
      self.stats_.bytes_sent += data.size() * sizeof(float);
    }
    do_barrier();
  }
  do_barrier();
}

void World::do_reduce_to(Communicator& self, std::span<float> data,
                         std::size_t root) {
  const std::uint64_t seq = ++self.seq_;
  register_buffer(self.rank_, data.data(), data.size(), seq, "reduce_sum_to");
  do_barrier();
  check_rendezvous(data.size(), seq, "reduce_sum_to");
  if (self.rank_ == root) {
    for (std::size_t peer = 0; peer < size_; ++peer) {
      if (peer == root) continue;
      const float* src = peer_buffer(peer);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += src[i];
      self.stats_.bytes_sent += data.size() * sizeof(float);
    }
  }
  do_barrier();
}

void World::do_allgather(Communicator& self,
                         std::span<const float> contribution,
                         std::vector<float>& gathered) {
  const std::uint64_t seq = ++self.seq_;
  register_const_buffer(self.rank_, contribution.data(), contribution.size(),
                        seq, "allgather");
  do_barrier();
  check_rendezvous(contribution.size(), seq, "allgather");
  gathered.resize(size_ * contribution.size());
  const std::size_t sent_before = self.stats_.bytes_sent;
  for (std::size_t peer = 0; peer < size_; ++peer) {
    if (peer_count(peer) == 0) continue;
    std::memcpy(gathered.data() + peer * contribution.size(),
                peer_const_buffer(peer), contribution.size() * sizeof(float));
    if (peer != self.rank_)
      self.stats_.bytes_sent += contribution.size() * sizeof(float);
  }
  self.stats_.allgather_wire_bytes[wire_dtype_index(WireDtype::kFp32)] +=
      self.stats_.bytes_sent - sent_before;
  do_barrier();
}

void World::do_reduce_scatter(Communicator& self, std::span<float> data,
                              WireDtype wire, std::size_t granularity) {
  const std::uint64_t seq = ++self.seq_;
  const std::size_t n = data.size();
  require(granularity > 0, "reduce_scatter: granularity must be > 0");
  require(n % granularity == 0,
          "reduce_scatter: element count must be divisible by granularity");
  const bool compressed = wire != WireDtype::kFp32 && size_ > 1;
  if (!compressed) wire = WireDtype::kFp32;
  const std::size_t units_total = n / granularity;
  auto seg_off = [&](std::size_t g) {
    return granularity * (g * units_total / size_);
  };
  if (compressed) {
    self.wire_scratch_.resize(wire::wire_image_scratch_elems(wire, n));
    // Per-segment entry encode: the per-hop re-encodes below operate on
    // single segments, so the int8 chunk grid must be segment-relative
    // from the start (identical bytes for the 16-bit dtypes).
    for (std::size_t g = 0; g < size_; ++g)
      encode_range(wire, data.data(), self.wire_scratch_.data(), n,
                   seg_off(g), seg_off(g + 1));
  }
  register_buffer(self.rank_, data.data(), n, seq, "reduce_scatter", wire,
                  compressed ? self.wire_scratch_.data() : nullptr,
                  granularity);
  do_barrier();
  check_rendezvous(n, seq, "reduce_scatter", wire, granularity);
  const std::size_t sent_before = self.stats_.bytes_sent;
  if (size_ > 1) {
    const std::size_t P = size_;
    const std::size_t r = self.rank_;
    auto off = seg_off;
    auto mod = [&](std::size_t a) { return a % P; };
    std::uint16_t* mine = compressed ? self.wire_scratch_.data() : nullptr;
    // The allreduce ring's scatter-reduce phase, shifted one position so
    // rank r finishes owning segment r: at step s each rank accumulates
    // segment (r - 2 - s mod P) from its predecessor, which produced that
    // partial at step s-1; the final step (s = P-2) lands segment r with
    // the full P-way sum.
    for (std::size_t s = 0; s + 1 < P; ++s) {
      const std::size_t recv_seg = mod(r + 2 * P - 2 - s);
      const std::size_t b = off(recv_seg), e = off(recv_seg + 1);
      if (compressed) {
        const std::uint16_t* src = peer_wire_buffer(mod(r + P - 1));
        if (e > b) {
          decode_add_range(wire, src, data.data(), n, b, e);
          // The successor reads this partial at step s+1. The last step's
          // result is this rank's owned segment — nobody reads it, so it
          // keeps the full fp32 master precision.
          if (s + 2 < P) encode_range(wire, data.data(), mine, n, b, e);
        }
      } else {
        const float* src = peer_buffer(mod(r + P - 1));
        for (std::size_t i = b; i < e; ++i) data[i] += src[i];
      }
      self.stats_.bytes_sent += wire_range_bytes(wire, e - b);
      do_barrier();
    }
  }
  self.stats_.reduce_scatter_wire_bytes[wire_dtype_index(wire)] +=
      self.stats_.bytes_sent - sent_before;
  do_barrier();
}

void World::do_allgather_inplace(Communicator& self, std::span<float> data,
                                 WireDtype wire, std::size_t granularity) {
  const std::uint64_t seq = ++self.seq_;
  const std::size_t n = data.size();
  require(granularity > 0, "allgather: granularity must be > 0");
  require(n % granularity == 0,
          "allgather: element count must be divisible by granularity");
  const bool compressed = wire != WireDtype::kFp32 && size_ > 1;
  if (!compressed) wire = WireDtype::kFp32;
  const std::size_t P = size_;
  const std::size_t r = self.rank_;
  const std::size_t units = n / granularity;
  auto off = [&](std::size_t g) { return granularity * (g * units / P); };
  auto mod = [&](std::size_t a) { return a % P; };
  if (compressed) {
    self.wire_scratch_.resize(wire::wire_image_scratch_elems(wire, n));
    // Only the owned segment needs a wire image before the first hop; the
    // rest of this rank's image fills in as segments propagate the ring.
    encode_range(wire, data.data(), self.wire_scratch_.data(), n, off(r),
                 off(r + 1));
  }
  register_buffer(self.rank_, data.data(), n, seq, "allgather", wire,
                  compressed ? self.wire_scratch_.data() : nullptr,
                  granularity);
  do_barrier();
  check_rendezvous(n, seq, "allgather", wire, granularity);
  const std::size_t sent_before = self.stats_.bytes_sent;
  if (P > 1) {
    std::uint16_t* mine = compressed ? self.wire_scratch_.data() : nullptr;
    if (compressed) {
      // Owner round-trip: peers decode this segment from the wire image,
      // so the contributing rank adopts the same quantized values and all
      // ranks end bit-identical (cf. allreduce_ring_compressed).
      decode_range(wire, mine, data.data(), n, off(r), off(r + 1));
    }
    // Ring allgather with rank r owning segment r: at step s each rank
    // copies segment (r - 1 - s mod P) from its predecessor, which
    // completed it at step s-1 (its own contribution for s = 0).
    for (std::size_t s = 0; s + 1 < P; ++s) {
      const std::size_t copy_seg = mod(r + 2 * P - 1 - s);
      const std::size_t b = off(copy_seg), e = off(copy_seg + 1);
      if (compressed) {
        const std::uint16_t* src = peer_wire_buffer(mod(r + P - 1));
        if (e > b) {
          copy_range(wire, mine, src, n, b, e);
          decode_range(wire, mine, data.data(), n, b, e);
        }
      } else {
        const float* src = peer_buffer(mod(r + P - 1));
        if (e > b)
          std::memcpy(data.data() + b, src + b, (e - b) * sizeof(float));
      }
      self.stats_.bytes_sent += wire_range_bytes(wire, e - b);
      do_barrier();
    }
  }
  self.stats_.allgather_wire_bytes[wire_dtype_index(wire)] +=
      self.stats_.bytes_sent - sent_before;
  do_barrier();
}

std::vector<CommStats> World::run(
    std::size_t size, const std::function<void(Communicator&)>& body,
    WorldOptions options) {
  World world(size, options);
  std::vector<std::exception_ptr> errors(size);
  // Failure order: a failing rank draws its ticket before it leaves the
  // barrier group, so a survivor that fails *because* of it (a collective
  // its peer never joined) always draws a later one.
  std::vector<std::size_t> failure_ticket(size, 0);
  std::atomic<std::size_t> next_ticket{0};
  std::vector<CommStats> stats(size);
  std::vector<std::thread> threads;
  threads.reserve(size);
  for (std::size_t r = 0; r < size; ++r) {
    threads.emplace_back(
        [&world, &body, &errors, &failure_ticket, &next_ticket, &stats, r] {
          Communicator comm(world, r);
          try {
            body(comm);
          } catch (...) {
            errors[r] = std::current_exception();
            failure_ticket[r] = next_ticket.fetch_add(1);
            // Leave the barrier group so surviving ranks cannot deadlock
            // waiting for this rank (MPI would abort the whole job here).
            world.barrier_.arrive_and_drop();
          }
          stats[r] = comm.stats();
        });
  }
  for (auto& t : threads) t.join();
  // Rethrow the root cause: the earliest failure, not the lowest rank's.
  std::size_t first = size;
  for (std::size_t r = 0; r < size; ++r)
    if (errors[r] &&
        (first == size || failure_ticket[r] < failure_ticket[first]))
      first = r;
  if (first < size) std::rethrow_exception(errors[first]);
  return stats;
}

}  // namespace candle::comm
