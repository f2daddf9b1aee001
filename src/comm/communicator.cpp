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

// The codec at the dispatch point of every collective: operations on range
// [b, e) of a rank's wire image over `n` total elements. fp32 is the
// identity codec — an fp32 image is the rank's buffer itself, so encoding
// (and decoding onto that same buffer) does nothing, decoding a peer's
// image is a memcpy and decode-add is the plain fp32 add. For the 16-bit
// dtypes the range is simply words [b, e); for int8 the payload and scale
// planes are addressed with pre-offset pointers, so the quantization chunk
// grid is always relative to the range start and disjoint ring segments own
// disjoint scale slots (wire_codec.h). Every collective therefore encodes
// int8 per segment — never as one whole-buffer range — so encoder and
// decoder agree on the grid at every hop.

const std::uint16_t* words(const void* image) {
  return static_cast<const std::uint16_t*>(image);
}
std::uint16_t* words(void* image) { return static_cast<std::uint16_t*>(image); }

void encode_range(WireDtype wire, const float* data, void* image,
                  std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b || wire == WireDtype::kFp32) return;
  if (wire == WireDtype::kInt8)
    wire::encode_int8(data + b, wire::int8_payload(words(image), n) + b,
                      wire::int8_scales(words(image)) + b, e - b);
  else
    wire::encode(wire, data + b, words(image) + b, e - b);
}

void decode_range(WireDtype wire, const void* image, float* data,
                  std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b) return;
  if (wire == WireDtype::kFp32) {
    if (image != data)
      std::memcpy(data + b, static_cast<const float*>(image) + b,
                  (e - b) * sizeof(float));
  } else if (wire == WireDtype::kInt8) {
    wire::decode_int8(wire::int8_payload(words(image), n) + b,
                      wire::int8_scales(words(image)) + b, data + b, e - b);
  } else {
    wire::decode(wire, words(image) + b, data + b, e - b);
  }
}

void decode_add_range(WireDtype wire, const void* image, float* data,
                      std::size_t n, std::size_t b, std::size_t e) {
  if (e <= b) return;
  if (wire == WireDtype::kFp32) {
    const float* src = static_cast<const float*>(image);
    for (std::size_t i = b; i < e; ++i) data[i] += src[i];
  } else if (wire == WireDtype::kInt8) {
    wire::decode_add_int8(wire::int8_payload(words(image), n) + b,
                          wire::int8_scales(words(image)) + b, data + b,
                          e - b);
  } else {
    wire::decode_add(wire, words(image) + b, data + b, e - b);
  }
}

// Propagates range [b, e) of a peer's wire image into ours (ring allgather
// hops): the payload elements plus, for int8, the range's scale slots.
void copy_range(WireDtype wire, void* dst, const void* src, std::size_t n,
                std::size_t b, std::size_t e) {
  if (e <= b) return;
  if (wire == WireDtype::kInt8) {
    std::memcpy(wire::int8_payload(words(dst), n) + b,
                wire::int8_payload(words(src), n) + b, e - b);
    float* dst_scales = wire::int8_scales(words(dst));
    const float* src_scales = wire::int8_scales(words(src));
    for (std::size_t s = b; s < e; s += kInt8ChunkElems)
      dst_scales[s] = src_scales[s];
  } else {
    const std::size_t width = wire_width_bytes(wire);
    std::memcpy(static_cast<char*>(dst) + b * width,
                static_cast<const char*>(src) + b * width, (e - b) * width);
  }
}

// Sizes a rank's persistent wire scratch for the compressed legs of one
// call and returns it; a call whose legs are all fp32 never touches it.
std::uint16_t* stage_scratch(std::vector<std::uint16_t>& scratch,
                             std::size_t n, WireDtype wire,
                             WireDtype local_wire = WireDtype::kFp32) {
  if (wire == WireDtype::kFp32 && local_wire == WireDtype::kFp32)
    return nullptr;
  scratch.resize(std::max(wire::wire_image_scratch_elems(wire, n),
                          wire::wire_image_scratch_elems(local_wire, n)));
  return scratch.data();
}

// A rank's own image for one leg: its buffer for fp32, else its scratch.
void* own_image(WireDtype wire, std::span<float> data,
                std::vector<std::uint16_t>& scratch) {
  return wire == WireDtype::kFp32 ? static_cast<void*>(data.data())
                                  : static_cast<void*>(scratch.data());
}

}  // namespace

// A strided rank set {first + k * stride : k < count}. As a ring, member k
// receives from member k-1, segment g of an n-element buffer covers
// [off(g), off(g+1)), and after the reduce-scatter phase member k owns
// segment (k + owner) % count.
struct World::Group {
  std::size_t first = 0;
  std::size_t stride = 1;
  std::size_t count = 1;
  std::size_t owner = 0;
  std::size_t granularity = 1;

  [[nodiscard]] bool has(std::size_t rank) const {
    return rank >= first && (rank - first) % stride == 0 &&
           (rank - first) / stride < count;
  }
  [[nodiscard]] std::size_t index(std::size_t rank) const {
    return (rank - first) / stride;
  }
  [[nodiscard]] std::size_t at(std::size_t k) const {
    return first + k % count * stride;
  }
  [[nodiscard]] std::size_t off(std::size_t g, std::size_t n) const {
    return granularity * (g * (n / granularity) / count);
  }
};

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
  // Slot r of the result is rank r's contribution: seed our own slot, then
  // the in-place ring allgather with one slot per segment fills the rest.
  const std::size_t n = contribution.size();
  gathered.resize(size() * n);
  std::copy(contribution.begin(), contribution.end(),
            gathered.begin() + static_cast<std::ptrdiff_t>(rank_ * n));
  world_->do_allgather_inplace(*this, gathered, WireDtype::kFp32,
                               std::max<std::size_t>(n, 1));
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

const void* World::peer_image(std::size_t rank, WireDtype wire) const {
  MutexLock lock(reg_mutex_);
  if (wire == WireDtype::kFp32) return bufs_[rank];
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

void World::publish_segments(Communicator& self, std::span<float> data,
                             WireDtype wire, const Group& ring) {
  void* mine = own_image(wire, data, self.wire_scratch_);
  for (std::size_t g = 0; g < ring.count; ++g)
    encode_range(wire, data.data(), mine, data.size(), ring.off(g, data.size()),
                 ring.off(g + 1, data.size()));
}

void World::ring_reduce_scatter(Communicator& self, std::span<float> data,
                                WireDtype wire, const Group& ring,
                                bool publish_last) {
  const std::size_t P = ring.count;
  if (P < 2) return;
  const std::size_t n = data.size();
  const bool member = ring.has(self.rank_);
  const std::size_t k = ring.index(self.rank_);
  const void* src = member ? peer_image(ring.at(k + P - 1), wire) : nullptr;
  void* mine = own_image(wire, data, self.wire_scratch_);
  // At step s member k accumulates segment (k + owner - 2 - s) from its
  // predecessor, which produced that partial at step s-1; the last step
  // (s = P-2) completes the owned segment (k + owner) with all P terms.
  // Between barriers each member writes only its own buffer and image.
  for (std::size_t s = 0; s + 1 < P; ++s) {
    if (member) {
      const std::size_t g = (k + ring.owner + 2 * P - 2 - s) % P;
      const std::size_t b = ring.off(g, n), e = ring.off(g + 1, n);
      decode_add_range(wire, src, data.data(), n, b, e);
      // The successor reads this partial at step s+1 — and the completed
      // owned segment in its first allgather step, if one follows.
      if (publish_last || s + 2 < P)
        encode_range(wire, data.data(), mine, n, b, e);
      self.stats_.bytes_sent += wire_range_bytes(wire, e - b);
    }
    do_barrier();
  }
}

void World::ring_allgather(Communicator& self, std::span<float> data,
                           WireDtype wire, const Group& ring) {
  const std::size_t P = ring.count;
  if (P < 2) return;
  const std::size_t n = data.size();
  const bool member = ring.has(self.rank_);
  const std::size_t k = ring.index(self.rank_);
  const void* src = member ? peer_image(ring.at(k + P - 1), wire) : nullptr;
  void* mine = own_image(wire, data, self.wire_scratch_);
  if (member) {
    // Owner round-trip: peers decode the owned segment from our image, so
    // we adopt the same values and every member ends bit-identical.
    const std::size_t own = (k + ring.owner) % P;
    decode_range(wire, mine, data.data(), n, ring.off(own, n),
                 ring.off(own + 1, n));
  }
  // At step s member k copies segment (k + owner - 1 - s) from its
  // predecessor, which completed it at step s-1 (its owned one for s = 0).
  for (std::size_t s = 0; s + 1 < P; ++s) {
    if (member) {
      const std::size_t g = (k + ring.owner + 2 * P - 1 - s) % P;
      const std::size_t b = ring.off(g, n), e = ring.off(g + 1, n);
      copy_range(wire, mine, src, n, b, e);
      decode_range(wire, mine, data.data(), n, b, e);
      self.stats_.bytes_sent += wire_range_bytes(wire, e - b);
    }
    do_barrier();
  }
}

void World::root_reduce(Communicator& self, std::span<float> data,
                        WireDtype wire, const Group& group, std::size_t root) {
  if (self.rank_ != root) return;
  const std::size_t n = data.size();
  for (std::size_t k = 0; k < group.count; ++k) {
    const std::size_t peer = group.at(k);
    if (peer == root) continue;
    decode_add_range(wire, peer_image(peer, wire), data.data(), n, 0, n);
    self.stats_.bytes_sent += wire_range_bytes(wire, n);
  }
}

void World::root_broadcast(Communicator& self, std::span<float> data,
                           WireDtype wire, std::size_t root) {
  const std::size_t n = data.size();
  if (self.rank_ == root) {
    // Publish the result and adopt its decode, so the root ends
    // bit-identical to the members that decode it.
    void* mine = own_image(wire, data, self.wire_scratch_);
    encode_range(wire, data.data(), mine, n, 0, n);
    decode_range(wire, mine, data.data(), n, 0, n);
  }
  do_barrier();
  if (self.rank_ != root) {
    decode_range(wire, peer_image(root, wire), data.data(), n, 0, n);
    self.stats_.bytes_sent += wire_range_bytes(wire, n);
  }
  do_barrier();
}

void World::allreduce(Communicator& self, std::span<float> data, bool average,
                      WireDtype wire) {
  const std::uint64_t seq = ++self.seq_;
  const std::size_t n = data.size();
  const std::size_t P = size_;
  const AllreduceAlgo algo = options_.allreduce_algo;
  // A single-rank reduction moves no bytes; keep it exact regardless of the
  // requested dtype (all ranks take this branch identically).
  if (P == 1) wire = WireDtype::kFp32;
  // The hierarchical local-leg dtype is world-level configuration, so every
  // rank derives the same value — no rendezvous cross-check needed.
  const WireDtype local_wire = algo == AllreduceAlgo::kHierarchical && P > 1
                                   ? options_.local_wire_dtype
                                   : WireDtype::kFp32;
  // Hierarchical: node = this rank's node, led by its first rank; leaders =
  // the ring over every node's leader.
  const std::size_t rpn = options_.ranks_per_node;
  const std::size_t leader = self.rank_ / rpn * rpn;
  const Group world{0, 1, P, /*owner=*/1};
  const Group node{leader, 1, std::min(P, leader + rpn) - leader};
  const Group leaders{0, rpn, (P + rpn - 1) / rpn, /*owner=*/1};
  std::uint16_t* scratch =
      stage_scratch(self.wire_scratch_, n, wire, local_wire);
  // Publish every image a peer reads right after the rendezvous barrier.
  if (algo == AllreduceAlgo::kRing)
    publish_segments(self, data, wire, world);
  else if (algo == AllreduceAlgo::kNaive && self.rank_ != 0)
    encode_range(wire, data.data(), scratch, n, 0, n);
  else if (algo == AllreduceAlgo::kHierarchical && self.rank_ != leader)
    encode_range(local_wire, data.data(), scratch, n, 0, n);
  register_buffer(self.rank_, data.data(), n, seq, "allreduce", wire, scratch);
  do_barrier();
  check_rendezvous(n, seq, "allreduce", wire);
  const std::size_t sent_before = self.stats_.bytes_sent;
  if (P > 1) {
    switch (algo) {
      case AllreduceAlgo::kRing:
        ring_reduce_scatter(self, data, wire, world, /*publish_last=*/true);
        ring_allgather(self, data, wire, world);
        break;
      case AllreduceAlgo::kNaive:
        root_reduce(self, data, wire, world, 0);
        root_broadcast(self, data, wire, 0);
        break;
      case AllreduceAlgo::kHierarchical:
        // Summit's two levels — NVLink within a node, InfiniBand between
        // node leaders — as NCCL runs multi-node jobs: `local_wire` on the
        // intra-node legs, `wire` on the leader ring.
        root_reduce(self, data, local_wire, node, leader);
        if (self.rank_ == leader && leaders.count > 1)
          publish_segments(self, data, wire, leaders);
        do_barrier();
        ring_reduce_scatter(self, data, wire, leaders, /*publish_last=*/true);
        ring_allgather(self, data, wire, leaders);
        root_broadcast(self, data, local_wire, leader);
        break;
    }
  }
  self.stats_.allreduce_wire_bytes[allreduce_algo_index(algo)]
                                  [wire_dtype_index(wire)] +=
      self.stats_.bytes_sent - sent_before;
  if (average && P > 1) {
    // Runs after the reduction as the same fp32 op on bit-identical inputs
    // on every rank, so averaging preserves rank-invariance for any dtype.
    const float inv = 1.0f / static_cast<float>(P);
    for (float& v : data) v *= inv;
  }
  do_barrier();
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
      std::memcpy(data.data(), peer_image(src_rank, WireDtype::kFp32),
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
  root_reduce(self, data, WireDtype::kFp32, Group{0, 1, size_}, root);
  do_barrier();
}

void World::do_reduce_scatter(Communicator& self, std::span<float> data,
                              WireDtype wire, std::size_t granularity) {
  const std::uint64_t seq = ++self.seq_;
  const std::size_t n = data.size();
  require(granularity > 0, "reduce_scatter: granularity must be > 0");
  require(n % granularity == 0,
          "reduce_scatter: element count must be divisible by granularity");
  if (size_ == 1) wire = WireDtype::kFp32;
  const Group ring{0, 1, size_, /*owner=*/0, granularity};
  std::uint16_t* scratch = stage_scratch(self.wire_scratch_, n, wire);
  publish_segments(self, data, wire, ring);
  register_buffer(self.rank_, data.data(), n, seq, "reduce_scatter", wire,
                  scratch, granularity);
  do_barrier();
  check_rendezvous(n, seq, "reduce_scatter", wire, granularity);
  const std::size_t sent_before = self.stats_.bytes_sent;
  // Nobody reads the owned segment, so it keeps full fp32 master precision.
  ring_reduce_scatter(self, data, wire, ring, /*publish_last=*/false);
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
  if (size_ == 1) wire = WireDtype::kFp32;
  const Group ring{0, 1, size_, /*owner=*/0, granularity};
  std::uint16_t* scratch = stage_scratch(self.wire_scratch_, n, wire);
  // Only the owned segment needs an image before the first hop; the rest of
  // ours fills in as segments propagate around the ring.
  encode_range(wire, data.data(), own_image(wire, data, self.wire_scratch_),
               n, ring.off(self.rank_, n), ring.off(self.rank_ + 1, n));
  register_buffer(self.rank_, data.data(), n, seq, "allgather", wire, scratch,
                  granularity);
  do_barrier();
  check_rendezvous(n, seq, "allgather", wire, granularity);
  const std::size_t sent_before = self.stats_.bytes_sent;
  ring_allgather(self, data, wire, ring);
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
