// Wire codec for compressed collectives: fp32 <-> fp16 / bf16 / int8.
//
// The paper shows gradient allreduce dominating step cost as the CANDLE
// benchmarks strong-scale; halving the on-wire bytes is the widest remaining
// lever once kernels are tuned. This module provides the conversion kernels
// the compressed collective paths (communicator.cpp, hvd/fusion.cpp) are
// built on:
//
//  - round-to-nearest-even in both directions (matching IEEE 754 and the
//    F16C/vcvtps2ph hardware behavior), so the scalar fallback and the
//    vectorized path produce bit-identical wire bytes;
//  - runtime dispatch like the GEMM microkernel: an F16C/AVX2 variant is
//    selected once per process when __builtin_cpu_supports says it is safe,
//    else the portable scalar kernel runs.
//
// Error bounds (tested in tests/test_codec.cpp): one fp32 -> fp16 -> fp32
// round trip of a finite value in fp16 normal range has relative error
// <= 2^-11; fp32 -> bf16 -> fp32 has relative error <= 2^-8. int8 is
// block-scaled: each kInt8ChunkElems chunk is quantized symmetrically
// against its own absmax, so one round trip has absolute error
// <= chunk_absmax / 254 per element. The compressed allreduce quantizes once
// per ring hop, so a P-rank reduction accumulates at most (P+1) such errors
// per element (see communicator.h); sub-8-bit rounding is lossy enough that
// training uses error-feedback residuals on top (see hvd/fusion.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace candle::comm {

/// On-wire element encoding for collective payloads. Master accumulation is
/// always fp32; the dtype only selects how bytes cross the (emulated)
/// interconnect. kFp32 is the bit-exact default contract.
enum class WireDtype {
  kFp32,  // no compression: 4 bytes/element, bit-exact
  kFp16,  // IEEE binary16 wire: 2 bytes/element, ~2^-11 relative error/hop
  kBf16,  // bfloat16 wire: 2 bytes/element, ~2^-8 relative error/hop
  kInt8,  // block-scaled int8: 1 byte/element + 4 B scale per chunk
};

/// Number of wire dtypes (fixed-size stats arrays in CommStats).
inline constexpr std::size_t kNumWireDtypes = 4;

/// Elements per int8 quantization chunk: one fp32 absmax scale is stored per
/// chunk, so the metadata overhead is 4/256 = 1.6% of the payload bytes.
inline constexpr std::size_t kInt8ChunkElems = 256;

/// Stable index of a dtype for stats arrays / CLI tables.
[[nodiscard]] constexpr std::size_t wire_dtype_index(WireDtype d) {
  return static_cast<std::size_t>(d);
}

/// Bytes one element's payload occupies on the wire (excludes the int8
/// per-chunk scale metadata; see wire_range_bytes for the full cost).
[[nodiscard]] constexpr std::size_t wire_width_bytes(WireDtype d) {
  switch (d) {
    case WireDtype::kFp32: return 4;
    case WireDtype::kFp16: return 2;
    case WireDtype::kBf16: return 2;
    case WireDtype::kInt8: return 1;
  }
  return 4;
}

/// Scale-metadata bytes a contiguous range of `elems` elements carries on
/// the wire: one fp32 absmax per int8 chunk, nothing for other dtypes.
[[nodiscard]] constexpr std::size_t wire_scale_bytes(WireDtype d,
                                                     std::size_t elems) {
  if (d != WireDtype::kInt8 || elems == 0) return 0;
  return sizeof(float) * ((elems + kInt8ChunkElems - 1) / kInt8ChunkElems);
}

/// Total on-wire bytes of a contiguous `elems`-element range: payload plus
/// scale metadata. This is what every CommStats byte counter charges.
[[nodiscard]] constexpr std::size_t wire_range_bytes(WireDtype d,
                                                     std::size_t elems) {
  return elems * wire_width_bytes(d) + wire_scale_bytes(d, elems);
}

/// Human-readable dtype name ("fp32" | "fp16" | "bf16" | "int8").
[[nodiscard]] const char* wire_dtype_name(WireDtype d);

/// Parses a --wire-dtype value; throws InvalidArgument on unknown names.
[[nodiscard]] WireDtype parse_wire_dtype(const char* name);

namespace wire {

// --- int8 wire-image layout -----------------------------------------------
// A compressed wire image lives in a rank's uint16 scratch buffer. For the
// 16-bit dtypes the image is simply n wire words. int8 images are planar:
//
//   [ float scales[n] | uint8 payload[n] ]
//
// The scale plane is sparse: the scale of a range's chunk j lives at
// absolute slot `range_begin + j * kInt8ChunkElems`. Chunking is relative to
// each range's own start, so the disjoint ring segments of a collective own
// disjoint scale slots and can be re-encoded per hop without touching a
// neighbour segment's metadata. The full-size plane trades scratch memory
// (4 B/element, never on the wire) for that independence.

/// uint16 scratch elements needed to hold one wire image of `n` elements
/// (none for fp32: the collectives treat it as the identity codec, whose
/// image is the fp32 buffer itself).
[[nodiscard]] constexpr std::size_t wire_image_scratch_elems(WireDtype d,
                                                             std::size_t n) {
  switch (d) {
    case WireDtype::kFp32: return 0;
    case WireDtype::kFp16: return n;
    case WireDtype::kBf16: return n;
    case WireDtype::kInt8: return (5 * n + 1) / 2;  // 4n scale + n payload B
  }
  return 0;
}

/// Scale plane of an int8 wire image (prefix of the scratch buffer; the
/// allocation is cache-line aligned, so float access is aligned).
[[nodiscard]] inline float* int8_scales(std::uint16_t* image) {
  return reinterpret_cast<float*>(image);
}
[[nodiscard]] inline const float* int8_scales(const std::uint16_t* image) {
  return reinterpret_cast<const float*>(image);
}

/// Payload plane of an int8 wire image over `n` total elements.
[[nodiscard]] inline std::uint8_t* int8_payload(std::uint16_t* image,
                                                std::size_t n) {
  return reinterpret_cast<std::uint8_t*>(image) + sizeof(float) * n;
}
[[nodiscard]] inline const std::uint8_t* int8_payload(
    const std::uint16_t* image, std::size_t n) {
  return reinterpret_cast<const std::uint8_t*>(image) + sizeof(float) * n;
}

// --- scalar reference conversions (exact RNE; used by tests and as the ----
// --- portable fallback of the dispatched kernels) -------------------------

[[nodiscard]] std::uint16_t f32_to_f16_scalar(float value);
[[nodiscard]] float f16_to_f32_scalar(std::uint16_t bits);
[[nodiscard]] std::uint16_t f32_to_bf16_scalar(float value);
[[nodiscard]] float bf16_to_f32_scalar(std::uint16_t bits);

// --- single-threaded buffer kernels (runtime-dispatched, vectorized) ------

/// Encodes `n` fp32 values into 16-bit wire words of the given dtype.
/// `dtype` must be kFp16 or kBf16 (int8 uses the planar API below).
void encode(WireDtype dtype, const float* src, std::uint16_t* dst,
            std::size_t n);

/// Decodes `n` 16-bit wire words back to fp32.
void decode(WireDtype dtype, const std::uint16_t* src, float* dst,
            std::size_t n);

/// Fused decode-accumulate: dst[i] += decode(src[i]). One memory pass where
/// decode-into-scratch-then-add would take three; this is the compressed
/// ring's reduce-scatter hot loop. The adds are elementwise (lane i only
/// ever touches dst[i]), so the vectorized path is bit-identical to scalar.
void decode_add(WireDtype dtype, const std::uint16_t* src, float* dst,
                std::size_t n);

// --- int8 planar kernels --------------------------------------------------
// All take pre-offset pointers: to operate on range [b, e) of a buffer pass
// (src + b, payload + b, scales + b, e - b), so encoder and decoder always
// agree on the chunk grid. Per chunk: scale = absmax (max over |v| compared
// as unsigned abs bits — associative, NaN-propagating, identical in scalar
// and SIMD), q = clamp(rne(v * 127/absmax), -127, 127), dequant step =
// scale / 127 with v' = q * step (mul then add in decode_add; never an FMA,
// so scalar and AVX2 results match bitwise). An all-zero chunk encodes with
// scale 0 and decodes to exact zeros.

/// Scalar reference encoder (portable; parity-tested against dispatch).
void encode_int8_reference(const float* src, std::uint8_t* payload,
                           float* scales, std::size_t n);
void decode_int8_reference(const std::uint8_t* payload, const float* scales,
                           float* dst, std::size_t n);
void decode_add_int8_reference(const std::uint8_t* payload,
                               const float* scales, float* dst,
                               std::size_t n);

/// Runtime-dispatched (AVX2 when available, else the scalar reference).
void encode_int8(const float* src, std::uint8_t* payload, float* scales,
                 std::size_t n);
void decode_int8(const std::uint8_t* payload, const float* scales, float* dst,
                 std::size_t n);
void decode_add_int8(const std::uint8_t* payload, const float* scales,
                     float* dst, std::size_t n);

/// Error-feedback helper: residual[i] = data[i] - roundtrip(data[i]) where
/// roundtrip encodes then decodes `data` at `dtype` (int8 chunking relative
/// to data[0]). Single pass, fixed-size stack scratch, deterministic at any
/// pool width (it never threads). `dtype` must not be kFp32.
void quantization_residual(WireDtype dtype, const float* data,
                           float* residual, std::size_t n);

}  // namespace wire

}  // namespace candle::comm
