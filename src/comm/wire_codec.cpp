#include "comm/wire_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/error.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace candle::comm {

const char* wire_dtype_name(WireDtype d) {
  switch (d) {
    case WireDtype::kFp32: return "fp32";
    case WireDtype::kFp16: return "fp16";
    case WireDtype::kBf16: return "bf16";
    case WireDtype::kInt8: return "int8";
  }
  return "?";
}

WireDtype parse_wire_dtype(const char* name) {
  const std::string s = name == nullptr ? "" : name;
  if (s == "fp32") return WireDtype::kFp32;
  if (s == "fp16") return WireDtype::kFp16;
  if (s == "bf16") return WireDtype::kBf16;
  if (s == "int8") return WireDtype::kInt8;
  throw InvalidArgument("parse_wire_dtype: unknown wire dtype '" + s +
                        "' (expected fp32 | fp16 | bf16 | int8)");
}

namespace wire {
namespace {

std::uint32_t f32_bits(float value) {
  std::uint32_t x;
  std::memcpy(&x, &value, sizeof(x));
  return x;
}

float bits_f32(std::uint32_t x) {
  float value;
  std::memcpy(&value, &x, sizeof(value));
  return value;
}

// Chunk absmax as a max over abs bits compared as unsigned integers: for
// IEEE floats the bit ordering equals the magnitude ordering, the max is
// order-independent (so scalar and SIMD agree bitwise), and a NaN (abs bits
// above the inf pattern) wins and poisons the chunk scale visibly.
std::uint32_t chunk_absmax_bits_scalar(const float* src, std::size_t n) {
  std::uint32_t m = 0;
  for (std::size_t i = 0; i < n; ++i)
    m = std::max(m, f32_bits(src[i]) & 0x7fffffffu);
  return m;
}

// One int8 quantization: RNE like vcvtps2dq (std::lrint honors the default
// round-to-nearest mode), then clamp to the symmetric [-127, 127] range.
std::int32_t quantize_one(float v, float inv) {
  const long q = std::lrint(v * inv);
  return static_cast<std::int32_t>(std::clamp(q, -127L, 127L));
}

}  // namespace

std::uint16_t f32_to_f16_scalar(float value) {
  const std::uint32_t x = f32_bits(value);
  const auto sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t abs = x & 0x7fffffffu;
  if (abs >= 0x7f800000u) {
    if (abs == 0x7f800000u) return sign | 0x7c00u;
    // NaN: quiet it and keep the top mantissa bits (vcvtps2ph behavior).
    return static_cast<std::uint16_t>(sign | 0x7e00u |
                                      ((abs & 0x7fffffu) >> 13));
  }
  const std::uint32_t e = abs >> 23;  // biased fp32 exponent
  const std::uint32_t m = abs & 0x7fffffu;
  if (e >= 113u) {  // half-normal range; RNE carry may still roll into inf
    if (e > 142u) return sign | 0x7c00u;  // >= 2^16 rounds to inf
    std::uint32_t h = ((e - 112u) << 10) | (m >> 13);
    const std::uint32_t rem = m & 0x1fffu;  // the 13 dropped bits
    h += (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ? 1u : 0u;
    return static_cast<std::uint16_t>(sign | h);
  }
  if (e < 102u) return sign;  // below 2^-25: rounds to (signed) zero
  // Subnormal half: shift the 24-bit significand into place with RNE.
  const std::uint32_t full = m | 0x800000u;
  const std::uint32_t shift = 126u - e;  // 14..24
  std::uint32_t h = full >> shift;
  const std::uint32_t rem = full & ((1u << shift) - 1u);
  const std::uint32_t halfway = 1u << (shift - 1u);
  h += (rem > halfway || (rem == halfway && (h & 1u))) ? 1u : 0u;
  return static_cast<std::uint16_t>(sign | h);  // carry yields min normal
}

float f16_to_f32_scalar(std::uint16_t bits) {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t e = (bits >> 10) & 0x1fu;
  std::uint32_t m = bits & 0x3ffu;
  if (e == 0) {
    if (m == 0) return bits_f32(sign);
    // Subnormal: renormalize the mantissa into fp32's implicit-1 form.
    std::uint32_t shift = 0;
    while ((m & 0x400u) == 0) {
      m <<= 1;
      ++shift;
    }
    return bits_f32(sign | ((113u - shift) << 23) | ((m & 0x3ffu) << 13));
  }
  if (e == 31u) {
    // Inf passes through; NaN is quieted (vcvtph2ps behavior) so the
    // vectorized decoder stays bit-identical to this reference.
    const std::uint32_t quiet = m == 0 ? 0u : 0x400000u;
    return bits_f32(sign | 0x7f800000u | quiet | (m << 13));
  }
  return bits_f32(sign | ((e + 112u) << 23) | (m << 13));
}

std::uint16_t f32_to_bf16_scalar(float value) {
  std::uint32_t x = f32_bits(value);
  if ((x & 0x7fffffffu) > 0x7f800000u)  // NaN: quiet, keep sign + top bits
    return static_cast<std::uint16_t>((x >> 16) | 0x0040u);
  x += 0x7fffu + ((x >> 16) & 1u);  // RNE on the 16 dropped bits
  return static_cast<std::uint16_t>(x >> 16);
}

float bf16_to_f32_scalar(std::uint16_t bits) {
  return bits_f32(static_cast<std::uint32_t>(bits) << 16);
}

void encode_int8_reference(const float* src, std::uint8_t* payload,
                           float* scales, std::size_t n) {
  for (std::size_t c = 0; c < n; c += kInt8ChunkElems) {
    const std::size_t len = std::min(kInt8ChunkElems, n - c);
    const std::uint32_t m = chunk_absmax_bits_scalar(src + c, len);
    const float absmax = bits_f32(m);
    scales[c] = absmax;
    const float inv = m != 0 ? 127.0f / absmax : 0.0f;
    for (std::size_t i = 0; i < len; ++i)
      payload[c + i] = static_cast<std::uint8_t>(
          static_cast<std::int8_t>(quantize_one(src[c + i], inv)));
  }
}

void decode_int8_reference(const std::uint8_t* payload, const float* scales,
                           float* dst, std::size_t n) {
  for (std::size_t c = 0; c < n; c += kInt8ChunkElems) {
    const std::size_t len = std::min(kInt8ChunkElems, n - c);
    const float step = scales[c] / 127.0f;
    for (std::size_t i = 0; i < len; ++i)
      dst[c + i] =
          static_cast<float>(static_cast<std::int8_t>(payload[c + i])) * step;
  }
}

void decode_add_int8_reference(const std::uint8_t* payload,
                               const float* scales, float* dst,
                               std::size_t n) {
  for (std::size_t c = 0; c < n; c += kInt8ChunkElems) {
    const std::size_t len = std::min(kInt8ChunkElems, n - c);
    const float step = scales[c] / 127.0f;
    for (std::size_t i = 0; i < len; ++i)
      dst[c + i] +=
          static_cast<float>(static_cast<std::int8_t>(payload[c + i])) * step;
  }
}

namespace {

using EncodeFn = void (*)(const float*, std::uint16_t*, std::size_t);
using DecodeFn = void (*)(const std::uint16_t*, float*, std::size_t);

void encode_f16_portable(const float* src, std::uint16_t* dst,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f32_to_f16_scalar(src[i]);
}

void decode_f16_portable(const std::uint16_t* src, float* dst,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f16_to_f32_scalar(src[i]);
}

void encode_bf16_portable(const float* src, std::uint16_t* dst,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f32_to_bf16_scalar(src[i]);
}

void decode_bf16_portable(const std::uint16_t* src, float* dst,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = bf16_to_f32_scalar(src[i]);
}

void decode_add_f16_portable(const std::uint16_t* src, float* dst,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += f16_to_f32_scalar(src[i]);
}

void decode_add_bf16_portable(const std::uint16_t* src, float* dst,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += bf16_to_f32_scalar(src[i]);
}

#if defined(__x86_64__)

// F16C variants: vcvtps2ph/vcvtph2ps convert 8 lanes per instruction with
// hardware round-to-nearest-even — bit-identical to the scalar reference
// (tests/test_codec.cpp asserts the parity). Function-level target
// attributes keep the rest of the TU baseline x86-64, like the GEMM
// microkernel; only reached after __builtin_cpu_supports says it is safe.
__attribute__((target("f16c,avx2"))) void encode_f16_f16c(
    const float* src, std::uint16_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    const __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = f32_to_f16_scalar(src[i]);
}

__attribute__((target("f16c,avx2"))) void decode_f16_f16c(
    const std::uint16_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) dst[i] = f16_to_f32_scalar(src[i]);
}

// AVX2 bf16 encode: the RNE rounding-add and the NaN-quieting select run 8
// lanes at a time; finite values (including +-inf) take the add path, NaNs
// are replaced by sign|exponent with a forced quiet mantissa bit.
__attribute__((target("avx2"))) void encode_bf16_avx2(const float* src,
                                                      std::uint16_t* dst,
                                                      std::size_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i exp_inf = _mm256_set1_epi32(0x7f800000);
  const __m256i bias = _mm256_set1_epi32(0x7fff);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i quiet = _mm256_set1_epi32(0x0040);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i abs = _mm256_and_si256(x, abs_mask);
    // abs and exp_inf are both non-negative, so the signed compare is safe.
    const __m256i is_nan = _mm256_cmpgt_epi32(abs, exp_inf);
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(x, 16), one);
    const __m256i rounded =
        _mm256_add_epi32(x, _mm256_add_epi32(bias, lsb));
    const __m256i nan16 =
        _mm256_or_si256(_mm256_srli_epi32(x, 16), quiet);
    const __m256i fin16 = _mm256_srli_epi32(rounded, 16);
    const __m256i r = _mm256_blendv_epi8(fin16, nan16, is_nan);
    // Both halves hold 16-bit values; pack preserving order.
    const __m128i lo = _mm256_castsi256_si128(r);
    const __m128i hi = _mm256_extracti128_si256(r, 1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packus_epi32(lo, hi));
  }
  for (; i < n; ++i) dst[i] = f32_to_bf16_scalar(src[i]);
}

__attribute__((target("avx2"))) void decode_bf16_avx2(
    const std::uint16_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m256i w = _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), w);
  }
  for (; i < n; ++i) dst[i] = bf16_to_f32_scalar(src[i]);
}

// Fused decode+accumulate: each lane adds only into its own dst element, so
// SIMD stays bit-identical to the scalar reference — there is no
// cross-lane reduction whose association order could differ.
__attribute__((target("f16c,avx2"))) void decode_add_f16_f16c(
    const std::uint16_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m256 sum =
        _mm256_add_ps(_mm256_loadu_ps(dst + i), _mm256_cvtph_ps(h));
    _mm256_storeu_ps(dst + i, sum);
  }
  for (; i < n; ++i) dst[i] += f16_to_f32_scalar(src[i]);
}

__attribute__((target("avx2"))) void decode_add_bf16_avx2(
    const std::uint16_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m256 v = _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), v));
  }
  for (; i < n; ++i) dst[i] += bf16_to_f32_scalar(src[i]);
}

// AVX2 chunk absmax: vpmaxud over abs bits, then a lane-order-free
// horizontal max — every step is an exact unsigned integer max, so the
// result is the same bit pattern the scalar loop produces.
__attribute__((target("avx2"))) std::uint32_t chunk_absmax_bits_avx2(
    const float* src, std::size_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  __m256i vm = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    vm = _mm256_max_epu32(vm, _mm256_and_si256(x, abs_mask));
  }
  __m128i m4 = _mm_max_epu32(_mm256_castsi256_si128(vm),
                             _mm256_extracti128_si256(vm, 1));
  m4 = _mm_max_epu32(m4, _mm_shuffle_epi32(m4, _MM_SHUFFLE(1, 0, 3, 2)));
  m4 = _mm_max_epu32(m4, _mm_shuffle_epi32(m4, _MM_SHUFFLE(2, 3, 0, 1)));
  auto m = static_cast<std::uint32_t>(_mm_cvtsi128_si32(m4));
  for (; i < n; ++i) m = std::max(m, f32_bits(src[i]) & 0x7fffffffu);
  return m;
}

// AVX2 int8 encode: vcvtps2dq rounds RNE exactly like the scalar lrint
// path, the clamp runs before the saturating packs (so the packs are
// value-preserving), and the scale is computed from the exact absmax bits.
__attribute__((target("avx2"))) void encode_int8_avx2(const float* src,
                                                      std::uint8_t* payload,
                                                      float* scales,
                                                      std::size_t n) {
  const __m256i hi_q = _mm256_set1_epi32(127);
  const __m256i lo_q = _mm256_set1_epi32(-127);
  for (std::size_t c = 0; c < n; c += kInt8ChunkElems) {
    const std::size_t len = std::min(kInt8ChunkElems, n - c);
    const std::uint32_t m = chunk_absmax_bits_avx2(src + c, len);
    const float absmax = bits_f32(m);
    scales[c] = absmax;
    const float inv = m != 0 ? 127.0f / absmax : 0.0f;
    const __m256 vinv = _mm256_set1_ps(inv);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      const __m256 v = _mm256_loadu_ps(src + c + i);
      __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(v, vinv));
      q = _mm256_min_epi32(_mm256_max_epi32(q, lo_q), hi_q);
      const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(payload + c + i),
                       _mm_packs_epi16(w, w));
    }
    for (; i < len; ++i)
      payload[c + i] = static_cast<std::uint8_t>(
          static_cast<std::int8_t>(quantize_one(src[c + i], inv)));
  }
}

__attribute__((target("avx2"))) void decode_int8_avx2(
    const std::uint8_t* payload, const float* scales, float* dst,
    std::size_t n) {
  for (std::size_t c = 0; c < n; c += kInt8ChunkElems) {
    const std::size_t len = std::min(kInt8ChunkElems, n - c);
    const float step = scales[c] / 127.0f;
    const __m256 vstep = _mm256_set1_ps(step);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      const __m128i b =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(payload + c + i));
      const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
      _mm256_storeu_ps(dst + c + i, _mm256_mul_ps(v, vstep));
    }
    for (; i < len; ++i)
      dst[c + i] =
          static_cast<float>(static_cast<std::int8_t>(payload[c + i])) * step;
  }
}

// Explicit mul-then-add (never an FMA) so the accumulate matches the scalar
// reference bitwise, like the 16-bit decode_add kernels above.
__attribute__((target("avx2"))) void decode_add_int8_avx2(
    const std::uint8_t* payload, const float* scales, float* dst,
    std::size_t n) {
  for (std::size_t c = 0; c < n; c += kInt8ChunkElems) {
    const std::size_t len = std::min(kInt8ChunkElems, n - c);
    const float step = scales[c] / 127.0f;
    const __m256 vstep = _mm256_set1_ps(step);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      const __m128i b =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(payload + c + i));
      const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
      _mm256_storeu_ps(dst + c + i, _mm256_add_ps(_mm256_loadu_ps(dst + c + i),
                                                  _mm256_mul_ps(v, vstep)));
    }
    for (; i < len; ++i)
      dst[c + i] +=
          static_cast<float>(static_cast<std::int8_t>(payload[c + i])) * step;
  }
}

#endif  // __x86_64__

EncodeFn select_f16_encoder() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx2"))
    return encode_f16_f16c;
#endif
  return encode_f16_portable;
}

DecodeFn select_f16_decoder() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx2"))
    return decode_f16_f16c;
#endif
  return decode_f16_portable;
}

EncodeFn select_bf16_encoder() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return encode_bf16_avx2;
#endif
  return encode_bf16_portable;
}

DecodeFn select_bf16_decoder() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return decode_bf16_avx2;
#endif
  return decode_bf16_portable;
}

DecodeFn select_f16_decode_add() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx2"))
    return decode_add_f16_f16c;
#endif
  return decode_add_f16_portable;
}

DecodeFn select_bf16_decode_add() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return decode_add_bf16_avx2;
#endif
  return decode_add_bf16_portable;
}

using EncodeInt8Fn = void (*)(const float*, std::uint8_t*, float*,
                              std::size_t);
using DecodeInt8Fn = void (*)(const std::uint8_t*, const float*, float*,
                              std::size_t);

EncodeInt8Fn select_int8_encoder() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return encode_int8_avx2;
#endif
  return encode_int8_reference;
}

DecodeInt8Fn select_int8_decoder() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return decode_int8_avx2;
#endif
  return decode_int8_reference;
}

DecodeInt8Fn select_int8_decode_add() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return decode_add_int8_avx2;
#endif
  return decode_add_int8_reference;
}

}  // namespace

void encode(WireDtype dtype, const float* src, std::uint16_t* dst,
            std::size_t n) {
  require(dtype == WireDtype::kFp16 || dtype == WireDtype::kBf16,
          "wire::encode: 16-bit dtypes only (int8 uses the planar API)");
  static const EncodeFn f16 = select_f16_encoder();
  static const EncodeFn bf16 = select_bf16_encoder();
  (dtype == WireDtype::kFp16 ? f16 : bf16)(src, dst, n);
}

void decode(WireDtype dtype, const std::uint16_t* src, float* dst,
            std::size_t n) {
  require(dtype == WireDtype::kFp16 || dtype == WireDtype::kBf16,
          "wire::decode: 16-bit dtypes only (int8 uses the planar API)");
  static const DecodeFn f16 = select_f16_decoder();
  static const DecodeFn bf16 = select_bf16_decoder();
  (dtype == WireDtype::kFp16 ? f16 : bf16)(src, dst, n);
}

void decode_add(WireDtype dtype, const std::uint16_t* src, float* dst,
                std::size_t n) {
  require(dtype == WireDtype::kFp16 || dtype == WireDtype::kBf16,
          "wire::decode_add: 16-bit dtypes only (int8 uses the planar API)");
  static const DecodeFn f16 = select_f16_decode_add();
  static const DecodeFn bf16 = select_bf16_decode_add();
  (dtype == WireDtype::kFp16 ? f16 : bf16)(src, dst, n);
}

void encode_int8(const float* src, std::uint8_t* payload, float* scales,
                 std::size_t n) {
  static const EncodeInt8Fn fn = select_int8_encoder();
  fn(src, payload, scales, n);
}

void decode_int8(const std::uint8_t* payload, const float* scales, float* dst,
                 std::size_t n) {
  static const DecodeInt8Fn fn = select_int8_decoder();
  fn(payload, scales, dst, n);
}

void decode_add_int8(const std::uint8_t* payload, const float* scales,
                     float* dst, std::size_t n) {
  static const DecodeInt8Fn fn = select_int8_decode_add();
  fn(payload, scales, dst, n);
}

void quantization_residual(WireDtype dtype, const float* data, float* residual,
                           std::size_t n) {
  require(dtype != WireDtype::kFp32,
          "wire::quantization_residual: fp32 has no quantization error");
  // Blocks are a multiple of kInt8ChunkElems, so blockwise int8 encoding
  // reproduces the chunk grid of one whole-range encode starting at data[0].
  constexpr std::size_t kBlock = 4 * kInt8ChunkElems;
  float rt[kBlock];
  if (dtype == WireDtype::kInt8) {
    std::uint8_t payload[kBlock];
    float scales[kBlock];  // sparse: only slots j * kInt8ChunkElems are used
    for (std::size_t b = 0; b < n; b += kBlock) {
      const std::size_t len = std::min(kBlock, n - b);
      encode_int8(data + b, payload, scales, len);
      decode_int8(payload, scales, rt, len);
      for (std::size_t i = 0; i < len; ++i)
        residual[b + i] = data[b + i] - rt[i];
    }
    return;
  }
  std::uint16_t words[kBlock];
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t len = std::min(kBlock, n - b);
    encode(dtype, data + b, words, len);
    decode(dtype, words, rt, len);
    for (std::size_t i = 0; i < len; ++i) residual[b + i] = data[b + i] - rt[i];
  }
}

}  // namespace wire
}  // namespace candle::comm
