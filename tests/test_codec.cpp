// Tests for src/comm/wire_codec: round-to-nearest-even fp32<->fp16/bf16
// conversions, the documented round-trip error bounds, bitwise parity of
// the dispatched (possibly vectorized) buffer kernels against the scalar
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "comm/communicator.h"
#include "comm/wire_codec.h"
#include "common/error.h"
#include "common/rng.h"

namespace candle::comm {
namespace {

float from_bits(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

std::uint32_t to_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// ---------------------------------------------------------------------------
// Scalar fp16 reference: exact values, specials, RNE ties
// ---------------------------------------------------------------------------

TEST(WireF16, ExactValues) {
  EXPECT_EQ(wire::f32_to_f16_scalar(0.0f), 0x0000);
  EXPECT_EQ(wire::f32_to_f16_scalar(-0.0f), 0x8000);
  EXPECT_EQ(wire::f32_to_f16_scalar(1.0f), 0x3C00);
  EXPECT_EQ(wire::f32_to_f16_scalar(-2.0f), 0xC000);
  EXPECT_EQ(wire::f32_to_f16_scalar(0.5f), 0x3800);
  EXPECT_EQ(wire::f32_to_f16_scalar(65504.0f), 0x7BFF);  // fp16 max normal
  // Smallest fp16 normal and subnormal are exactly representable.
  EXPECT_EQ(wire::f32_to_f16_scalar(std::ldexp(1.0f, -14)), 0x0400);
  EXPECT_EQ(wire::f32_to_f16_scalar(std::ldexp(1.0f, -24)), 0x0001);
  for (std::uint16_t h : {std::uint16_t{0x3C00}, std::uint16_t{0xC000},
                          std::uint16_t{0x0400}, std::uint16_t{0x0001},
                          std::uint16_t{0x7BFF}})
    EXPECT_EQ(wire::f32_to_f16_scalar(wire::f16_to_f32_scalar(h)), h);
}

TEST(WireF16, SpecialsAndOverflow) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(wire::f32_to_f16_scalar(inf), 0x7C00);
  EXPECT_EQ(wire::f32_to_f16_scalar(-inf), 0xFC00);
  EXPECT_TRUE(std::isinf(wire::f16_to_f32_scalar(0x7C00)));
  // Values past the fp16 range saturate to infinity (including the
  // carry-out of rounding 65520 = halfway above max, ties-to-even -> inf).
  EXPECT_EQ(wire::f32_to_f16_scalar(1.0e6f), 0x7C00);
  EXPECT_EQ(wire::f32_to_f16_scalar(65520.0f), 0x7C00);
  EXPECT_EQ(wire::f32_to_f16_scalar(-65520.0f), 0xFC00);
  // NaN stays NaN (quiet, payload truncated) in both directions.
  const std::uint16_t h = wire::f32_to_f16_scalar(
      std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(h & 0x7C00, 0x7C00);
  EXPECT_NE(h & 0x03FF, 0);
  EXPECT_TRUE(std::isnan(wire::f16_to_f32_scalar(h)));
  // Below half the smallest subnormal: rounds to (signed) zero.
  EXPECT_EQ(wire::f32_to_f16_scalar(std::ldexp(1.0f, -26)), 0x0000);
  EXPECT_EQ(wire::f32_to_f16_scalar(-std::ldexp(1.0f, -26)), 0x8000);
}

TEST(WireF16, RoundsToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 0x3C00 and 0x3C01: ties to even.
  EXPECT_EQ(wire::f32_to_f16_scalar(1.0f + std::ldexp(1.0f, -11)), 0x3C00);
  // 1 + 3*2^-11 is halfway between 0x3C01 and 0x3C02: ties to even (up).
  EXPECT_EQ(wire::f32_to_f16_scalar(1.0f + 3.0f * std::ldexp(1.0f, -11)),
            0x3C02);
  // Just above / below the tie go to the nearest.
  EXPECT_EQ(wire::f32_to_f16_scalar(1.0f + std::ldexp(1.0f, -11) +
                                    std::ldexp(1.0f, -20)),
            0x3C01);
  EXPECT_EQ(wire::f32_to_f16_scalar(1.0f + std::ldexp(1.0f, -11) -
                                    std::ldexp(1.0f, -20)),
            0x3C00);
  // Subnormal tie: 1.5 * 2^-25 is halfway between 0 and 2^-24 -> even (0),
  // and 2^-25 + 2^-24 is halfway between 2^-24 and 2^-23 -> even (2^-23).
  EXPECT_EQ(wire::f32_to_f16_scalar(std::ldexp(1.0f, -25)), 0x0000);
  EXPECT_EQ(wire::f32_to_f16_scalar(std::ldexp(3.0f, -25)), 0x0002);
}

// ---------------------------------------------------------------------------
// Scalar bf16 reference
// ---------------------------------------------------------------------------

TEST(WireBf16, ExactValuesAndSpecials) {
  EXPECT_EQ(wire::f32_to_bf16_scalar(0.0f), 0x0000);
  EXPECT_EQ(wire::f32_to_bf16_scalar(-0.0f), 0x8000);
  EXPECT_EQ(wire::f32_to_bf16_scalar(1.0f), 0x3F80);
  EXPECT_EQ(wire::f32_to_bf16_scalar(-2.0f), 0xC000);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(wire::f32_to_bf16_scalar(inf), 0x7F80);
  EXPECT_EQ(wire::f32_to_bf16_scalar(-inf), 0xFF80);
  const std::uint16_t b = wire::f32_to_bf16_scalar(
      std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(b & 0x7F80, 0x7F80);
  EXPECT_NE(b & 0x007F, 0);
  EXPECT_TRUE(std::isnan(wire::bf16_to_f32_scalar(b)));
  // Decode is a pure shift: bf16 bits widen to the identical fp32 prefix.
  EXPECT_EQ(to_bits(wire::bf16_to_f32_scalar(0x3F80)), 0x3F800000u);
  EXPECT_EQ(to_bits(wire::bf16_to_f32_scalar(0xC000)), 0xC0000000u);
}

TEST(WireBf16, RoundsToNearestEven) {
  // 0x3F808000 is exactly halfway between 0x3F80 and 0x3F81: ties to even.
  EXPECT_EQ(wire::f32_to_bf16_scalar(from_bits(0x3F808000)), 0x3F80);
  // 0x3F818000 is halfway between 0x3F81 and 0x3F82: ties to even (up).
  EXPECT_EQ(wire::f32_to_bf16_scalar(from_bits(0x3F818000)), 0x3F82);
  EXPECT_EQ(wire::f32_to_bf16_scalar(from_bits(0x3F808001)), 0x3F81);
  EXPECT_EQ(wire::f32_to_bf16_scalar(from_bits(0x3F807FFF)), 0x3F80);
}

// ---------------------------------------------------------------------------
// Round-trip error bounds (the contract comm/wire_codec.h documents)
// ---------------------------------------------------------------------------

TEST(WireRoundTrip, F16RelativeErrorWithinHalfUlp) {
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const float v =
        static_cast<float>(rng.uniform(-1.0, 1.0) * std::ldexp(1.0, i % 30 - 14));
    if (v == 0.0f || std::fabs(v) < std::ldexp(1.0f, -14) ||
        std::fabs(v) > 65504.0f)
      continue;  // the bound below holds in fp16 normal range
    const float back = wire::f16_to_f32_scalar(wire::f32_to_f16_scalar(v));
    EXPECT_LE(std::fabs(back - v), std::ldexp(std::fabs(v), -11))
        << "v=" << v;
  }
}

TEST(WireRoundTrip, Bf16RelativeErrorWithinHalfUlp) {
  Rng rng(43);
  for (int i = 0; i < 20000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1.0, 1.0) *
                                       std::ldexp(1.0, i % 60 - 30));
    if (v == 0.0f || std::fabs(v) < std::ldexp(1.0f, -126)) continue;
    const float back = wire::bf16_to_f32_scalar(wire::f32_to_bf16_scalar(v));
    EXPECT_LE(std::fabs(back - v), std::ldexp(std::fabs(v), -8))
        << "v=" << v;
  }
}

TEST(WireRoundTrip, EncodeIsIdempotentOnDecodedValues) {
  // decode(encode(x)) is a codec fixpoint: re-encoding must not move it.
  Rng rng(44);
  for (WireDtype d : {WireDtype::kFp16, WireDtype::kBf16}) {
    for (int i = 0; i < 5000; ++i) {
      const float v = static_cast<float>(rng.normal(0.0, 10.0));
      std::uint16_t w;
      float back;
      wire::encode(d, &v, &w, 1);
      wire::decode(d, &w, &back, 1);
      std::uint16_t w2;
      wire::encode(d, &back, &w2, 1);
      ASSERT_EQ(w, w2) << wire_dtype_name(d) << " v=" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatched buffer kernels: bitwise-identical to the scalar reference
// ---------------------------------------------------------------------------

std::vector<float> awkward_inputs() {
  // Specials, ties, subnormals, and enough random values to cover every
  // SIMD lane position and the scalar tail (odd length).
  std::vector<float> in{0.0f,
                        -0.0f,
                        1.0f,
                        -1.0f,
                        65504.0f,
                        65520.0f,
                        -65520.0f,
                        1.0e38f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN(),
                        1.0f + std::ldexp(1.0f, -11),
                        1.0f + 3.0f * std::ldexp(1.0f, -11),
                        from_bits(0x3F808000),
                        from_bits(0x3F818000),
                        std::ldexp(1.0f, -14),
                        std::ldexp(1.0f, -24),
                        std::ldexp(1.0f, -25),
                        std::ldexp(3.0f, -25),
                        std::ldexp(1.0f, -26),
                        -std::ldexp(1.0f, -30)};
  Rng rng(45);
  while (in.size() < 1001)
    in.push_back(static_cast<float>(rng.normal(0.0, 100.0)));
  return in;
}

TEST(WireKernels, EncodeMatchesScalarReferenceBitwise) {
  const std::vector<float> in = awkward_inputs();
  for (WireDtype d : {WireDtype::kFp16, WireDtype::kBf16}) {
    std::vector<std::uint16_t> out(in.size());
    wire::encode(d, in.data(), out.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      const std::uint16_t ref = d == WireDtype::kFp16
                                    ? wire::f32_to_f16_scalar(in[i])
                                    : wire::f32_to_bf16_scalar(in[i]);
      ASSERT_EQ(out[i], ref)
          << wire_dtype_name(d) << " i=" << i << " v=" << in[i];
    }
  }
}

TEST(WireKernels, DecodeMatchesScalarReferenceBitwise) {
  std::vector<std::uint16_t> in;
  for (std::uint32_t w = 0; w < 0x10000; w += 7)
    in.push_back(static_cast<std::uint16_t>(w));
  in.push_back(0x7C00);  // fp16 inf / bf16 large normal
  in.push_back(0x7E01);  // fp16 NaN
  in.push_back(0x7F81);  // bf16 NaN
  for (WireDtype d : {WireDtype::kFp16, WireDtype::kBf16}) {
    std::vector<float> out(in.size());
    wire::decode(d, in.data(), out.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      const float ref = d == WireDtype::kFp16
                            ? wire::f16_to_f32_scalar(in[i])
                            : wire::bf16_to_f32_scalar(in[i]);
      ASSERT_EQ(to_bits(out[i]), to_bits(ref))
          << wire_dtype_name(d) << " bits=" << in[i];
    }
  }
}

TEST(WireKernels, DecodeAddMatchesDecodeThenAddBitwise) {
  // The fused reduce-scatter kernel must equal decode-into-scratch + add
  // exactly: each lane touches only its own accumulator, so SIMD cannot
  // reorder any fp32 sum. Odd length exercises the scalar tail.
  const std::size_t n = 1013;
  std::vector<std::uint16_t> in(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = static_cast<std::uint16_t>((i * 2654435761u) >> 16);
  in[3] = 0x7E01;  // fp16 NaN / bf16 large: NaN must propagate identically
  Rng rng(47);
  std::vector<float> acc0(n);
  for (float& v : acc0) v = static_cast<float>(rng.normal(0.0, 10.0));
  for (WireDtype d : {WireDtype::kFp16, WireDtype::kBf16}) {
    std::vector<float> fused = acc0, reference = acc0, scratch(n);
    wire::decode_add(d, in.data(), fused.data(), n);
    wire::decode(d, in.data(), scratch.data(), n);
    for (std::size_t i = 0; i < n; ++i) reference[i] += scratch[i];
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(to_bits(fused[i]), to_bits(reference[i]))
          << wire_dtype_name(d) << " i=" << i;
  }
}

TEST(WireKernels, Fp32RejectsEncodeDecode) {
  float f = 1.0f;
  std::uint16_t w = 0;
  EXPECT_THROW(wire::encode(WireDtype::kFp32, &f, &w, 1), InvalidArgument);
  EXPECT_THROW(wire::decode(WireDtype::kFp32, &w, &f, 1), InvalidArgument);
  EXPECT_THROW(wire::decode_add(WireDtype::kFp32, &w, &f, 1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Block-scaled int8: error bound, exact grids, dispatch parity, residuals
// ---------------------------------------------------------------------------

// Finite random inputs spanning several chunks plus a ragged tail; includes
// an all-zero chunk (scale 0 must decode to exact zeros) and a
// wildly-scaled chunk (per-chunk absmax must isolate it).
std::vector<float> int8_inputs() {
  const std::size_t n = 5 * kInt8ChunkElems + 37;
  std::vector<float> in(n);
  Rng rng(48);
  for (float& v : in) v = static_cast<float>(rng.normal(0.0, 3.0));
  for (std::size_t i = kInt8ChunkElems; i < 2 * kInt8ChunkElems; ++i)
    in[i] = 0.0f;
  for (std::size_t i = 2 * kInt8ChunkElems; i < 3 * kInt8ChunkElems; ++i)
    in[i] *= 1.0e6f;
  return in;
}

TEST(WireInt8, RoundTripWithinChunkAbsmaxBound) {
  const std::vector<float> in = int8_inputs();
  const std::size_t n = in.size();
  std::vector<std::uint8_t> payload(n);
  std::vector<float> scales(n, -1.0f), out(n);
  wire::encode_int8_reference(in.data(), payload.data(), scales.data(), n);
  wire::decode_int8_reference(payload.data(), scales.data(), out.data(), n);
  for (std::size_t b = 0; b < n; b += kInt8ChunkElems) {
    const std::size_t e = std::min(n, b + kInt8ChunkElems);
    float absmax = 0.0f;
    for (std::size_t i = b; i < e; ++i)
      absmax = std::max(absmax, std::fabs(in[i]));
    ASSERT_EQ(scales[b], absmax) << "chunk at " << b;
    // Documented bound: symmetric 127-level grid over [-absmax, absmax]
    // rounds to nearest, so the error is at most half a step = absmax/254.
    for (std::size_t i = b; i < e; ++i)
      ASSERT_LE(std::fabs(in[i] - out[i]), absmax / 254.0f + 1e-30f)
          << "i=" << i << " v=" << in[i];
  }
  // The all-zero chunk decodes to exact zeros.
  for (std::size_t i = kInt8ChunkElems; i < 2 * kInt8ChunkElems; ++i)
    ASSERT_EQ(to_bits(out[i]), 0u);
}

TEST(WireInt8, IntegerGridValuesRoundTripExactly) {
  // v[i] = ((7 i) mod 255) - 127 puts every element on the int8 grid with
  // chunk absmax exactly 127 (7 is coprime to 255, so every full
  // 256-window contains +/-127): scale/127 = 1 and the round trip is
  // exact. Only holds for FULL chunks — a partial tail chunk of this
  // pattern can have absmax < 127 with off-grid integers.
  const std::size_t n = 3 * kInt8ChunkElems;
  std::vector<float> in(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = static_cast<float>(static_cast<int>((i * 7) % 255) - 127);
  std::vector<std::uint8_t> payload(n);
  std::vector<float> scales(n), out(n);
  wire::encode_int8(in.data(), payload.data(), scales.data(), n);
  wire::decode_int8(payload.data(), scales.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(to_bits(out[i]), to_bits(in[i])) << "i=" << i;
}

TEST(WireInt8, SignedGridExactAtAnyChunkBoundaryAndScale) {
  // w[i] in {0, +S*127, -S*127} is exact for ANY chunk size or offset:
  // every chunk's values sit at 0 or +/-absmax, so quantization yields
  // {0, +/-127} and the decode step is exactly S. This is the
  // construction the exact-sum communicator tests rely on.
  for (const float s : {1.0f, 3.0f, 10.0f}) {
    for (const std::size_t n : {1u, 11u, 256u, 779u}) {
      std::vector<float> in(n);
      for (std::size_t i = 0; i < n; ++i) {
        const float w = i % 3 == 0 ? 0.0f : i % 3 == 1 ? 127.0f : -127.0f;
        in[i] = s * w;
      }
      std::vector<std::uint8_t> payload(n);
      std::vector<float> scales(n), out(n);
      wire::encode_int8(in.data(), payload.data(), scales.data(), n);
      wire::decode_int8(payload.data(), scales.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(to_bits(out[i]), to_bits(in[i]))
            << "s=" << s << " n=" << n << " i=" << i;
    }
  }
}

TEST(WireInt8, DispatchedMatchesReferenceBitwise) {
  const std::vector<float> in = int8_inputs();
  const std::size_t n = in.size();
  std::vector<std::uint8_t> pay_ref(n), pay_dsp(n);
  std::vector<float> sc_ref(n, -1.0f), sc_dsp(n, -1.0f);
  wire::encode_int8_reference(in.data(), pay_ref.data(), sc_ref.data(), n);
  wire::encode_int8(in.data(), pay_dsp.data(), sc_dsp.data(), n);
  EXPECT_EQ(0, std::memcmp(pay_ref.data(), pay_dsp.data(), n));
  EXPECT_EQ(0, std::memcmp(sc_ref.data(), sc_dsp.data(), n * sizeof(float)));

  std::vector<float> out_ref(n), out_dsp(n);
  wire::decode_int8_reference(pay_ref.data(), sc_ref.data(), out_ref.data(),
                              n);
  wire::decode_int8(pay_ref.data(), sc_ref.data(), out_dsp.data(), n);
  EXPECT_EQ(0,
            std::memcmp(out_ref.data(), out_dsp.data(), n * sizeof(float)));

  Rng rng(49);
  std::vector<float> acc(n);
  for (float& v : acc) v = static_cast<float>(rng.normal(0.0, 10.0));
  std::vector<float> acc_ref = acc, acc_dsp = acc;
  wire::decode_add_int8_reference(pay_ref.data(), sc_ref.data(),
                                  acc_ref.data(), n);
  wire::decode_add_int8(pay_ref.data(), sc_ref.data(), acc_dsp.data(), n);
  EXPECT_EQ(0,
            std::memcmp(acc_ref.data(), acc_dsp.data(), n * sizeof(float)));
}

TEST(WireInt8, DecodeAddMatchesDecodeThenAddBitwise) {
  const std::vector<float> in = int8_inputs();
  const std::size_t n = in.size();
  std::vector<std::uint8_t> payload(n);
  std::vector<float> scales(n);
  wire::encode_int8(in.data(), payload.data(), scales.data(), n);
  Rng rng(50);
  std::vector<float> acc0(n);
  for (float& v : acc0) v = static_cast<float>(rng.normal(0.0, 10.0));
  std::vector<float> fused = acc0, reference = acc0, scratch(n);
  wire::decode_add_int8(payload.data(), scales.data(), fused.data(), n);
  wire::decode_int8(payload.data(), scales.data(), scratch.data(), n);
  for (std::size_t i = 0; i < n; ++i) reference[i] += scratch[i];
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(to_bits(fused[i]), to_bits(reference[i])) << "i=" << i;
}

TEST(WireResidual, EqualsDataMinusRoundTripBitwise) {
  const std::vector<float> in = int8_inputs();
  const std::size_t n = in.size();
  std::vector<float> residual(n, -1.0f);
  // int8: chunked relative to data[0], exactly like a fresh encode.
  wire::quantization_residual(WireDtype::kInt8, in.data(), residual.data(),
                              n);
  std::vector<std::uint8_t> payload(n);
  std::vector<float> scales(n), round(n);
  wire::encode_int8(in.data(), payload.data(), scales.data(), n);
  wire::decode_int8(payload.data(), scales.data(), round.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(to_bits(residual[i]), to_bits(in[i] - round[i])) << "i=" << i;

  // 16-bit dtypes: elementwise round trip.
  for (WireDtype d : {WireDtype::kFp16, WireDtype::kBf16}) {
    wire::quantization_residual(d, in.data(), residual.data(), n);
    std::vector<std::uint16_t> words(n);
    wire::encode(d, in.data(), words.data(), n);
    wire::decode(d, words.data(), round.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(to_bits(residual[i]), to_bits(in[i] - round[i]))
          << wire_dtype_name(d) << " i=" << i;
  }
  float f = 1.0f, r = 0.0f;
  EXPECT_THROW(wire::quantization_residual(WireDtype::kFp32, &f, &r, 1),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Names, parsing, widths
// ---------------------------------------------------------------------------

TEST(WireDtypeApi, NamesParseAndWidths) {
  for (WireDtype d : {WireDtype::kFp32, WireDtype::kFp16, WireDtype::kBf16,
                      WireDtype::kInt8})
    EXPECT_EQ(parse_wire_dtype(wire_dtype_name(d)), d);
  EXPECT_EQ(wire_width_bytes(WireDtype::kFp32), 4u);
  EXPECT_EQ(wire_width_bytes(WireDtype::kFp16), 2u);
  EXPECT_EQ(wire_width_bytes(WireDtype::kBf16), 2u);
  EXPECT_EQ(wire_width_bytes(WireDtype::kInt8), 1u);
  // Scale metadata: one fp32 absmax per 256-element chunk, int8 only.
  EXPECT_EQ(wire_scale_bytes(WireDtype::kInt8, 0), 0u);
  EXPECT_EQ(wire_scale_bytes(WireDtype::kInt8, 1), 4u);
  EXPECT_EQ(wire_scale_bytes(WireDtype::kInt8, 256), 4u);
  EXPECT_EQ(wire_scale_bytes(WireDtype::kInt8, 257), 8u);
  EXPECT_EQ(wire_scale_bytes(WireDtype::kFp16, 1024), 0u);
  EXPECT_EQ(wire_range_bytes(WireDtype::kFp32, 1024), 4096u);
  EXPECT_EQ(wire_range_bytes(WireDtype::kFp16, 1024), 2048u);
  EXPECT_EQ(wire_range_bytes(WireDtype::kInt8, 1024), 1024u + 16u);
  EXPECT_THROW(parse_wire_dtype("fp8"), InvalidArgument);
  EXPECT_THROW(parse_wire_dtype(nullptr), InvalidArgument);
  EXPECT_THROW(parse_allreduce_algo("tree"), InvalidArgument);
  for (AllreduceAlgo a : {AllreduceAlgo::kRing, AllreduceAlgo::kNaive,
                          AllreduceAlgo::kHierarchical})
    EXPECT_EQ(parse_allreduce_algo(allreduce_algo_name(a)), a);
}

}  // namespace
}  // namespace candle::comm
