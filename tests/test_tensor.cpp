// Tests for src/tensor: Tensor, elementwise ops, conv1d/pool kernels.
// Gradient kernels are validated against finite differences; the blocked
// GEMM core has its own golden suite in test_gemm.cpp.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace candle {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double stddev = 1.0) {
  Tensor t(std::move(shape));
  for (float& v : t.values()) v = static_cast<float>(rng.normal(0, stddev));
  return t;
}

// ---------------------------------------------------------------------------
// Tensor basics
// ---------------------------------------------------------------------------

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0u);
}

TEST(Tensor, ShapeAndNumel) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_THROW((void)t.dim(3), InvalidArgument);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({5, 5});
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({3}, 2.5f);
  EXPECT_FLOAT_EQ(t.sum(), 7.5f);
}

TEST(Tensor, FromValuesChecksSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2}), InvalidArgument);
}

TEST(Tensor, OutOfRangeAtReportsIndexAndSize) {
  // The message is built only on the failing branch, but still names the
  // offending index and the element count.
  Tensor t({2, 3});
  try {
    (void)t.at(6);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ("Tensor::at: index 6 out of range for 6 elements", e.what());
  }
  const Tensor& ct = t;
  EXPECT_THROW((void)ct.at(100), InvalidArgument);
  EXPECT_NO_THROW((void)ct.at(5));
}

TEST(Tensor, At2D) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(t[1 * 3 + 2], 7.0f);
  EXPECT_THROW((void)t.at(2, 0), InvalidArgument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from({1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({2, 3});
  EXPECT_FLOAT_EQ(r.at(1, 0), 4.0f);
  EXPECT_THROW((void)t.reshaped({4, 2}), InvalidArgument);
}

TEST(Tensor, InPlaceArithmetic) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({10, 20, 30});
  a += b;
  EXPECT_FLOAT_EQ(a[2], 33.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a[2], 3.0f);
  a *= 2.0f;
  EXPECT_FLOAT_EQ(a[0], 2.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2, 2});
  Tensor b({4});
  EXPECT_THROW(a += b, InvalidArgument);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from({-1, 0, 3, 2});
  EXPECT_FLOAT_EQ(t.sum(), 4.0f);
  EXPECT_FLOAT_EQ(t.mean(), 1.0f);
  EXPECT_FLOAT_EQ(t.min(), -1.0f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
  EXPECT_FLOAT_EQ(t.sq_norm(), 14.0f);
}

// ---------------------------------------------------------------------------
// Elementwise / bias / activations
// ---------------------------------------------------------------------------

TEST(Ops, AddSubMulScale) {
  const Tensor a = Tensor::from({1, 2});
  const Tensor b = Tensor::from({3, 5});
  EXPECT_FLOAT_EQ(add(a, b)[1], 7.0f);
  EXPECT_FLOAT_EQ(sub(b, a)[0], 2.0f);
  EXPECT_FLOAT_EQ(mul(a, b)[1], 10.0f);
  EXPECT_FLOAT_EQ(scale(a, -2.0f)[0], -2.0f);
}

TEST(Ops, AddBiasRows) {
  Tensor y({2, 3}, {0, 0, 0, 1, 1, 1});
  const Tensor bias = Tensor::from({10, 20, 30});
  add_bias_rows(y, bias);
  EXPECT_FLOAT_EQ(y.at(0, 2), 30.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 11.0f);
}

TEST(Ops, SumRows) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor s = sum_rows(a);
  EXPECT_FLOAT_EQ(s[0], 5.0f);
  EXPECT_FLOAT_EQ(s[2], 9.0f);
}

TEST(Ops, Axpy) {
  const Tensor x = Tensor::from({1, 2});
  Tensor y = Tensor::from({10, 10});
  axpy(0.5f, x, y);
  EXPECT_FLOAT_EQ(y[1], 11.0f);
}

TEST(Ops, ReluForwardBackward) {
  const Tensor x = Tensor::from({-1, 0, 2});
  const Tensor y = relu(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor dy = Tensor::from({1, 1, 1});
  const Tensor dx = relu_backward(dy, y);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[2], 1.0f);
}

TEST(Ops, SigmoidValues) {
  const Tensor x = Tensor::from({0});
  EXPECT_FLOAT_EQ(sigmoid(x)[0], 0.5f);
  const Tensor big = Tensor::from({30});
  EXPECT_NEAR(sigmoid(big)[0], 1.0f, 1e-6f);
}

TEST(Ops, TanhMatchesStd) {
  const Tensor x = Tensor::from({-0.5f, 0.7f});
  const Tensor y = tanh_act(x);
  EXPECT_NEAR(y[0], std::tanh(-0.5f), 1e-6f);
  EXPECT_NEAR(y[1], std::tanh(0.7f), 1e-6f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(3);
  const Tensor x = random_tensor({4, 7}, rng, 3.0);
  const Tensor y = softmax_rows(x);
  for (std::size_t i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_GT(y.at(i, j), 0.0f);
      sum += y.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits) {
  const Tensor x({1, 2}, {1000.0f, 999.0f});
  const Tensor y = softmax_rows(x);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_GT(y[0], y[1]);
}

TEST(Ops, ArgmaxRows) {
  const Tensor x({2, 3}, {0, 5, 1, 9, 2, 3});
  const auto idx = argmax_rows(x);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);
}

// ---------------------------------------------------------------------------
// Conv1D / pooling — forward shapes and finite-difference gradients
// ---------------------------------------------------------------------------

TEST(Conv1d, OutLength) {
  EXPECT_EQ(conv1d_out_length(10, 3, 1), 8u);
  EXPECT_EQ(conv1d_out_length(10, 3, 2), 4u);
  EXPECT_EQ(conv1d_out_length(3, 3, 1), 1u);
  EXPECT_THROW(conv1d_out_length(2, 3, 1), InvalidArgument);
}

TEST(Conv1d, ForwardKnownValues) {
  Tensor x({1, 4, 1}, {1, 2, 3, 4});
  Tensor w({2, 1, 1}, {1, 1});  // sum of adjacent elements
  Tensor b({1}, std::vector<float>{0.5f});
  const Tensor y = conv1d_forward(x, w, b, 1);
  ASSERT_EQ(y.shape(), (Shape{1, 3, 1}));
  EXPECT_FLOAT_EQ(y[0], 3.5f);
  EXPECT_FLOAT_EQ(y[1], 5.5f);
  EXPECT_FLOAT_EQ(y[2], 7.5f);
}

TEST(Conv1d, ForwardMultiChannelSpotCheck) {
  Rng rng(4);
  const Tensor x = random_tensor({2, 8, 3}, rng);
  const Tensor w = random_tensor({3, 3, 5}, rng);
  const Tensor b = random_tensor({5}, rng);
  const Tensor y = conv1d_forward(x, w, b, 2);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 5}));
  double acc = b[1];
  for (std::size_t k = 0; k < 3; ++k)
    for (std::size_t c = 0; c < 3; ++c)
      acc += static_cast<double>(x[(1 * 8 + (2 * 2 + k)) * 3 + c]) *
             w[(k * 3 + c) * 5 + 1];
  EXPECT_NEAR(y[(1 * 3 + 2) * 5 + 1], acc, 1e-4);
}

TEST(Conv1d, BackwardMatchesFiniteDifference) {
  Rng rng(5);
  Tensor x = random_tensor({2, 7, 2}, rng, 0.5);
  Tensor w = random_tensor({3, 2, 4}, rng, 0.5);
  Tensor b = random_tensor({4}, rng, 0.1);
  const std::size_t stride = 2;

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    return static_cast<double>(conv1d_forward(xx, ww, bb, stride).sum());
  };
  const Tensor y = conv1d_forward(x, w, b, stride);
  const Tensor dy(y.shape(), 1.0f);
  Tensor dx(x.shape()), dw(w.shape()), db(b.shape());
  conv1d_backward(x, w, dy, stride, dx, dw, db);

  const float eps = 1e-2f;
  for (std::size_t i : {std::size_t{0}, w.numel() / 2, w.numel() - 1}) {
    Tensor wp = w;
    wp[i] += eps;
    Tensor wm = w;
    wm[i] -= eps;
    const double fd = (loss(x, wp, b) - loss(x, wm, b)) / (2.0 * eps);
    EXPECT_NEAR(dw[i], fd, 5e-2) << "dW[" << i << "]";
  }
  for (std::size_t i : {std::size_t{0}, x.numel() / 2, x.numel() - 1}) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const double fd = (loss(xp, w, b) - loss(xm, w, b)) / (2.0 * eps);
    EXPECT_NEAR(dx[i], fd, 5e-2) << "dX[" << i << "]";
  }
  for (std::size_t i = 0; i < b.numel(); ++i) {
    Tensor bp = b;
    bp[i] += eps;
    Tensor bm = b;
    bm[i] -= eps;
    const double fd = (loss(x, w, bp) - loss(x, w, bm)) / (2.0 * eps);
    EXPECT_NEAR(db[i], fd, 5e-2) << "dB[" << i << "]";
  }
}

TEST(MaxPool1d, ForwardSelectsMaxAndRecordsArgmax) {
  Tensor x({1, 6, 1}, {1, 5, 2, 8, 3, 4});
  std::vector<std::size_t> argmax;
  const Tensor y = maxpool1d_forward(x, 2, 2, argmax);
  ASSERT_EQ(y.shape(), (Shape{1, 3, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
  EXPECT_FLOAT_EQ(y[2], 4.0f);
  EXPECT_EQ(argmax[0], 1u);
  EXPECT_EQ(argmax[1], 3u);
  EXPECT_EQ(argmax[2], 5u);
}

TEST(MaxPool1d, BackwardRoutesToArgmax) {
  Tensor x({1, 4, 1}, {1, 9, 2, 3});
  std::vector<std::size_t> argmax;
  const Tensor y = maxpool1d_forward(x, 2, 2, argmax);
  const Tensor dy(y.shape(), 1.0f);
  const Tensor dx = maxpool1d_backward(dy, x.shape(), argmax);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 1.0f);
}

TEST(MaxPool1d, PerChannelIndependence) {
  Tensor x({1, 2, 2}, {1, 8, 9, 2});
  std::vector<std::size_t> argmax;
  const Tensor y = maxpool1d_forward(x, 2, 2, argmax);
  EXPECT_FLOAT_EQ(y[0], 9.0f);  // channel 0: max(1, 9)
  EXPECT_FLOAT_EQ(y[1], 8.0f);  // channel 1: max(8, 2)
}

TEST(GlobalAvgPool, ForwardAndBackward) {
  Tensor x({1, 3, 2}, {1, 2, 3, 4, 5, 6});
  const Tensor y = global_avgpool1d_forward(x);
  ASSERT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 4.0f);
  const Tensor dy({1, 2}, {3.0f, 6.0f});
  const Tensor dx = global_avgpool1d_backward(dy, x.shape());
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[1], 2.0f);
}

}  // namespace
}  // namespace candle
