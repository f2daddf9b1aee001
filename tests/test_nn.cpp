// Tests for src/nn: layers, losses, metrics, optimizers, model training.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "io/synthetic.h"
#include "nn/dataset.h"
#include "nn/initializers.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace candle::nn {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double stddev = 1.0) {
  Tensor t(std::move(shape));
  for (float& v : t.values()) v = static_cast<float>(rng.normal(0, stddev));
  return t;
}

// ---------------------------------------------------------------------------
// Initializers
// ---------------------------------------------------------------------------

TEST(Initializers, GlorotUniformWithinLimit) {
  Rng rng(1);
  Tensor w({100, 50});
  glorot_uniform(w, 100, 50, rng);
  const double limit = std::sqrt(6.0 / 150.0);
  EXPECT_LE(w.max(), limit);
  EXPECT_GE(w.min(), -limit);
  EXPECT_NEAR(w.mean(), 0.0, 0.02);
}

TEST(Initializers, HeUniformWithinLimit) {
  Rng rng(2);
  Tensor w({64, 64});
  he_uniform(w, 64, rng);
  const double limit = std::sqrt(6.0 / 64.0);
  EXPECT_LE(w.max(), limit);
  EXPECT_GE(w.min(), -limit);
}

TEST(Initializers, ZerosInit) {
  Tensor w({4}, 9.0f);
  zeros_init(w);
  EXPECT_FLOAT_EQ(w.sum(), 0.0f);
}

// ---------------------------------------------------------------------------
// Activation helpers
// ---------------------------------------------------------------------------

TEST(Activations, ParseNames) {
  EXPECT_EQ(act_from_string("relu"), Act::kRelu);
  EXPECT_EQ(act_from_string("softmax"), Act::kSoftmax);
  EXPECT_EQ(act_from_string("linear"), Act::kNone);
  EXPECT_THROW(act_from_string("gelu"), InvalidArgument);
}

TEST(Activations, SoftmaxBackwardMatchesFiniteDifference) {
  Rng rng(3);
  const Tensor x = random_tensor({2, 5}, rng);
  const Tensor y = apply_activation(Act::kSoftmax, x);
  // Loss = sum(y * c) for a fixed random c: dL/dy = c.
  const Tensor c = random_tensor({2, 5}, rng);
  const Tensor dx = activation_backward(Act::kSoftmax, c, y);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const float lp = mul(apply_activation(Act::kSoftmax, xp), c).sum();
    const float lm = mul(apply_activation(Act::kSoftmax, xm), c).sum();
    EXPECT_NEAR(dx[i], (lp - lm) / (2 * eps), 2e-3f) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Layers: shapes and gradients
// ---------------------------------------------------------------------------

TEST(DenseLayer, BuildShapesAndParamCount) {
  Rng rng(1);
  Dense d(8, Act::kRelu);
  const Shape out = d.build({20}, rng);
  EXPECT_EQ(out, (Shape{8}));
  EXPECT_EQ(d.param_count(), 20u * 8 + 8);
}

TEST(DenseLayer, ForwardMatchesManualComputation) {
  Rng rng(1);
  Dense d(2, Act::kNone);
  d.build({3}, rng);
  const Tensor x({1, 3}, {1, 2, 3});
  const Tensor y = d.forward(x, false);
  const Tensor& w = d.weights();
  float expect0 = 0;
  for (std::size_t j = 0; j < 3; ++j) expect0 += x[j] * w.at(j, 0);
  EXPECT_NEAR(y.at(0, 0), expect0, 1e-5f);
}

TEST(DenseLayer, GradientsMatchFiniteDifference) {
  Rng rng(7);
  Dense d(4, Act::kTanh);
  d.build({5}, rng);
  const Tensor x = random_tensor({3, 5}, rng, 0.5);
  const Tensor c = random_tensor({3, 4}, rng);  // loss = sum(y ⊙ c)

  const Tensor y = d.forward(x, true);
  const Tensor dx = d.backward(c);
  const Tensor dw = *d.grads()[0];

  Tensor* w = d.params()[0];
  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{0}, w->numel() / 2, w->numel() - 1}) {
    const float orig = (*w)[i];
    (*w)[i] = orig + eps;
    const float lp = mul(d.forward(x, true), c).sum();
    (*w)[i] = orig - eps;
    const float lm = mul(d.forward(x, true), c).sum();
    (*w)[i] = orig;
    EXPECT_NEAR(dw[i], (lp - lm) / (2 * eps), 5e-3f) << "dW[" << i << "]";
  }
  for (std::size_t i : {std::size_t{0}, x.numel() - 1}) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const float lp = mul(d.forward(xp, true), c).sum();
    const float lm = mul(d.forward(xm, true), c).sum();
    d.forward(x, true);  // restore cached input
    EXPECT_NEAR(dx[i], (lp - lm) / (2 * eps), 5e-3f) << "dX[" << i << "]";
  }
}

TEST(InferenceForward, MatchesTrainingForwardAndRefusesBackward) {
  // An inference forward keeps no activations: it must produce the same
  // output as a training forward, and a backward after it must fail loudly
  // instead of reading stale or empty caches.
  Rng rng(40);
  std::vector<std::unique_ptr<Layer>> layers;
  std::vector<Shape> inputs;
  layers.push_back(std::make_unique<Dense>(6, Act::kRelu));
  inputs.push_back({5});
  layers.push_back(std::make_unique<Dense>(6, Act::kTanh));
  inputs.push_back({5});
  layers.push_back(std::make_unique<Conv1D>(4, 3, 1, Act::kRelu));
  inputs.push_back({9, 2});
  layers.push_back(std::make_unique<Conv1D>(4, 3, 2, Act::kSigmoid));
  inputs.push_back({9, 2});
  layers.push_back(std::make_unique<LocallyConnected1D>(3, 3, 2, Act::kTanh));
  inputs.push_back({7, 2});
  layers.push_back(std::make_unique<Activation>(Act::kSoftmax));
  inputs.push_back({5});
  for (std::size_t i = 0; i < layers.size(); ++i) {
    Layer& layer = *layers[i];
    layer.build(inputs[i], rng);
    Shape batch_shape{3};
    batch_shape.insert(batch_shape.end(), inputs[i].begin(), inputs[i].end());
    const Tensor x = random_tensor(batch_shape, rng);
    const Tensor trained = layer.forward(x, true);
    const Tensor dy = random_tensor(trained.shape(), rng);
    EXPECT_NO_THROW((void)layer.backward(dy)) << layer.describe();
    const Tensor inferred = layer.forward(x, false);
    ASSERT_EQ(trained.shape(), inferred.shape()) << layer.describe();
    EXPECT_EQ(0, std::memcmp(trained.data(), inferred.data(),
                             trained.numel() * sizeof(float)))
        << layer.describe();
    EXPECT_THROW((void)layer.backward(dy), InvalidArgument) << layer.describe();
    (void)layer.forward(x, true);  // a training forward re-arms backward
    EXPECT_NO_THROW((void)layer.backward(dy)) << layer.describe();
  }
  BatchNorm bn;
  bn.build({4}, rng);
  const Tensor x = random_tensor({8, 4}, rng);
  (void)bn.forward(x, false);
  EXPECT_THROW((void)bn.backward(random_tensor({8, 4}, rng)),
               InvalidArgument);
}

TEST(Conv1DLayer, BuildComputesOutputShape) {
  Rng rng(1);
  Conv1D conv(16, 9, 1, Act::kRelu);
  const Shape out = conv.build({100, 1}, rng);
  EXPECT_EQ(out, (Shape{92, 16}));
  EXPECT_EQ(conv.param_count(), 9u * 1 * 16 + 16);
}

TEST(LocallyConnectedLayer, ShapesAndParamCount) {
  Rng rng(20);
  LocallyConnected1D lc(4, 3, 2, Act::kNone);
  const Shape out = lc.build({9, 2}, rng);
  EXPECT_EQ(out, (Shape{4, 4}));  // (9-3)/2+1 = 4 positions, 4 filters
  // Untied weights: per-position kernels + per-position bias.
  EXPECT_EQ(lc.param_count(), 4u * 3 * 2 * 4 + 4u * 4);
}

TEST(LocallyConnectedLayer, UntiedWeightsDifferAcrossPositions) {
  // A constant input produces different outputs at different positions
  // (conv would produce identical ones).
  Rng rng(21);
  LocallyConnected1D lc(1, 2, 1, Act::kNone);
  lc.build({4, 1}, rng);
  const Tensor x({1, 4, 1}, 1.0f);
  const Tensor y = lc.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 3, 1}));
  EXPECT_NE(y[0], y[1]);

  Conv1D conv(1, 2, 1, Act::kNone);
  conv.build({4, 1}, rng);
  const Tensor yc = conv.forward(x, false);
  EXPECT_FLOAT_EQ(yc[0], yc[1]);  // tied conv weights: identical outputs
}

TEST(LocallyConnectedLayer, GradientsMatchFiniteDifference) {
  Rng rng(22);
  LocallyConnected1D lc(3, 3, 2, Act::kTanh);
  lc.build({7, 2}, rng);
  const Tensor x = random_tensor({2, 7, 2}, rng, 0.5);
  const Tensor y0 = lc.forward(x, true);
  const Tensor c = random_tensor(y0.shape(), rng);
  (void)lc.forward(x, true);
  const Tensor dx = lc.backward(c);
  const Tensor dw = *lc.grads()[0];
  const Tensor db = *lc.grads()[1];

  Tensor* w = lc.params()[0];
  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{0}, w->numel() / 2, w->numel() - 1}) {
    const float orig = (*w)[i];
    (*w)[i] = orig + eps;
    const float lp = mul(lc.forward(x, true), c).sum();
    (*w)[i] = orig - eps;
    const float lm = mul(lc.forward(x, true), c).sum();
    (*w)[i] = orig;
    EXPECT_NEAR(dw[i], (lp - lm) / (2 * eps), 1e-2f) << "dW[" << i << "]";
  }
  for (std::size_t i : {std::size_t{0}, x.numel() - 1}) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const float lp = mul(lc.forward(xp, true), c).sum();
    const float lm = mul(lc.forward(xm, true), c).sum();
    lc.forward(x, true);
    EXPECT_NEAR(dx[i], (lp - lm) / (2 * eps), 1e-2f) << "dX[" << i << "]";
  }
  Tensor* bias = lc.params()[1];
  for (std::size_t i : {std::size_t{0}, bias->numel() - 1}) {
    const float orig = (*bias)[i];
    (*bias)[i] = orig + eps;
    const float lp = mul(lc.forward(x, true), c).sum();
    (*bias)[i] = orig - eps;
    const float lm = mul(lc.forward(x, true), c).sum();
    (*bias)[i] = orig;
    EXPECT_NEAR(db[i], (lp - lm) / (2 * eps), 1e-2f) << "dB[" << i << "]";
  }
}

TEST(MaxPoolLayer, DefaultStrideEqualsWindow) {
  Rng rng(1);
  MaxPool1D pool(4);
  EXPECT_EQ(pool.build({100, 8}, rng), (Shape{25, 8}));
}

TEST(AvgPoolLayer, ForwardAveragesWindows) {
  Rng rng(30);
  AvgPool1D pool(2);
  EXPECT_EQ(pool.build({6, 1}, rng), (Shape{3, 1}));
  Tensor x({1, 6, 1}, {1, 3, 5, 7, 9, 11});
  const Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
  EXPECT_FLOAT_EQ(y[2], 10.0f);
}

TEST(AvgPoolLayer, BackwardSpreadsGradientEvenly) {
  Rng rng(31);
  AvgPool1D pool(3);
  pool.build({3, 2}, rng);
  Tensor x({1, 3, 2}, {1, 2, 3, 4, 5, 6});
  (void)pool.forward(x, false);
  const Tensor dy({1, 1, 2}, {3.0f, 6.0f});
  const Tensor dx = pool.backward(dy);
  ASSERT_EQ(dx.shape(), x.shape());
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_FLOAT_EQ(dx[t * 2 + 0], 1.0f);
    EXPECT_FLOAT_EQ(dx[t * 2 + 1], 2.0f);
  }
}

TEST(AvgPoolLayer, GradientMatchesFiniteDifference) {
  Rng rng(32);
  AvgPool1D pool(2, 2);
  pool.build({8, 3}, rng);
  const Tensor x = random_tensor({2, 8, 3}, rng);
  const Tensor y = pool.forward(x, false);
  const Tensor c = random_tensor(y.shape(), rng);
  (void)pool.forward(x, false);
  const Tensor dx = pool.backward(c);
  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{0}, x.numel() / 2, x.numel() - 1}) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const float lp = mul(pool.forward(xp, false), c).sum();
    const float lm = mul(pool.forward(xm, false), c).sum();
    EXPECT_NEAR(dx[i], (lp - lm) / (2 * eps), 2e-3f) << i;
  }
}

TEST(FlattenLayer, RoundTrip) {
  Rng rng(1);
  Flatten f;
  EXPECT_EQ(f.build({7, 3}, rng), (Shape{21}));
  const Tensor x({2, 7, 3}, 1.0f);
  const Tensor y = f.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 21}));
  const Tensor back = f.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(ExpandDimsLayer, AddsChannelAxis) {
  Rng rng(1);
  ExpandDims e;
  EXPECT_EQ(e.build({60}, rng), (Shape{60, 1}));
  const Tensor x({2, 60}, 0.5f);
  EXPECT_EQ(e.forward(x, false).shape(), (Shape{2, 60, 1}));
}

TEST(DropoutLayer, InferenceIsIdentity) {
  Rng rng(1);
  Dropout drop(0.5);
  drop.build({10}, rng);
  const Tensor x({4, 10}, 1.0f);
  const Tensor y = drop.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 1.0f);
}

TEST(DropoutLayer, TrainingZeroesAndRescales) {
  Rng rng(1);
  Dropout drop(0.5);
  drop.build({1000}, rng);
  const Tensor x({1, 1000}, 1.0f);
  const Tensor y = drop.forward(x, /*training=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // kept values scaled by 1/(1-rate)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros), 500.0, 80.0);
  // Expected value preserved (inverted dropout).
  EXPECT_NEAR(y.mean(), 1.0f, 0.2f);
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  Rng rng(1);
  Dropout drop(0.3);
  drop.build({100}, rng);
  const Tensor x({1, 100}, 1.0f);
  const Tensor y = drop.forward(x, true);
  const Tensor dy({1, 100}, 1.0f);
  const Tensor dx = drop.backward(dy);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(dx[i], y[i]);
}

TEST(DropoutLayer, RejectsBadRate) {
  EXPECT_THROW(Dropout(-0.1), InvalidArgument);
  EXPECT_THROW(Dropout(1.0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// BatchNorm
// ---------------------------------------------------------------------------

TEST(BatchNormLayer, TrainingForwardStandardizesBatch) {
  Rng rng(10);
  BatchNorm bn;
  bn.build({3}, rng);
  Tensor x = random_tensor({64, 3}, rng, 4.0);
  x += Tensor({64, 3}, 7.0f);  // shifted, wide distribution
  const Tensor y = bn.forward(x, /*training=*/true);
  for (std::size_t j = 0; j < 3; ++j) {
    double mean = 0, var = 0;
    for (std::size_t i = 0; i < 64; ++i) mean += y.at(i, j);
    mean /= 64;
    for (std::size_t i = 0; i < 64; ++i) {
      const double d = y.at(i, j) - mean;
      var += d * d;
    }
    var /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 0.05);  // epsilon slightly shrinks variance
  }
}

TEST(BatchNormLayer, InferenceUsesRunningStatistics) {
  Rng rng(11);
  BatchNorm bn(/*momentum=*/0.0);  // running stats = last batch stats
  bn.build({2}, rng);
  Tensor x = random_tensor({128, 2}, rng, 2.0);
  (void)bn.forward(x, true);
  // At inference, the same batch should normalize to ~N(0,1) using the
  // stored running stats.
  const Tensor y = bn.forward(x, false);
  double mean = 0;
  for (std::size_t i = 0; i < 128; ++i) mean += y.at(i, 0);
  EXPECT_NEAR(mean / 128, 0.0, 0.05);
}

TEST(BatchNormLayer, GammaBetaAreTrainable) {
  Rng rng(12);
  BatchNorm bn;
  bn.build({4}, rng);
  EXPECT_EQ(bn.params().size(), 2u);
  EXPECT_EQ(bn.param_count(), 8u);
}

TEST(BatchNormLayer, BackwardMatchesFiniteDifferenceForGamma) {
  Rng rng(13);
  BatchNorm bn;
  bn.build({3}, rng);
  const Tensor x = random_tensor({16, 3}, rng);
  const Tensor c = random_tensor({16, 3}, rng);  // loss = sum(y ⊙ c)
  (void)bn.forward(x, true);
  (void)bn.backward(c);
  const Tensor dgamma = *bn.grads()[0];
  Tensor* gamma = bn.params()[0];
  const float eps = 1e-3f;
  for (std::size_t j = 0; j < 3; ++j) {
    const float orig = (*gamma)[j];
    (*gamma)[j] = orig + eps;
    const float lp = mul(bn.forward(x, true), c).sum();
    (*gamma)[j] = orig - eps;
    const float lm = mul(bn.forward(x, true), c).sum();
    (*gamma)[j] = orig;
    EXPECT_NEAR(dgamma[j], (lp - lm) / (2 * eps), 2e-2f) << j;
  }
}

TEST(BatchNormLayer, BackwardMatchesFiniteDifferenceForInput) {
  Rng rng(14);
  BatchNorm bn;
  bn.build({2}, rng);
  const Tensor x = random_tensor({8, 2}, rng);
  const Tensor c = random_tensor({8, 2}, rng);
  (void)bn.forward(x, true);
  const Tensor dx = bn.backward(c);
  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, x.numel() - 1}) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const float lp = mul(bn.forward(xp, true), c).sum();
    const float lm = mul(bn.forward(xm, true), c).sum();
    EXPECT_NEAR(dx[i], (lp - lm) / (2 * eps), 2e-2f) << i;
  }
}

TEST(BatchNormLayer, ImprovesDeepSigmoidTraining) {
  // A sanity check of the practical effect: with badly scaled inputs, a
  // batch-normalized MLP reaches a lower loss than the same MLP without.
  io::ClassificationSpec spec;
  spec.samples = 200;
  spec.features = 10;
  spec.classes = 2;
  spec.informative = 10;
  spec.class_sep = 2.0;
  spec.noise = 0.8;
  spec.seed = 15;
  Dataset d = io::make_classification(spec);
  for (float& v : d.x.values()) v = v * 30.0f + 100.0f;  // wreck the scale

  auto train = [&](bool with_bn) {
    Model m;
    if (with_bn) m.add<BatchNorm>();
    m.add<Dense>(16, Act::kSigmoid);
    m.add<Dense>(2, Act::kSoftmax);
    m.compile({10}, make_optimizer("sgd", 0.05),
              make_loss("categorical_crossentropy"), 16);
    FitOptions opt;
    opt.epochs = 25;
    opt.batch_size = 50;
    return m.fit(d, opt).final_loss();
  };
  EXPECT_LT(train(true), train(false));
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

TEST(Losses, CceValueForPerfectPrediction) {
  const Tensor pred({1, 2}, {1.0f, 0.0f});
  const Tensor target({1, 2}, {1.0f, 0.0f});
  CategoricalCrossentropy cce;
  EXPECT_NEAR(cce.value(pred, target), 0.0f, 1e-5f);
}

TEST(Losses, CceValueKnown) {
  const Tensor pred({1, 2}, {0.5f, 0.5f});
  const Tensor target({1, 2}, {1.0f, 0.0f});
  CategoricalCrossentropy cce;
  EXPECT_NEAR(cce.value(pred, target), std::log(2.0f), 1e-5f);
}

TEST(Losses, CceGradientComposedWithSoftmaxIsPredMinusTarget) {
  // d(CCE ∘ softmax)/dlogits = (p - t) / batch — the standard identity.
  Rng rng(4);
  const Tensor logits = random_tensor({3, 4}, rng);
  const Tensor p = softmax_rows(logits);
  Tensor t({3, 4});
  t.at(0, 1) = 1;
  t.at(1, 0) = 1;
  t.at(2, 3) = 1;
  CategoricalCrossentropy cce;
  const Tensor dpred = cce.gradient(p, t);
  const Tensor dlogits = activation_backward(Act::kSoftmax, dpred, p);
  for (std::size_t i = 0; i < dlogits.numel(); ++i)
    EXPECT_NEAR(dlogits[i], (p[i] - t[i]) / 3.0f, 1e-4f);
}

TEST(Losses, MseValueAndGradient) {
  const Tensor pred({2, 1}, {1.0f, 3.0f});
  const Tensor target({2, 1}, {0.0f, 1.0f});
  MeanSquaredError mse;
  EXPECT_NEAR(mse.value(pred, target), (1.0f + 4.0f) / 2.0f, 1e-6f);
  const Tensor g = mse.gradient(pred, target);
  EXPECT_NEAR(g[0], 2.0f * 1.0f / 2.0f, 1e-6f);
  EXPECT_NEAR(g[1], 2.0f * 2.0f / 2.0f, 1e-6f);
}

TEST(Losses, MaeValueAndGradientSigns) {
  const Tensor pred({1, 3}, {1.0f, -2.0f, 0.0f});
  const Tensor target({1, 3}, {0.0f, 0.0f, 0.0f});
  MeanAbsoluteError mae;
  EXPECT_NEAR(mae.value(pred, target), 1.0f, 1e-6f);
  const Tensor g = mae.gradient(pred, target);
  EXPECT_GT(g[0], 0.0f);
  EXPECT_LT(g[1], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(Losses, FactoryNames) {
  EXPECT_EQ(make_loss("mse")->name(), "mse");
  EXPECT_EQ(make_loss("categorical_crossentropy")->name(),
            "categorical_crossentropy");
  EXPECT_THROW(make_loss("hinge"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, Accuracy) {
  const Tensor pred({2, 2}, {0.9f, 0.1f, 0.4f, 0.6f});
  const Tensor target({2, 2}, {1, 0, 1, 0});
  EXPECT_FLOAT_EQ(accuracy(pred, target), 0.5f);
}

TEST(Metrics, R2PerfectAndMean) {
  const Tensor t({3, 1}, {1, 2, 3});
  EXPECT_FLOAT_EQ(r2_score(t, t), 1.0f);
  const Tensor mean_pred({3, 1}, {2, 2, 2});
  EXPECT_NEAR(r2_score(mean_pred, t), 0.0f, 1e-6f);
}

TEST(Metrics, Mae) {
  const Tensor p({2, 1}, {1.0f, 2.0f});
  const Tensor t({2, 1}, {0.0f, 4.0f});
  EXPECT_FLOAT_EQ(mean_absolute_error(p, t), 1.5f);
}

// ---------------------------------------------------------------------------
// Optimizers
// ---------------------------------------------------------------------------

TEST(Optimizers, SgdStep) {
  Tensor w = Tensor::from({1.0f});
  Tensor g = Tensor::from({0.5f});
  Sgd sgd(0.1);
  sgd.apply({&w}, {&g});
  EXPECT_NEAR(w[0], 1.0f - 0.1f * 0.5f, 1e-6f);
}

TEST(Optimizers, SgdMomentumAccumulates) {
  Tensor w = Tensor::from({0.0f});
  Tensor g = Tensor::from({1.0f});
  Sgd sgd(0.1, 0.9);
  sgd.apply({&w}, {&g});
  EXPECT_NEAR(w[0], -0.1f, 1e-6f);
  sgd.apply({&w}, {&g});
  // v2 = 0.9*(-0.1) - 0.1 = -0.19; w = -0.1 - 0.19
  EXPECT_NEAR(w[0], -0.29f, 1e-6f);
}

TEST(Optimizers, AdamFirstStepSizeIsLr) {
  // With bias correction, the first Adam step is ~lr * sign(g).
  Tensor w = Tensor::from({0.0f});
  Tensor g = Tensor::from({3.0f});
  Adam adam(0.001);
  adam.apply({&w}, {&g});
  EXPECT_NEAR(w[0], -0.001f, 1e-5f);
}

TEST(Optimizers, RmspropNormalizesStepScale) {
  // Gradients of very different magnitudes produce similar step sizes.
  Tensor w1 = Tensor::from({0.0f}), g1 = Tensor::from({100.0f});
  Tensor w2 = Tensor::from({0.0f}), g2 = Tensor::from({0.01f});
  RmsProp o1(0.01), o2(0.01);
  for (int i = 0; i < 20; ++i) {
    o1.apply({&w1}, {&g1});
    o2.apply({&w2}, {&g2});
  }
  EXPECT_NEAR(w1[0] / w2[0], 1.0f, 0.05f);
}

TEST(Optimizers, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 with each optimizer.
  for (const char* name : {"sgd", "adam", "rmsprop"}) {
    auto opt = make_optimizer(name, name == std::string("sgd") ? 0.1 : 0.05);
    Tensor w = Tensor::from({0.0f});
    for (int i = 0; i < 500; ++i) {
      Tensor g = Tensor::from({2.0f * (w[0] - 3.0f)});
      opt->apply({&w}, {&g});
    }
    EXPECT_NEAR(w[0], 3.0f, 0.05f) << name;
  }
}

TEST(Optimizers, NesterovLooksAhead) {
  // First step: classic gives -lr*g; Nesterov gives -(1+mu)*lr*g.
  Tensor w1 = Tensor::from({0.0f}), g = Tensor::from({1.0f});
  Sgd classic(0.1, 0.9);
  classic.apply({&w1}, {&g});
  Tensor w2 = Tensor::from({0.0f});
  Sgd nesterov(0.1, 0.9, true);
  nesterov.apply({&w2}, {&g});
  EXPECT_NEAR(w1[0], -0.1f, 1e-6f);
  EXPECT_NEAR(w2[0], -0.19f, 1e-6f);  // mu*v - lr*g with v = -0.1
}

TEST(Optimizers, NesterovRequiresMomentum) {
  EXPECT_THROW(Sgd(0.1, 0.0, true), InvalidArgument);
}

TEST(Optimizers, ClippingScalesLargeGradients) {
  Tensor w = Tensor::from({0.0f, 0.0f});
  Tensor g = Tensor::from({3.0f, 4.0f});  // norm 5
  ClippedOptimizer opt(std::make_unique<Sgd>(1.0), /*max_norm=*/1.0);
  opt.apply({&w}, {&g});
  // Clipped gradient = (0.6, 0.8); step = -1.0 * that.
  EXPECT_NEAR(w[0], -0.6f, 1e-5f);
  EXPECT_NEAR(w[1], -0.8f, 1e-5f);
  EXPECT_EQ(opt.clip_events(), 1u);
}

TEST(Optimizers, ClippingLeavesSmallGradientsAlone) {
  Tensor w = Tensor::from({0.0f});
  Tensor g = Tensor::from({0.5f});
  ClippedOptimizer opt(std::make_unique<Sgd>(0.1), 10.0);
  opt.apply({&w}, {&g});
  EXPECT_NEAR(w[0], -0.05f, 1e-6f);
  EXPECT_EQ(opt.clip_events(), 0u);
}

TEST(Optimizers, LearningRateScalingHook) {
  auto opt = make_optimizer("sgd", 0.001);
  opt->set_learning_rate(0.001 * 48);
  EXPECT_DOUBLE_EQ(opt->learning_rate(), 0.048);
}

TEST(Optimizers, MismatchedListsThrow) {
  Tensor w({2});
  Tensor g({3});
  Sgd sgd(0.1);
  EXPECT_THROW(sgd.apply({&w}, {&g}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Dataset utilities
// ---------------------------------------------------------------------------

TEST(DatasetUtils, TakeRows) {
  const Tensor t({4, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  const Tensor s = take_rows(t, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at(0, 0), 2.0f);
  EXPECT_THROW((void)take_rows(t, 3, 2), InvalidArgument);
}

TEST(DatasetUtils, GatherRows) {
  const Tensor t({3, 2}, {0, 1, 10, 11, 20, 21});
  const Tensor s = gather_rows(t, {2, 0});
  EXPECT_FLOAT_EQ(s.at(0, 1), 21.0f);
  EXPECT_FLOAT_EQ(s.at(1, 0), 0.0f);
}

TEST(DatasetUtils, OneHot) {
  const Tensor y = one_hot({1, 0, 2}, 3);
  EXPECT_EQ(y.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(y.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_THROW((void)one_hot({5}, 3), InvalidArgument);
}

TEST(DatasetUtils, ValidationSplitTakesTail) {
  Dataset d{Tensor({10, 1}), Tensor({10, 1})};
  for (std::size_t i = 0; i < 10; ++i) d.x.at(i, 0) = static_cast<float>(i);
  const auto [train, val] = validation_split(d, 0.2);
  EXPECT_EQ(train.size(), 8u);
  EXPECT_EQ(val.size(), 2u);
  EXPECT_FLOAT_EQ(val.x.at(0, 0), 8.0f);
}

TEST(DatasetUtils, StandardizeColumns) {
  Tensor x({4, 2}, {1, 10, 2, 20, 3, 30, 4, 40});
  standardize_columns(x);
  for (std::size_t j = 0; j < 2; ++j) {
    float mean = 0, var = 0;
    for (std::size_t i = 0; i < 4; ++i) mean += x.at(i, j);
    mean /= 4;
    for (std::size_t i = 0; i < 4; ++i)
      var += (x.at(i, j) - mean) * (x.at(i, j) - mean);
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var / 4, 1.0f, 1e-4f);
  }
}

TEST(DatasetUtils, MinMaxScale) {
  Tensor x({3, 2}, {0, 5, 5, 5, 10, 5});
  minmax_scale_columns(x);
  EXPECT_FLOAT_EQ(x.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(x.at(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(x.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 0.0f);  // constant column -> 0
}

// ---------------------------------------------------------------------------
// Model end-to-end
// ---------------------------------------------------------------------------

TEST(Model, CompileRequiresLayers) {
  Model m;
  EXPECT_THROW(
      m.compile({4}, make_optimizer("sgd", 0.1), make_loss("mse"), 1),
      InvalidArgument);
}

TEST(Model, PredictBeforeCompileThrows) {
  Model m;
  m.add<Dense>(2);
  EXPECT_THROW((void)m.predict(Tensor({1, 4})), InvalidArgument);
}

TEST(Model, AddAfterCompileThrows) {
  Model m;
  m.add<Dense>(2);
  m.compile({4}, make_optimizer("sgd", 0.1), make_loss("mse"), 1);
  EXPECT_THROW(m.add<Dense>(2), InvalidArgument);
}

TEST(Model, ParamCountSumsLayers) {
  Model m;
  m.add<Dense>(8, Act::kRelu);
  m.add<Dense>(2, Act::kSoftmax);
  m.compile({10}, make_optimizer("sgd", 0.1),
            make_loss("categorical_crossentropy"), 1);
  EXPECT_EQ(m.param_count(), 10u * 8 + 8 + 8 * 2 + 2);
  EXPECT_EQ(m.parameters().size(), 4u);
  EXPECT_EQ(m.gradients().size(), 4u);
}

TEST(Model, LearnsXorLikeMlp) {
  // 2-bit parity with an MLP — requires a genuinely nonlinear fit.
  Tensor x({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  const Tensor y = one_hot({0, 1, 1, 0}, 2);
  Model m;
  m.add<Dense>(8, Act::kTanh);
  m.add<Dense>(2, Act::kSoftmax);
  m.compile({2}, make_optimizer("adam", 0.05),
            make_loss("categorical_crossentropy"), 3);
  Dataset d{x, y};
  FitOptions opt;
  opt.epochs = 300;
  opt.batch_size = 4;
  opt.shuffle = false;
  const History h = m.fit(d, opt);
  EXPECT_EQ(h.epochs.size(), 300u);
  EXPECT_GE(h.final_accuracy(), 0.99f);
}

TEST(Model, LearnsLinearRegression) {
  Rng rng(6);
  const std::size_t n = 256;
  Tensor x({n, 3});
  Tensor y({n, 1});
  for (std::size_t i = 0; i < n; ++i) {
    float acc = 0.1f;
    for (std::size_t j = 0; j < 3; ++j) {
      x.at(i, j) = static_cast<float>(rng.normal());
      acc += x.at(i, j) * static_cast<float>(j + 1) * 0.5f;
    }
    y.at(i, 0) = acc;
  }
  Model m;
  m.add<Dense>(1, Act::kNone);
  m.compile({3}, make_optimizer("sgd", 0.05), make_loss("mse"), 1);
  FitOptions opt;
  opt.epochs = 60;
  opt.batch_size = 32;
  opt.classification = false;
  const History h = m.fit(Dataset{x, y}, opt);
  EXPECT_GT(h.final_accuracy(), 0.99f);  // R²
  EXPECT_LT(h.final_loss(), 0.01f);
}

TEST(Model, ConvModelTrainsOnSyntheticProfiles) {
  io::ClassificationSpec spec;
  spec.samples = 120;
  spec.features = 64;
  spec.classes = 2;
  spec.informative = 16;
  spec.class_sep = 2.0;
  spec.noise = 0.8;
  spec.seed = 11;
  Dataset d = io::make_classification(spec);

  Model m;
  m.add<ExpandDims>();
  m.add<Conv1D>(4, 5, 1, Act::kRelu);
  m.add<MaxPool1D>(4);
  m.add<Flatten>();
  m.add<Dense>(8, Act::kRelu);
  m.add<Dense>(2, Act::kSoftmax);
  m.compile({64}, make_optimizer("sgd", 0.05),
            make_loss("categorical_crossentropy"), 5);
  FitOptions opt;
  opt.epochs = 30;
  opt.batch_size = 20;
  const History h = m.fit(d, opt);
  EXPECT_GE(h.final_accuracy(), 0.9f);
}

TEST(Model, ValidationSplitReportsValMetrics) {
  io::ClassificationSpec spec;
  spec.samples = 200;
  spec.features = 10;
  spec.classes = 2;
  spec.informative = 10;
  spec.class_sep = 2.5;
  spec.noise = 0.5;
  Dataset d = io::make_classification(spec);
  Model m;
  m.add<Dense>(2, Act::kSoftmax);
  m.compile({10}, make_optimizer("sgd", 0.1),
            make_loss("categorical_crossentropy"), 1);
  FitOptions opt;
  opt.epochs = 20;
  opt.batch_size = 20;
  opt.validation_fraction = 0.25;
  const History h = m.fit(d, opt);
  EXPECT_GT(h.epochs.back().val_accuracy, 0.8f);
  EXPECT_GT(h.epochs.back().val_loss, 0.0f);
}

TEST(Model, HistoryCountsBatchSteps) {
  Dataset d{Tensor({50, 4}), Tensor({50, 2})};
  for (std::size_t i = 0; i < 50; ++i) d.y.at(i, i % 2) = 1.0f;
  Model m;
  m.add<Dense>(2, Act::kSoftmax);
  m.compile({4}, make_optimizer("sgd", 0.01),
            make_loss("categorical_crossentropy"), 1);
  FitOptions opt;
  opt.epochs = 2;
  opt.batch_size = 20;
  const History h = m.fit(d, opt);
  // ceil(50/20) = 3 steps per epoch (final partial batch kept).
  EXPECT_EQ(h.epochs[0].batch_steps, 3u);
  EXPECT_EQ(h.epochs[1].batch_steps, 3u);
}

TEST(Model, DropRemainderSkipsPartialBatch) {
  Dataset d{Tensor({50, 4}), Tensor({50, 2})};
  for (std::size_t i = 0; i < 50; ++i) d.y.at(i, i % 2) = 1.0f;
  Model m;
  m.add<Dense>(2, Act::kSoftmax);
  m.compile({4}, make_optimizer("sgd", 0.01),
            make_loss("categorical_crossentropy"), 1);
  FitOptions opt;
  opt.epochs = 1;
  opt.batch_size = 20;
  opt.drop_remainder = true;
  EXPECT_EQ(m.fit(d, opt).epochs[0].batch_steps, 2u);
}

/// Callback hook ordering.
class RecordingCallback : public Callback {
 public:
  std::vector<std::string> log;
  void on_train_begin(Model&) override { log.push_back("train_begin"); }
  void on_epoch_begin(Model&, std::size_t e) override {
    log.push_back("epoch_begin:" + std::to_string(e));
  }
  void on_epoch_end(Model&, const EpochStats& s) override {
    log.push_back("epoch_end:" + std::to_string(s.epoch));
  }
  void on_batch_end(Model&, std::size_t) override { log.push_back("batch"); }
};

TEST(Model, CallbackSequence) {
  Dataset d{Tensor({8, 2}), Tensor({8, 2})};
  for (std::size_t i = 0; i < 8; ++i) d.y.at(i, 0) = 1.0f;
  Model m;
  m.add<Dense>(2, Act::kSoftmax);
  m.compile({2}, make_optimizer("sgd", 0.01),
            make_loss("categorical_crossentropy"), 1);
  RecordingCallback cb;
  FitOptions opt;
  opt.epochs = 2;
  opt.batch_size = 4;
  (void)m.fit(d, opt, {&cb});
  ASSERT_GE(cb.log.size(), 7u);
  EXPECT_EQ(cb.log[0], "train_begin");
  EXPECT_EQ(cb.log[1], "epoch_begin:0");
  EXPECT_EQ(cb.log[2], "batch");
  EXPECT_EQ(cb.log[4], "epoch_end:0");
}

TEST(Model, SummaryListsLayers) {
  Model m;
  m.add<Dense>(4, Act::kRelu);
  m.add<Dropout>(0.1);
  m.add<Dense>(2, Act::kSoftmax);
  m.compile({6}, make_optimizer("sgd", 0.01),
            make_loss("categorical_crossentropy"), 1);
  const std::string s = m.summary();
  EXPECT_NE(s.find("Dense(4, relu)"), std::string::npos);
  EXPECT_NE(s.find("Dropout(0.10)"), std::string::npos);
  EXPECT_NE(s.find("total trainable parameters"), std::string::npos);
}

// Parameterized sweep: every optimizer fits the same separable problem.
class OptimizerSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizerSweep, FitsSeparableData) {
  io::ClassificationSpec spec;
  spec.samples = 150;
  spec.features = 8;
  spec.classes = 3;
  spec.informative = 8;
  spec.class_sep = 2.5;
  spec.noise = 0.6;
  spec.seed = 21;
  Dataset d = io::make_classification(spec);
  Model m;
  m.add<Dense>(16, Act::kRelu);
  m.add<Dense>(3, Act::kSoftmax);
  const double lr = GetParam() == std::string("sgd") ? 0.05 : 0.01;
  m.compile({8}, make_optimizer(GetParam(), lr),
            make_loss("categorical_crossentropy"), 2);
  FitOptions opt;
  opt.epochs = 40;
  opt.batch_size = 25;
  EXPECT_GE(m.fit(d, opt).final_accuracy(), 0.9f) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerSweep,
                         ::testing::Values("sgd", "adam", "rmsprop"));

// Parameterized sweep: batch size never breaks the training loop and the
// step count follows ceil(n / batch).
class BatchSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSizeSweep, StepCountMatchesCeilDiv) {
  const std::size_t batch = GetParam();
  Dataset d{Tensor({97, 4}), Tensor({97, 2})};
  for (std::size_t i = 0; i < 97; ++i) d.y.at(i, i % 2) = 1.0f;
  Model m;
  m.add<Dense>(2, Act::kSoftmax);
  m.compile({4}, make_optimizer("sgd", 0.01),
            make_loss("categorical_crossentropy"), 1);
  FitOptions opt;
  opt.epochs = 1;
  opt.batch_size = batch;
  const History h = m.fit(d, opt);
  EXPECT_EQ(h.epochs[0].batch_steps, (97 + batch - 1) / batch);
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSizeSweep,
                         ::testing::Values(1, 7, 20, 60, 97, 100));

}  // namespace
}  // namespace candle::nn
