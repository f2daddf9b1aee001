// Layer zoo for the sequential model (Keras-equivalent subset used by the
// CANDLE Pilot1 benchmarks: Dense, Conv1D, MaxPooling1D, Flatten, Dropout,
// activations).
//
// Contract: `build` is called once with the per-sample input shape before
// training; a training forward (`training == true`) caches whatever
// `backward` needs, an inference forward caches no activations; `backward` consumes
// dL/dy and returns dL/dx while accumulating parameter gradients into the
// tensors exposed by `grads()` (overwritten each call, not accumulated across
// calls — the optimizer consumes them per batch).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "nn/parallelism.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace candle::nn {

/// Activation kinds supported by Activation and the fused layer arguments.
enum class Act { kNone, kRelu, kSigmoid, kTanh, kSoftmax };

/// Parses "relu" / "sigmoid" / "tanh" / "softmax" / "none" (Keras-style).
Act act_from_string(const std::string& name);
std::string act_name(Act a);

/// Abstract layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Human-readable layer type plus salient dims, e.g. "Dense(128, relu)".
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Creates parameters for the given per-sample input shape and returns
  /// the per-sample output shape.
  virtual Shape build(const Shape& input_shape, Rng& rng) = 0;

  /// Forward pass over a whole batch. `training` toggles dropout and the
  /// caching of activations for backward: with `training == false` the
  /// layer keeps no copy of its input or output, so inference neither
  /// caches nor copies activations.
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Backward pass; must be called after a training forward on the same
  /// batch. Layers that cache activations throw InvalidArgument when the
  /// last forward was an inference one.
  /// Contract: every grads() tensor is fully finalized before backward()
  /// returns — Model::backward fires the gradient-ready hook for this
  /// layer right after, and the overlap scheduler may immediately start
  /// reducing those tensors on the comm thread.
  virtual Tensor backward(const Tensor& dy) = 0;

  /// Trainable parameters / matching gradient tensors (same order). The
  /// tensor list and shapes are fixed after build(); Model::compile caches
  /// per-layer spans over the flattened order for gradient-ready signaling.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Total trainable scalar count.
  [[nodiscard]] std::size_t param_count();

  /// Channel-parallelism support. Layers that can shard their output
  /// channels report the planner costs for a given input shape and batch
  /// hint: `weight_bytes` is the layer's per-step weight-gradient allreduce
  /// volume under data parallelism, `activation_bytes` the activation
  /// exchange channel parallelism pays instead (forward output allgather +
  /// backward input-gradient reduce-scatter and allgather), and `channels`
  /// the shardable output-channel count (the planner keeps layers narrower
  /// than the world replicated). Returns false (the default) when the
  /// layer cannot shard.
  [[nodiscard]] virtual bool channel_shard_costs(
      const Shape& input_shape, std::size_t batch, std::size_t* weight_bytes,
      std::size_t* activation_bytes, std::size_t* channels) const {
    (void)input_shape;
    (void)batch;
    (void)weight_bytes;
    (void)activation_bytes;
    (void)channels;
    return false;
  }

  /// Partitions this layer's output channels across `shard.world` ranks.
  /// Must be called before build(); only layers whose channel_shard_costs
  /// returns true support it. After this call params()/grads() expose the
  /// rank-local 1/P slice, which must not be averaged or broadcast across
  /// ranks (Model tracks the mask; see Model::rank_local_mask).
  virtual void apply_channel_shard(const ChannelShard& shard) {
    (void)shard;
    throw InvalidArgument("apply_channel_shard: " + describe() +
                          " does not support channel sharding");
  }

  /// True once apply_channel_shard was called.
  [[nodiscard]] virtual bool channel_sharded() const { return false; }

  /// Routes this layer's sharded collectives through `exec` (see
  /// CollectiveExecutor). The overlap scheduler installs one so the comm
  /// thread stays the rank's only collective issuer; pass {} to restore
  /// inline issue. No-op for layers that never issue collectives.
  virtual void set_collective_executor(CollectiveExecutor exec) {
    (void)exec;
  }
};

/// Fully connected layer with optional fused activation and optional L2
/// weight decay (P1B2 is "an MLP network with regularization", §2.1.3).
/// The decay term 2*l2*W is added to the weight gradient each backward.
class Dense : public Layer {
 public:
  /// `init_scale` multiplies the Glorot init; regression heads commonly use
  /// a small value so initial predictions start near zero.
  Dense(std::size_t units, Act act = Act::kNone, double l2 = 0.0,
        double init_scale = 1.0);

  [[nodiscard]] std::string describe() const override;
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }

  [[nodiscard]] const Tensor& weights() const { return w_; }
  [[nodiscard]] const Tensor& bias() const { return b_; }
  [[nodiscard]] double l2() const { return l2_; }

  [[nodiscard]] bool channel_shard_costs(
      const Shape& input_shape, std::size_t batch, std::size_t* weight_bytes,
      std::size_t* activation_bytes, std::size_t* channels) const override;
  void apply_channel_shard(const ChannelShard& shard) override;
  [[nodiscard]] bool channel_sharded() const override { return sharded_; }
  void set_collective_executor(CollectiveExecutor exec) override {
    shard_.executor = std::move(exec);
  }

 private:
  std::size_t units_;
  Act act_;
  double l2_;
  double init_scale_;
  Tensor w_, b_, dw_, db_;
  Tensor x_, y_;  // cached input and post-activation output
  bool cached_ = false;  // last forward was a training forward
  // Channel sharding: this rank owns output columns
  // [shard_begin_, shard_begin_ + shard_cols_) of the full (in, units_)
  // weight; w_/b_/dw_/db_ hold only that slice.
  bool sharded_ = false;
  ChannelShard shard_;
  std::size_t shard_begin_ = 0, shard_cols_ = 0;
  std::vector<float> gather_scratch_;  // staging for the forward allgather
  Tensor local_block_;  // (B, local): pre-gather output, then the dz slice
};

/// 1-D convolution (channels-last), valid padding, fused activation.
class Conv1D : public Layer {
 public:
  Conv1D(std::size_t filters, std::size_t kernel, std::size_t stride = 1,
         Act act = Act::kNone);

  [[nodiscard]] std::string describe() const override;
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }

  [[nodiscard]] bool channel_shard_costs(
      const Shape& input_shape, std::size_t batch, std::size_t* weight_bytes,
      std::size_t* activation_bytes, std::size_t* channels) const override;
  void apply_channel_shard(const ChannelShard& shard) override;
  [[nodiscard]] bool channel_sharded() const override { return sharded_; }
  void set_collective_executor(CollectiveExecutor exec) override {
    shard_.executor = std::move(exec);
  }

 private:
  std::size_t filters_, kernel_, stride_;
  Act act_;
  Tensor w_, b_, dw_, db_;
  Tensor x_, y_;
  bool cached_ = false;  // last forward was a training forward
  Conv1dWorkspace ws_;  // im2col buffers reused across steps
  // Filter sharding: this rank owns output filters
  // [shard_begin_, shard_begin_ + shard_cols_); w_ is (K, Cin, local).
  bool sharded_ = false;
  ChannelShard shard_;
  std::size_t shard_begin_ = 0, shard_cols_ = 0;
  std::vector<float> gather_scratch_;
  Tensor local_block_;  // (B, Lout, local): conv output, then the dz slice
};

/// Locally connected 1-D layer: convolution-like but with untied weights —
/// every output position has its own kernel (Keras LocallyConnected1D).
/// P1B3 is "an MLP network with convolution-like layers" (§2.1.4); this is
/// that layer. Weights: (Lout, K, Cin, Cout); bias: (Lout, Cout).
class LocallyConnected1D : public Layer {
 public:
  LocallyConnected1D(std::size_t filters, std::size_t kernel,
                     std::size_t stride = 1, Act act = Act::kNone);

  [[nodiscard]] std::string describe() const override;
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }

 private:
  std::size_t filters_, kernel_, stride_;
  Act act_;
  std::size_t lout_ = 0, cin_ = 0;
  Tensor w_, b_, dw_, db_;
  Tensor x_, y_;
  bool cached_ = false;  // last forward was a training forward
};

/// Max pooling over the time axis.
class MaxPool1D : public Layer {
 public:
  explicit MaxPool1D(std::size_t window, std::size_t stride = 0);

  [[nodiscard]] std::string describe() const override;
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  std::size_t window_, stride_;
  Shape x_shape_;
  std::vector<std::size_t> argmax_;
};

/// Average pooling over the time axis (Keras AveragePooling1D).
class AvgPool1D : public Layer {
 public:
  explicit AvgPool1D(std::size_t window, std::size_t stride = 0);

  [[nodiscard]] std::string describe() const override;
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  std::size_t window_, stride_;
  Shape x_shape_;
};

/// Flattens (b, L, C) -> (b, L*C).
class Flatten : public Layer {
 public:
  [[nodiscard]] std::string describe() const override { return "Flatten"; }
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  Shape x_shape_;
};

/// Reshapes (b, F) -> (b, F, 1): presents flat features to Conv1D, the way
/// NT3 feeds 60,483 expression values to its first convolution.
class ExpandDims : public Layer {
 public:
  [[nodiscard]] std::string describe() const override { return "ExpandDims"; }
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  Shape x_shape_;
};

/// Inverted dropout: scales kept activations by 1/(1-rate) during training;
/// identity at inference.
class Dropout : public Layer {
 public:
  explicit Dropout(double rate);

  [[nodiscard]] std::string describe() const override;
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  double rate_;
  Rng rng_;
  std::vector<float> mask_;
};

/// Batch normalization over flat features (Ioffe & Szegedy), Keras
/// BatchNormalization semantics: per-feature standardization by batch
/// statistics during training (with running-average tracking) and by the
/// running statistics at inference, followed by a learned affine (gamma,
/// beta).
class BatchNorm : public Layer {
 public:
  explicit BatchNorm(double momentum = 0.99, double epsilon = 1e-3);

  [[nodiscard]] std::string describe() const override;
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&dgamma_, &dbeta_}; }

  [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const { return running_var_; }

 private:
  double momentum_, epsilon_;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  Tensor running_mean_, running_var_;
  // Saved forward state for backward.
  Tensor x_hat_;          // normalized inputs
  std::vector<float> batch_inv_std_;
  bool cached_ = false;  // last forward was a training forward
};

/// Standalone activation layer (for when fusing is not convenient).
class Activation : public Layer {
 public:
  explicit Activation(Act act);

  [[nodiscard]] std::string describe() const override;
  Shape build(const Shape& input_shape, Rng& rng) override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& dy) override;

 private:
  Act act_;
  Tensor y_;
  bool cached_ = false;  // last forward was a training forward
};

/// Applies an activation forward; helper shared by fused layers.
Tensor apply_activation(Act act, const Tensor& x);
/// In-place activation over a freshly produced pre-activation tensor —
/// avoids the full-tensor copy of the copying form.
void apply_activation_inplace(Act act, Tensor& x);
/// Backward through an activation given the saved output.
Tensor activation_backward(Act act, const Tensor& dy, const Tensor& y);

}  // namespace candle::nn
