// Multi-model inference server: named models, one MicroBatcher each.
//
// An InferenceServer owns the served models and their admission queues.
// Setup is single-threaded (add models, then serve); once clients are
// submitting, the model table is read-only — submit() resolves a name to
// its batcher without locking, because the table never changes while
// requests are in flight. Each model's dispatcher thread runs its batches
// on its own candle::parallel team, so the dispatchers of a multi-model mix
// compute at the same time: a server with D models uses up to
// D x num_threads() compute threads.
//
// The checkpoint path (add_model_from_checkpoint) is the production
// deployment story: compile the architecture inference-only — no
// optimizer state, no gradient buffers — then restore trained weights
// with nn::load_weights. test_serve pins that a served checkpoint
// answers bit-identically to the in-memory model it was saved from.
#pragma once

#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/model.h"
#include "serve/micro_batcher.h"

namespace candle::serve {

/// Owns models and their micro-batching admission queues.
class InferenceServer {
 public:
  InferenceServer() = default;
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Takes ownership of a compiled model and starts its batcher. Names
  /// must be unique; the model must be compiled (inference-only or full).
  void add_model(const std::string& name, nn::Model model,
                 const BatcherOptions& options = {});

  /// Production path: compiles `architecture` inference-only for
  /// `input_shape`, restores weights from the checkpoint at `path`
  /// (nn::load_weights verifies the shape sequence), and starts serving.
  void add_model_from_checkpoint(const std::string& name,
                                 nn::Model architecture,
                                 const Shape& input_shape,
                                 const std::string& path,
                                 const BatcherOptions& options = {});

  /// Stages one request row on `model`'s admission queue.
  [[nodiscard]] std::future<Response> submit(const std::string& model,
                                             std::span<const float> row);

  /// Drains every model's queue and joins the dispatchers. Idempotent;
  /// the destructor calls it.
  void shutdown();

  [[nodiscard]] bool has_model(const std::string& name) const {
    return entries_.find(name) != entries_.end();
  }
  [[nodiscard]] std::size_t model_count() const { return entries_.size(); }
  /// Served model names in deterministic (lexicographic) order.
  [[nodiscard]] std::vector<std::string> model_names() const;

  [[nodiscard]] BatcherStats stats(const std::string& model) const;
  [[nodiscard]] std::size_t row_numel(const std::string& model) const;

 private:
  /// Model + batcher pair; unique_ptr keeps addresses stable because the
  /// batcher's dispatcher holds a pointer to the model.
  struct Entry {
    nn::Model model;
    std::unique_ptr<MicroBatcher> batcher;
  };

  [[nodiscard]] Entry& entry(const std::string& name);
  [[nodiscard]] const Entry& entry(const std::string& name) const;

  // std::map (not unordered_map): model_names() and shutdown() iterate,
  // and served-side iteration order must be deterministic.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace candle::serve
