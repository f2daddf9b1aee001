#include "candle/runner.h"

#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "hvd/broadcast.h"
#include "hvd/distributed_optimizer.h"
#include "io/binary_cache.h"
#include "io/csv_writer.h"
#include "nn/callbacks.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace candle {
namespace {

/// Writes a dataset to CSV in the benchmark's on-disk layout.
void write_dataset_csv(const std::string& path, const nn::Dataset& data,
                       BenchmarkId id) {
  io::CsvWriter writer(path);
  const std::size_t n = data.size();
  const std::size_t f = data.x.dim(1);
  std::vector<float> row(f);
  const bool classifier = benchmark_is_classification(id);
  const std::vector<std::size_t> labels =
      classifier ? argmax_rows(data.y) : std::vector<std::size_t>{};
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(row.data(), data.x.data() + i * f, f * sizeof(float));
    if (classifier) {
      // Label in column 0 (NT3/P1B2 layout).
      writer.write_labeled_row(static_cast<long long>(labels[i]), row);
    } else if (id == BenchmarkId::kP1B3) {
      // Regression target in column 0.
      std::vector<float> full(f + 1);
      full[0] = data.y.at(i, 0);
      std::copy(row.begin(), row.end(), full.begin() + 1);
      writer.write_row(full);
    } else {
      // Autoencoder: features only.
      writer.write_row(row);
    }
  }
  writer.close();
}

/// Parses a loaded frame back into a dataset (inverse of the writer).
nn::Dataset frame_to_dataset(io::DataFrame&& df, BenchmarkId id,
                             std::size_t classes) {
  const std::size_t n = df.rows;
  if (benchmark_is_classification(id) || id == BenchmarkId::kP1B3) {
    // Column 0 is the label (class index or regression target); the rest
    // of each row is copied whole into the feature matrix.
    require(df.cols >= 1 && df.data.size() == n * df.cols,
            "frame_to_dataset: frame shape does not match its data");
    const std::size_t f = df.cols - 1;
    Tensor x({n, f});
    std::vector<float> label_col(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = df.data.data() + i * df.cols;
      label_col[i] = row[0];
      std::memcpy(x.data() + i * f, row + 1, f * sizeof(float));
    }
    if (id == BenchmarkId::kP1B3)
      return nn::Dataset{std::move(x), Tensor({n, std::size_t{1}}, label_col)};
    std::vector<std::size_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = static_cast<std::size_t>(label_col[i]);
      require(labels[i] < classes, "frame_to_dataset: label out of range");
    }
    return nn::Dataset{std::move(x), nn::one_hot(labels, classes)};
  }
  // Autoencoder: y == x.
  Tensor x = std::move(df).to_tensor();
  Tensor y = x;
  return nn::Dataset{std::move(x), std::move(y)};
}

}  // namespace

std::string checkpoint_path(const RealRunConfig& config) {
  return config.workdir + "/" + benchmark_name(config.benchmark) +
         strprintf("_s%llu", static_cast<unsigned long long>(config.seed)) +
         ".ckpt";
}

std::pair<std::string, std::string> prepare_benchmark_csvs(
    const RealRunConfig& config) {
  const ScaledGeometry geometry =
      scaled_geometry(config.benchmark, config.scale);
  const BenchmarkData data =
      make_benchmark_data(config.benchmark, geometry, config.seed);
  const std::string stem =
      config.workdir + "/" + benchmark_name(config.benchmark) +
      strprintf("_s%llu", static_cast<unsigned long long>(config.seed));
  const std::string train_path = stem + "_train.csv";
  const std::string test_path = stem + "_test.csv";
  write_dataset_csv(train_path, data.train, config.benchmark);
  write_dataset_csv(test_path, data.test, config.benchmark);
  return {train_path, test_path};
}

RealRunResult run_real(const RealRunConfig& config) {
  require(config.ranks > 0, "run_real: ranks must be > 0");
  const bool channel_mode =
      config.layer_parallelism != nn::ParallelismMode::kData;
  // Channel parallelism shards weights, not data: every rank must step the
  // same batches in the same order (epoch-level replication), and a
  // rank-sharded model cannot round-trip through the single-file
  // checkpoint.
  require(!channel_mode || config.level == sim::ParallelLevel::kEpoch,
          "run_real: --layer-parallelism channel/auto requires epoch-level "
          "parallelism (all ranks must step identical batches)");
  require(!channel_mode || (config.checkpoint_every == 0 && !config.resume),
          "run_real: --layer-parallelism channel/auto is incompatible with "
          "checkpoint/resume (weights are rank-sharded)");
  const ScaledGeometry geometry =
      scaled_geometry(config.benchmark, config.scale);
  const std::size_t epochs_per_rank =
      config.weak_scaling
          ? config.total_epochs
          : comp_epochs_balanced(config.total_epochs, config.ranks);
  require(epochs_per_rank >= 1,
          "run_real: strong scaling leaves < 1 epoch per rank (the paper "
          "caps GPUs at total_epochs / min_epochs)");

  const std::size_t base_batch =
      config.batch == 0 ? geometry.batch : config.batch;
  const std::size_t batch =
      scaled_batch(base_batch, config.ranks, config.batch_scaling);
  const double base_lr = profile_for(config.benchmark).learning_rate;
  const double lr = config.scale_lr
                        ? scaled_learning_rate(base_lr, config.ranks)
                        : base_lr;

  const auto [train_path, test_path] = prepare_benchmark_csvs(config);

  auto timeline = config.record_timeline
                      ? std::make_shared<trace::Timeline>()
                      : std::shared_ptr<trace::Timeline>{};
  Stopwatch clock;
  RealRunResult result;
  AnnotatedMutex result_mutex{CANDLE_LOCK_LEVEL(lock_order::level::kRunnerResult),
                              "runner::result_mutex"};

  comm::WorldOptions world_options;
  world_options.ranks_per_node = config.ranks_per_node;
  world_options.allreduce_algo = config.allreduce_algo;
  world_options.local_wire_dtype = config.local_wire_dtype;
  // The world default wire dtype stays fp32: gradient compression flows
  // per bucket through config.fusion.wire_dtype (local_wire_dtype only
  // compresses hierarchical intra-node legs), while broadcasts and scalar
  // metric reductions always stay exact.

  result.comm_stats = comm::World::run(
      config.ranks,
      [&](comm::Communicator& communicator) {
        hvd::Context ctx(communicator, timeline.get(), &clock);

        // --- Phase 1: data loading (real CSV parse, per rank). -----------
        // With cached_loads the parse happens once and later ranks/runs
        // map the binary cache; under batch-step sharding the cache read
        // touches only this rank's rows (pre-sharded at the I/O layer).
        const bool preshard = config.cached_loads &&
                              config.level == sim::ParallelLevel::kBatchStep &&
                              config.ranks > 1;
        const double load_begin = ctx.now();
        io::CsvReadStats load_stats;
        io::DataFrame train_frame =
            preshard ? io::read_csv_cached_sharded(train_path, ctx.rank(),
                                                   config.ranks, config.loader,
                                                   &load_stats)
            : config.cached_loads
                ? io::read_csv_cached(train_path, config.loader, &load_stats)
                : io::read_csv(train_path, config.loader, &load_stats);
        io::CsvReadStats test_stats;
        io::DataFrame test_frame =
            config.cached_loads
                ? io::read_csv_cached(test_path, config.loader, &test_stats)
                : io::read_csv(test_path, config.loader, &test_stats);
        const double load_s = ctx.now() - load_begin;
        ctx.record(trace::kDataLoading, "io", load_begin, load_s);

        // --- Phase 2: preprocessing. --------------------------------------
        const double pre_begin = ctx.now();
        nn::Dataset train = frame_to_dataset(std::move(train_frame),
                                             config.benchmark,
                                             geometry.classes);
        nn::Dataset test = frame_to_dataset(std::move(test_frame),
                                            config.benchmark,
                                            geometry.classes);
        if (!preshard && config.level == sim::ParallelLevel::kBatchStep &&
            config.ranks > 1) {
          // Batch-step-level parallelism (Fig 3): rank r trains on rows
          // r, r+P, 2P+r, ... Equal shard sizes (floor(S/P)) keep every
          // rank's step count identical, which the synchronous allreduce
          // requires.
          const std::size_t shard = train.size() / config.ranks;
          require(shard >= 1, "run_real: dataset smaller than rank count");
          std::vector<std::size_t> mine(shard);
          for (std::size_t i = 0; i < shard; ++i)
            mine[i] = i * config.ranks + ctx.rank();
          train = nn::Dataset{nn::gather_rows(train.x, mine),
                              nn::gather_rows(train.y, mine)};
        }
        const double pre_s = ctx.now() - pre_begin;
        ctx.record(trace::kPreprocessing, "io", pre_begin, pre_s);

        // --- Model: rank-distinct init, rank-0 weights win via broadcast.
        nn::Model model = build_model(config.benchmark, geometry);
        auto inner =
            nn::make_optimizer(benchmark_optimizer(config.benchmark), lr);
        auto distributed = std::make_unique<hvd::DistributedOptimizer>(
            std::move(inner), ctx, config.fusion);
        hvd::DistributedOptimizer* dist = distributed.get();
        nn::ParallelismOptions parallelism;
        parallelism.mode = config.layer_parallelism;
        parallelism.comm = &communicator;
        parallelism.batch_hint = batch;
        parallelism.wire_dtype = config.fusion.wire_dtype;
        // Channel mode needs a uniform seed: sharded layers slice one
        // shared full init, and every rank must draw the same shuffle
        // stream. Data mode keeps the rank-distinct init (rank 0 wins via
        // the broadcast below), preserving the existing runs bit-exactly.
        const std::uint64_t model_seed =
            channel_mode ? config.seed : config.seed + ctx.rank();
        model.compile({geometry.features}, std::move(distributed),
                      nn::make_loss(benchmark_loss(config.benchmark)),
                      model_seed, parallelism);
        // Overlap knob: reduce gradient buckets on a per-rank comm thread
        // during backward instead of a synchronous sweep after it.
        // Bit-identical either way (see hvd/bucket_scheduler.h).
        if (config.fusion.overlap) dist->enable_overlap(model);

        // Restart support: rank 0 restores the checkpoint; the broadcast
        // below distributes the restored weights to every rank.
        bool resumed = false;
        if (config.resume && ctx.rank() == 0 &&
            nn::is_checkpoint(checkpoint_path(config))) {
          nn::load_weights(model, checkpoint_path(config));
          resumed = true;
        }

        hvd::BroadcastGlobalVariablesHook broadcast_hook(ctx, 0);
        nn::ModelCheckpoint checkpoint_hook(
            checkpoint_path(config),
            config.checkpoint_every > 0 ? config.checkpoint_every : 1);

        std::vector<nn::Callback*> callbacks{&broadcast_hook};
        if (config.checkpoint_every > 0 && ctx.rank() == 0)
          callbacks.push_back(&checkpoint_hook);

        // --- Phases 3-4: broadcast + training. ----------------------------
        const double train_begin = ctx.now();
        nn::FitOptions fit;
        fit.epochs = epochs_per_rank;
        fit.batch_size = batch;
        fit.classification = benchmark_is_classification(config.benchmark);
        fit.prefetch = config.prefetch;
        fit.timeline = timeline.get();
        fit.timeline_clock = &clock;
        fit.timeline_rank = ctx.rank();
        const nn::History history = model.fit(train, fit, callbacks);
        const double train_s = ctx.now() - train_begin;

        // --- Phase 5: prediction / evaluation on test data. ---------------
        // Every rank evaluates the full test set; the metric is averaged
        // across ranks (identical under epoch-level parallelism, and the
        // consistent aggregate under sharding).
        const double eval_begin = ctx.now();
        const auto [test_loss, test_metric] =
            model.evaluate(test.x, test.y, fit.classification);
        (void)test_loss;
        const double avg_test_metric =
            communicator.allreduce_scalar(test_metric) /
            static_cast<double>(config.ranks);
        const double eval_s = ctx.now() - eval_begin;
        ctx.record(trace::kEvaluation, "compute", eval_begin, eval_s);

        if (ctx.rank() == 0) {
          MutexLock lock(result_mutex);
          result.data_load_s = load_s;
          result.preprocess_s = pre_s;
          result.broadcast_negotiate_s = broadcast_hook.negotiate_seconds();
          result.train_s = train_s;
          result.evaluate_s = eval_s;
          result.total_s = ctx.now();
          result.epochs_rank0 = epochs_per_rank;
          result.final_accuracy = history.final_accuracy();
          result.final_loss = history.final_loss();
          result.test_accuracy = static_cast<float>(avg_test_metric);
          result.history = history;
          result.load_stats = load_stats;
          result.resumed_from_checkpoint = resumed;
          result.checkpoints_written = checkpoint_hook.saves();
        }
      },
      world_options);

  result.timeline = timeline;
  return result;
}

}  // namespace candle
