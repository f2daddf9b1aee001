// Repo benchmark driver: runs one workload through the public entry points
// (candle::run_real for training, serve::InferenceServer for serving),
// checks its outputs, and prints one machine-readable record line holding
// every metric with its unit, the failed gates and the provenance stamp.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR [--smoke]
//
// --trace 0 measures the end-to-end metrics from untraced runs. --trace 1
// runs the same workload and seed with the trace::Timeline on and reports
// the per-layer metrics, taken only from data the public calls return and
// from timing probes into public layer functions. --smoke shrinks every
// workload so the self-test finishes in seconds. README.md lists the
// metrics, the workloads and why each exists.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "candle/models.h"
#include "candle/profiler.h"
#include "candle/runner.h"
#include "comm/communicator.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "nn/dataset.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "nn/serialize.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "trace/timeline.h"

namespace {

using namespace candle;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Statistics and reporting.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]); the maximum when the sample is
/// too small to resolve q.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// JSON has no NaN or infinity; a non-finite value is written as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one driver invocation reports: metrics, the operation count
/// its correctness gates judged, and the provenance stamp.
struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::string> provenance;  // values are JSON

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records one failed operation with the gate that rejected it.
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  void stamp(const std::string& key, double value) {
    provenance[key] = json_number(value);
  }
  void stamp(const std::string& key, const std::string& value) {
    provenance[key] = json_string(value);
  }
};

void print_report(const Report& report) {
  std::string json = "{\"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    json += (i ? ", " : "") + json_string(report.failures[i]);
  json += "], \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}, \"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : report.provenance) {
    json += (first ? "" : ", ") + json_string(key) + ": " + value;
    first = false;
  }
  json += "}}";
  std::printf("PERFBENCH_RECORD %s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Median wall time in ms of `fn`, repeated until `budget_s` is spent
/// (at least three timed calls, after one warm-up call).
double time_ms(const std::function<void()>& fn, double budget_s) {
  fn();
  std::vector<double> ms;
  const Stopwatch total;
  while (ms.size() < 3 || total.seconds() < budget_s) {
    const Stopwatch watch;
    fn();
    ms.push_back(watch.millis());
  }
  return median(ms);
}

/// The end-to-end metrics, from untraced runs.
struct EndToEnd {
  double run_s = 0.0;
  double items_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double final_loss = 0.0;
  double setup_s = 0.0;
};

void report_end_to_end(Report& report, const EndToEnd& e) {
  report.add("run_s", e.run_s, "s");
  report.add("items_per_s", e.items_per_s, "1/s");
  report.add("latency_p50_ms", e.latency_p50_ms, "ms");
  report.add("final_loss", e.final_loss, "loss");
  report.add("setup_s", e.setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB");
}

/// The per-layer metrics, from a traced run and the layer probes. A layer
/// the workload does not run reports 0.
struct LayerMetrics {
  double io_load_s = 0.0;
  double io_parse_mb_per_s = 0.0;
  double io_load_skew_s = 0.0;
  double io_cache_hits = 0.0;
  double io_cache_lookups = 0.0;
  double io_cache_build_s = 0.0;
  double candle_preprocess_s = 0.0;
  double candle_eval_s = 0.0;
  double hvd_bcast_wait_s = 0.0;
  double hvd_allreduce_wait_s = 0.0;
  double hvd_allreduce_s = 0.0;
  double comm_allreduce_calls = 0.0;
  double comm_bytes_sent = 0.0;
  double comm_allreduce_ms = 0.0;
  double nn_step_ms = 0.0;
  double nn_pipeline_stall_s = 0.0;
  double nn_fwd_ms = 0.0;
  double nn_bwd_ms = 0.0;
  double nn_hot_layer_ms = 0.0;
  double tensor_gemm_gflops = 0.0;
  double tensor_conv_gflops = 0.0;
  double serve_batch_rows_mean = 0.0;
  double serve_deadline_close_frac = 0.0;
  double serve_forward_ms = 0.0;
  double serve_p99_ms = 0.0;
  double serve_burst_rps = 0.0;
  double serve_send_lag_ms = 0.0;
  double serve_latency_samples = 0.0;
  double serve_capacity_rps = 0.0;
  double trace_overhead_frac = 0.0;
};

void report_layers(Report& report, const LayerMetrics& l) {
  report.add("io.load_s", l.io_load_s, "s");
  report.add("io.parse_mb_per_s", l.io_parse_mb_per_s, "MB/s");
  report.add("io.load_skew_s", l.io_load_skew_s, "s");
  report.add("io.cache_hits", l.io_cache_hits, "count");
  report.add("io.cache_lookups", l.io_cache_lookups, "count");
  report.add("io.cache_build_s", l.io_cache_build_s, "s");
  report.add("candle.preprocess_s", l.candle_preprocess_s, "s");
  report.add("candle.eval_s", l.candle_eval_s, "s");
  report.add("hvd.bcast_wait_s", l.hvd_bcast_wait_s, "s");
  report.add("hvd.allreduce_wait_s", l.hvd_allreduce_wait_s, "s");
  report.add("hvd.allreduce_s", l.hvd_allreduce_s, "s");
  report.add("comm.allreduce_calls", l.comm_allreduce_calls, "count");
  report.add("comm.bytes_sent", l.comm_bytes_sent, "B");
  report.add("comm.allreduce_ms", l.comm_allreduce_ms, "ms");
  report.add("nn.step_ms", l.nn_step_ms, "ms");
  report.add("nn.pipeline_stall_s", l.nn_pipeline_stall_s, "s");
  report.add("nn.fwd_ms", l.nn_fwd_ms, "ms");
  report.add("nn.bwd_ms", l.nn_bwd_ms, "ms");
  report.add("nn.hot_layer_ms", l.nn_hot_layer_ms, "ms");
  report.add("tensor.gemm_gflops", l.tensor_gemm_gflops, "GFLOP/s");
  report.add("tensor.conv_gflops", l.tensor_conv_gflops, "GFLOP/s");
  report.add("serve.batch_rows_mean", l.serve_batch_rows_mean, "rows");
  report.add("serve.deadline_close_frac", l.serve_deadline_close_frac, "frac");
  report.add("serve.forward_ms", l.serve_forward_ms, "ms");
  report.add("serve.p99_ms", l.serve_p99_ms, "ms");
  report.add("serve.burst_rps", l.serve_burst_rps, "1/s");
  report.add("serve.send_lag_ms", l.serve_send_lag_ms, "ms");
  report.add("serve.latency_samples", l.serve_latency_samples, "count");
  report.add("serve.capacity_rps", l.serve_capacity_rps, "1/s");
  report.add("trace.overhead_frac", l.trace_overhead_frac, "frac");
}

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".bench_work";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--workdir") {
      o.workdir = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// ---------------------------------------------------------------------------
// Training workloads (candle::run_real).

struct TrainWorkload {
  const char* name;
  BenchmarkId id;
  std::size_t ranks;
  std::size_t width;         // candle::parallel pool width per process
  std::size_t total_epochs;  // strong scaling: split across ranks
  double scale;
  double smoke_scale;
  bool overlap;              // BucketScheduler overlap during backward
  bool prefetch;             // BatchPipeline producer thread
  bool cached;               // binary frame cache, warmed during set-up
  std::size_t data_seeds;    // distinct input seeds a run cycles through
};

constexpr TrainWorkload kTrainWorkloads[] = {
    {"nt3_overlap", BenchmarkId::kNT3, 4, 1, 8, 0.02, 0.002, true, true,
     false, 1},
    {"p1b1_wide", BenchmarkId::kP1B1, 2, 2, 4, 0.02, 0.003, false, false,
     true, 1},
    // One epoch per rank: the loss after it spreads widely across input
    // seeds, so the run averages it over four.
    {"p1b2_load", BenchmarkId::kP1B2, 4, 1, 4, 0.05, 0.01, false, false,
     false, 4},
};

/// One run_real call and what the benchmark derives from it.
struct TrainRep {
  RealRunResult result;
  double setup_s = 0.0;        // wall - total_s: CSV generation in run_real
  double samples_per_s = 0.0;  // samples stepped by all ranks / epoch time
  std::size_t steps = 0;       // rank-0 optimizer steps
  bool ok = false;
};

class TrainRunner {
 public:
  TrainRunner(const TrainWorkload& w, const Options& o, Report& report)
      : w_(w), report_(report) {
    config_.benchmark = w.id;
    config_.ranks = w.ranks;
    config_.total_epochs = w.total_epochs;
    config_.level = sim::ParallelLevel::kEpoch;
    config_.loader = io::LoaderKind::kChunked;
    config_.cached_loads = w.cached;
    config_.prefetch = w.prefetch;
    config_.fusion.overlap = w.overlap;
    config_.scale = o.smoke ? w.smoke_scale : w.scale;
    config_.workdir = o.workdir;
    config_.seed = o.seed;
    geometry_ = scaled_geometry(w.id, config_.scale);
  }

  const RealRunConfig& config() const { return config_; }
  const ScaledGeometry& geometry() const { return geometry_; }

  /// Input seed `k` of the run's data_seeds, derived from --seed.
  std::uint64_t data_seed(std::size_t k) const {
    return config_.seed * w_.data_seeds + k;
  }

  /// One run on input seed `k`; gates its outputs and counts it as an
  /// attempted operation.
  TrainRep run(bool traced, std::size_t k) {
    TrainRep rep;
    RealRunConfig cfg = config_;
    cfg.record_timeline = traced;
    cfg.seed = data_seed(k);
    ++report_.attempted;
    const Stopwatch watch;
    try {
      rep.result = run_real(cfg);
    } catch (const std::exception& e) {
      report_.fail(std::string("run_real threw: ") + e.what());
      return rep;
    }
    const RealRunResult& r = rep.result;
    rep.setup_s = watch.seconds() - r.total_s;
    double epoch_s = 0.0;
    for (const nn::EpochStats& e : r.history.epochs) {
      rep.steps += e.batch_steps;
      epoch_s += e.seconds;
    }
    rep.samples_per_s =
        static_cast<double>(w_.ranks * r.epochs_rank0 * geometry_.train_samples) /
        epoch_s;
    rep.ok = gate(rep, traced, cfg.seed);
    if (rep.ok) reference_loss_.try_emplace(cfg.seed, r.final_loss);
    return rep;
  }

  /// Mean over the input seeds of their (bit-identical) final losses.
  double mean_final_loss() const {
    double sum = 0.0;
    for (const auto& [seed, loss] : reference_loss_) sum += loss;
    return reference_loss_.size() == w_.data_seeds
               ? sum / static_cast<double>(w_.data_seeds)
               : 0.0;
  }

  /// The set-up run: it pays the process's first-run costs (page faults,
  /// pool start-up) and, with cached loads, publishes the binary cache.
  /// Returns its load time, the cold parse.
  double warm_up() {
    RealRunConfig cfg = config_;
    cfg.seed = data_seed(0);
    return run_real(cfg).data_load_s;
  }

  std::size_t cache_hits() const { return cache_hits_; }
  std::size_t cache_lookups() const { return cache_lookups_; }

 private:
  bool gate(const TrainRep& rep, bool traced, std::uint64_t seed) {
    const RealRunResult& r = rep.result;
    const char* mode = traced ? "traced" : "untraced";
    auto reject = [&](const std::string& why) {
      report_.fail(std::string(mode) + " run: " + why);
      return false;
    };
    if (r.comm_stats.size() != w_.ranks) return reject("missing rank stats");
    for (const comm::CommStats& s : r.comm_stats)
      if (s.allreduce_calls != r.comm_stats[0].allreduce_calls)
        return reject("ranks issued different allreduce counts");
    const std::size_t label_cols = benchmark_is_classification(w_.id) ? 1 : 0;
    if (r.load_stats.rows != geometry_.train_samples ||
        r.load_stats.cols != geometry_.features + label_cols)
      return reject("train frame shape differs from scaled_geometry");
    if (!std::isfinite(r.final_loss) || !(r.train_s > 0.0) ||
        !(r.total_s > 0.0) || rep.steps == 0)
      return reject("non-finite loss or empty training phase");
    if (w_.cached) {
      ++cache_lookups_;
      if (r.load_stats.chunks != 0) return reject("binary cache miss");
      ++cache_hits_;
    }
    const auto first = reference_loss_.find(seed);
    if (first != reference_loss_.end() &&
        std::memcmp(&r.final_loss, &first->second, sizeof(float)) != 0)
      return reject(
          "final_loss is not bit-identical to the seed's first untraced run");
    return true;
  }

  const TrainWorkload& w_;
  Report& report_;
  RealRunConfig config_;
  ScaledGeometry geometry_;
  std::map<std::uint64_t, float> reference_loss_;  // by input seed
  std::size_t cache_hits_ = 0;
  std::size_t cache_lookups_ = 0;
};

/// Runs `body` until `budget_s` is spent, stopping before a call that would
/// likely overrun it; at least `min_calls` calls.
void repeat_for(double budget_s, std::size_t min_calls,
                const std::function<void()>& body) {
  const Stopwatch watch;
  std::size_t calls = 0;
  while (true) {
    body();
    ++calls;
    const double per_call = watch.seconds() / static_cast<double>(calls);
    if (calls >= min_calls && watch.seconds() + per_call > budget_s) break;
  }
}

/// Time of the workload model's widest Dense GEMM and first Conv1D at the
/// training batch, plus the allreduce of one whole-gradient bucket.
struct LayerProbes {
  double gemm_gflops = 0.0;
  double conv_gflops = 0.0;
  double allreduce_ms = 0.0;
};

LayerProbes probe_layers(BenchmarkId id, const ScaledGeometry& g,
                         std::size_t batch, std::size_t ranks,
                         std::uint64_t seed, double budget_s) {
  LayerProbes out;
  nn::Model model = build_model(id, g);
  model.compile_for_inference({g.features}, seed);
  Rng rng(seed);
  Tensor x({batch, g.features});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

  // Walk the layers on a real batch so each probe sees its true input shape.
  Tensor act = x;
  nn::Dense* widest = nullptr;
  Tensor widest_in;
  bool conv_done = false;
  for (nn::Layer* layer : model.layers()) {
    if (auto* dense = dynamic_cast<nn::Dense*>(layer)) {
      if (widest == nullptr ||
          dense->params()[0]->numel() > widest->params()[0]->numel()) {
        widest = dense;
        widest_in = act;
      }
    }
    if (auto* conv = dynamic_cast<nn::Conv1D*>(layer); conv && !conv_done) {
      conv_done = true;
      const Tensor& w = *conv->params()[0];  // (K, Cin, Cout)
      const Tensor& bias = *conv->params()[1];
      // The benchmark models' convolutions all have stride 1.
      const std::size_t lout = conv1d_out_length(act.dim(1), w.dim(0), 1);
      const double flops = 2.0 * static_cast<double>(act.dim(0) * lout) *
                           static_cast<double>(w.numel());
      Tensor y;
      Conv1dWorkspace ws;
      const double ms = time_ms(
          [&] { conv1d_forward(act, w, bias, 1, y, &ws, EpilogueOp::kRelu); },
          budget_s / 3);
      out.conv_gflops = flops / (ms * 1e6);
    }
    act = layer->forward(act, /*training=*/false);
  }
  if (widest != nullptr) {
    const Tensor& w = *widest->params()[0];  // (in, out)
    Tensor c({widest_in.dim(0), w.dim(1)});
    const double flops = 2.0 * static_cast<double>(widest_in.dim(0)) *
                         static_cast<double>(w.numel());
    const double ms =
        time_ms([&] { gemm(false, false, widest_in, w, c); }, budget_s / 3);
    out.gemm_gflops = flops / (ms * 1e6);
  }

  const std::size_t elems = model.param_count();
  std::vector<double> call_ms;
  comm::World::run(ranks, [&](comm::Communicator& comm) {
    std::vector<float> grad(elems, 1.0f);
    const Stopwatch total;
    for (std::size_t i = 0;; ++i) {
      comm.barrier();
      const Stopwatch watch;
      comm.allreduce_average(grad);  // values stay 1: no overflow
      const double ms = watch.millis();
      double stop = (i >= 3 && total.seconds() > budget_s / 3) ? 1.0 : 0.0;
      stop = comm.allreduce_scalar(stop);  // every rank agrees to stop
      if (comm.rank() == 0 && i > 0) call_ms.push_back(ms);
      if (stop > 0.0) break;
    }
  });
  out.allreduce_ms = median(call_ms);
  return out;
}

void run_training(const TrainWorkload& w, const Options& o, Report& report) {
  TrainRunner runner(w, o, report);
  const ScaledGeometry& g = runner.geometry();

  // One untimed warm-up run, then the measured runs in what is left of
  // --seconds. They cycle through the input seeds; every seed runs.
  const Stopwatch measured;
  const double cold_load_s = runner.warm_up();
  const double budget_s = o.seconds - measured.seconds();
  std::vector<TrainRep> untraced;
  std::vector<TrainRep> traced;
  if (!o.trace) {
    repeat_for(budget_s, std::max<std::size_t>(3, w.data_seeds), [&] {
      untraced.push_back(runner.run(false, untraced.size() % w.data_seeds));
    });
  } else {
    // Untraced/traced pairs of the same input seed, then the layer probes.
    // The runner's gate holds every traced run's final_loss bit-identical
    // to the untraced run's.
    const double probe_share = 0.25;
    repeat_for(budget_s - o.seconds * probe_share, 2, [&] {
      const std::size_t k = untraced.size() % w.data_seeds;
      untraced.push_back(runner.run(false, k));
      traced.push_back(runner.run(true, k));
    });
  }

  std::vector<double> total, setup, rate, step_ms;
  for (const TrainRep& rep : untraced) {
    if (!rep.ok) continue;
    total.push_back(rep.result.total_s);
    setup.push_back(rep.setup_s);
    rate.push_back(rep.samples_per_s);
    for (const nn::EpochStats& e : rep.result.history.epochs)
      step_ms.push_back(1e3 * e.seconds / static_cast<double>(e.batch_steps));
  }
  if (!o.trace) {
    EndToEnd e;
    e.run_s = median(total);
    e.items_per_s = median(rate);
    e.latency_p50_ms = median(step_ms);
    e.final_loss = runner.mean_final_loss();
    e.setup_s = median(setup);
    report_end_to_end(report, e);
  } else {
    std::vector<double> load, parse, skew, pre, eval, bcast, ar_wait, ar,
        step, stall, traced_total;
    for (const TrainRep& rep : traced) {
      if (!rep.ok) continue;
      const RealRunResult& r = rep.result;
      const trace::Timeline& tl = *r.timeline;
      load.push_back(r.data_load_s);
      parse.push_back(static_cast<double>(r.load_stats.bytes) /
                      r.load_stats.seconds / 1e6);
      double lo = 1e300, hi = 0.0;
      for (std::size_t k = 0; k < w.ranks; ++k) {
        const double d = tl.total_duration(trace::kDataLoading, k);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
      skew.push_back(hi - lo);
      pre.push_back(r.preprocess_s);
      eval.push_back(r.evaluate_s);
      bcast.push_back(r.broadcast_negotiate_s);
      ar_wait.push_back(tl.total_duration(trace::kNegotiateAllreduce, 0));
      ar.push_back(tl.total_duration(trace::kNcclAllreduce, 0));
      step.push_back(1e3 * r.train_s / static_cast<double>(rep.steps));
      stall.push_back(tl.total_duration(trace::kPipelineStall, 0));
      traced_total.push_back(r.total_s);
    }
    const StepProfile profile =
        profile_step(w.id, runner.config().scale, g.batch, 3, o.seed);
    const double probe_budget =
        0.5 * std::max(0.3, o.seconds - measured.seconds());
    const LayerProbes probes =
        probe_layers(w.id, g, g.batch, w.ranks, o.seed, probe_budget);

    LayerMetrics l;
    l.io_load_s = median(load);
    l.io_parse_mb_per_s = median(parse);
    l.io_load_skew_s = median(skew);
    l.io_cache_hits = static_cast<double>(runner.cache_hits());
    l.io_cache_lookups = static_cast<double>(runner.cache_lookups());
    l.io_cache_build_s = w.cached ? cold_load_s : 0.0;
    l.candle_preprocess_s = median(pre);
    l.candle_eval_s = median(eval);
    l.hvd_bcast_wait_s = median(bcast);
    l.hvd_allreduce_wait_s = median(ar_wait);
    l.hvd_allreduce_s = median(ar);
    if (!traced.empty() && traced.back().ok) {
      const comm::CommStats& c0 = traced.back().result.comm_stats[0];
      l.comm_allreduce_calls = static_cast<double>(c0.allreduce_calls);
      l.comm_bytes_sent = static_cast<double>(c0.bytes_sent);
    }
    l.comm_allreduce_ms = probes.allreduce_ms;
    l.nn_step_ms = median(step);
    l.nn_pipeline_stall_s = median(stall);
    for (const LayerProfile& lp : profile.layers) {
      l.nn_fwd_ms += lp.forward_ms;
      l.nn_bwd_ms += lp.backward_ms;
    }
    l.nn_hot_layer_ms = profile.layers[profile.hottest()].total_ms();
    l.tensor_gemm_gflops = probes.gemm_gflops;
    l.tensor_conv_gflops = probes.conv_gflops;
    l.trace_overhead_frac =
        (median(traced_total) - median(total)) / median(total);
    report_layers(report, l);
  }
  report.stamp("ranks", static_cast<double>(w.ranks));
  report.stamp("scale", runner.config().scale);
  report.stamp("data_seeds", static_cast<double>(w.data_seeds));
  report.stamp("runs_untraced", static_cast<double>(untraced.size()));
  report.stamp("runs_traced", static_cast<double>(traced.size()));
  report.stamp("latency_samples", static_cast<double>(step_ms.size()));
}

// ---------------------------------------------------------------------------
// Serving workload (serve::InferenceServer).

constexpr double kServeScale = 0.02;
constexpr double kServeSmokeScale = 0.002;
constexpr std::size_t kServeWidth = 2;
constexpr std::size_t kPoolRows = 256;
constexpr double kFixedRps = 2000.0;
constexpr double kSloP99Ms = 25.0;
// The served checkpoints are the system under test, fixed across runs; the
// seed drives the traffic (request rows and arrival schedule).
constexpr std::uint64_t kServeModelSeed = 7;

struct ServedModel {
  std::string name;
  BenchmarkId id;
  ScaledGeometry geometry;
  Tensor pool;                      // request rows (test split)
  std::vector<std::size_t> labels;  // class of each pool row
  Tensor reference;                 // Model::predict(pool), row-exact
};

/// The serving fixture: models checkpointed and loaded into a server.
struct ServeFixture {
  std::vector<ServedModel> models;
  std::unique_ptr<serve::InferenceServer> server;
};

ServeFixture serve_setup(const Options& o) {
  const double scale = o.smoke ? kServeSmokeScale : kServeScale;
  ServeFixture f;
  f.server = std::make_unique<serve::InferenceServer>();
  const serve::BatcherOptions batching{.max_batch = 32,
                                       .batch_deadline_s = 0.002};
  for (const auto& [name, id] : {std::pair{"nt3", BenchmarkId::kNT3},
                                 std::pair{"p1b2", BenchmarkId::kP1B2}}) {
    ServedModel m;
    m.name = name;
    m.id = id;
    m.geometry = scaled_geometry(id, scale);
    const BenchmarkData data = make_benchmark_data(id, m.geometry, o.seed);
    const std::size_t rows = std::min(kPoolRows, data.test.size());
    m.pool = nn::take_rows(data.test.x, 0, rows);
    const Tensor y = nn::take_rows(data.test.y, 0, rows);
    for (std::size_t i = 0; i < rows; ++i) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < y.dim(1); ++c)
        if (y.at(i, c) > y.at(i, best)) best = c;
      m.labels.push_back(best);
    }
    nn::Model trained = build_model(id, m.geometry);
    compile_benchmark_model(id, trained, m.geometry,
                            profile_for(id).learning_rate, kServeModelSeed);
    const std::string path = o.workdir + "/" + name + ".ckpt";
    nn::save_weights(trained, path);
    m.reference = trained.predict(m.pool);
    f.server->add_model_from_checkpoint(name, build_model(id, m.geometry),
                                        {m.geometry.features}, path, batching);
    f.models.push_back(std::move(m));
  }
  return f;
}

/// Outcome of one open-loop or burst phase.
struct PhaseResult {
  std::vector<double> latency_ms;  // from scheduled arrival to completion
  std::vector<double> lag_ms;      // sender lateness vs the schedule
  double makespan_s = 0.0;         // first arrival to last completion
  std::size_t completed = 0;
  double loss_sum = 0.0;           // cross-entropy of served rows
};

/// Sends `schedule` from this thread alone (open loop: each request goes
/// out at its scheduled time whatever the server's progress; a burst
/// schedule has every offset at 0) and checks every response. Between
/// sends it takes the responses that have already arrived, so the process
/// never holds a whole run's responses at once.
PhaseResult send_schedule(ServeFixture& f,
                          const std::vector<serve::ScheduledRequest>& schedule,
                          Report& report) {
  PhaseResult out;
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(schedule.size());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](const serve::ScheduledRequest& r) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(r.at_s));
  };
  Clock::time_point last = t0;
  auto harvest = [&](std::size_t i) {
    ++report.attempted;
    if (!futures[i].valid()) return;  // counted when submit threw
    const serve::ScheduledRequest& r = schedule[i];
    const ServedModel& m = f.models[r.source];
    serve::Response resp;
    try {
      resp = futures[i].get();
    } catch (const std::exception& e) {
      report.fail(std::string("request future failed: ") + e.what());
      return;
    }
    const std::size_t out_width = m.reference.dim(1);
    if (resp.y.numel() != out_width ||
        std::memcmp(resp.y.data(), m.reference.data() + r.row * out_width,
                    out_width * sizeof(float)) != 0) {
      report.fail(m.name + " served row differs from Model::predict");
      return;
    }
    ++out.completed;
    last = std::max(last, resp.completed_at);
    out.latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                 resp.completed_at - due(r))
                                 .count());
    out.loss_sum -= std::log(std::max(1e-12f, resp.y[m.labels[r.row]]));
  };
  auto ready = [&](std::size_t i) {
    return !futures[i].valid() ||
           futures[i].wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  };

  std::size_t harvested = 0;
  for (const serve::ScheduledRequest& r : schedule) {
    const Clock::time_point at = due(r);
    std::this_thread::sleep_until(at);
    const ServedModel& m = f.models[r.source];
    const std::size_t width = m.pool.dim(1);
    out.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - at).count());
    try {
      futures.push_back(f.server->submit(
          m.name, std::span<const float>(m.pool.data() + r.row * width, width)));
    } catch (const std::exception& e) {
      futures.emplace_back();
      report.fail(std::string("submit threw: ") + e.what());
    }
    while (harvested < futures.size() && ready(harvested)) harvest(harvested++);
  }
  while (harvested < futures.size()) harvest(harvested++);
  out.makespan_s = std::chrono::duration<double>(last - t0).count();
  return out;
}

std::vector<serve::ScheduledRequest> poisson_schedule(
    const ServeFixture& f, double rps, std::size_t requests,
    std::uint64_t seed) {
  std::vector<serve::TrafficSource> sources;
  for (const ServedModel& m : f.models)
    sources.push_back({m.name, &m.pool, 1.0});
  serve::LoadgenOptions lo;
  lo.mode = serve::LoopMode::kOpen;
  lo.arrival = serve::ArrivalKind::kPoisson;
  lo.offered_rps = rps;
  lo.requests = requests;
  lo.clients = 1;
  lo.seed = seed;
  return serve::make_schedule(lo, sources);
}

/// The SLO test of a capacity trial: p99 within the limit and a sender that
/// did not fall further behind over the run.
bool meets_slo(const PhaseResult& p) {
  if (p.latency_ms.empty() || p.completed != p.lag_ms.size()) return false;
  const std::size_t q = std::max<std::size_t>(1, p.lag_ms.size() / 4);
  const std::vector<double> head(p.lag_ms.begin(), p.lag_ms.begin() + q);
  const std::vector<double> tail(p.lag_ms.end() - q, p.lag_ms.end());
  return percentile(p.latency_ms, 0.99) <= kSloP99Ms &&
         median(tail) <= median(head) + 1.0;
}

void run_serving(const Options& o, Report& report) {
  parallel::set_num_threads(kServeWidth);

  // Set-up, repeated: request pools, checkpoints, server start. The last
  // fixture serves; the others are shut down and timed as samples.
  std::vector<double> setup_s;
  ServeFixture f;
  for (int i = 0; i < 5; ++i) {
    const Stopwatch watch;
    f = serve_setup(o);
    setup_s.push_back(watch.seconds());
  }
  auto stats_sum = [&] {
    serve::BatcherStats s;
    for (const ServedModel& m : f.models) {
      const serve::BatcherStats one = f.server->stats(m.name);
      s.batches += one.batches;
      s.rows += one.rows;
      s.deadline_batches += one.deadline_batches;
    }
    return s;
  };

  // The serving job: a fixed offered rate, open loop.
  const auto fixed_requests = static_cast<std::size_t>(
      std::max(500.0, kFixedRps * o.seconds * (o.trace ? 0.3 : 0.8)));
  const serve::BatcherStats before = stats_sum();
  const PhaseResult fixed = send_schedule(
      f, poisson_schedule(f, kFixedRps, fixed_requests, o.seed), report);
  const serve::BatcherStats after = stats_sum();
  const Stopwatch phases;

  if (!o.trace) {
    EndToEnd e;
    e.run_s = fixed.makespan_s;
    e.items_per_s = static_cast<double>(fixed.completed) / fixed.makespan_s;
    e.latency_p50_ms = median(fixed.latency_ms);
    e.final_loss = fixed.loss_sum / static_cast<double>(
                                        std::max<std::size_t>(1, fixed.completed));
    e.setup_s = median(setup_s);
    report_end_to_end(report, e);
  } else {
    LayerMetrics l;
    const std::size_t batches = after.batches - before.batches;
    l.serve_batch_rows_mean =
        static_cast<double>(after.rows - before.rows) /
        static_cast<double>(std::max<std::size_t>(1, batches));
    l.serve_deadline_close_frac =
        static_cast<double>(after.deadline_batches - before.deadline_batches) /
        static_cast<double>(std::max<std::size_t>(1, batches));
    l.serve_p99_ms = percentile(fixed.latency_ms, 0.99);
    l.serve_send_lag_ms = percentile(fixed.lag_ms, 0.99);
    l.serve_latency_samples = static_cast<double>(fixed.latency_ms.size());
    // Forward time of one batch at the mean batch size, averaged over the
    // served models (the traffic mix is even).
    const auto rows = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(l.serve_batch_rows_mean)));
    for (const ServedModel& m : f.models) {
      nn::Model model = build_model(m.id, m.geometry);
      model.compile_for_inference({m.geometry.features}, kServeModelSeed);
      const Tensor x = nn::take_rows(m.pool, 0, std::min(rows, m.pool.dim(0)));
      l.serve_forward_ms += time_ms([&] { (void)model.predict(x); }, 0.2) /
                            static_cast<double>(f.models.size());
    }

    // Offline bursts, every request due at once: throughput at saturation.
    std::vector<double> burst_rps;
    const std::size_t burst = o.smoke ? 256 : 2048;
    std::uint64_t burst_seed = o.seed * 1000;
    repeat_for(o.seconds * 0.2, 3, [&] {
      std::vector<serve::ScheduledRequest> schedule =
          poisson_schedule(f, kFixedRps, burst, ++burst_seed);
      for (serve::ScheduledRequest& r : schedule) r.at_s = 0.0;
      const PhaseResult p = send_schedule(f, schedule, report);
      burst_rps.push_back(static_cast<double>(p.completed) / p.makespan_s);
    });
    l.serve_burst_rps = median(burst_rps);

    // Capacity: geometric search for the highest offered rate meeting the
    // SLO; reported as the throughput that rate achieved.
    const double trial_s = o.smoke ? 0.1 : 0.6;
    const double search_budget =
        std::max(0.5, o.seconds * 0.9 - phases.seconds());
    const Stopwatch search;
    double lo = 0.0, hi = 0.0;
    double rate = kFixedRps;
    std::uint64_t trial_seed = o.seed * 2000;
    while (search.seconds() < search_budget) {
      const auto n = static_cast<std::size_t>(rate * trial_s);
      const PhaseResult p =
          send_schedule(f, poisson_schedule(f, rate, n, ++trial_seed), report);
      if (meets_slo(p)) {
        lo = rate;
        l.serve_capacity_rps = static_cast<double>(p.completed) / p.makespan_s;
      } else {
        hi = rate;
      }
      rate = hi == 0.0   ? rate * 2.0
             : lo == 0.0 ? rate / 2.0
                         : std::sqrt(lo * hi);
      if (hi > 0.0 && lo > 0.0 && hi / lo < 1.03) break;
    }
    report_layers(report, l);
  }
  f.server->shutdown();
  report.stamp("latency_samples", static_cast<double>(fixed.latency_ms.size()));
  report.stamp("fixed_rps", kFixedRps);
  report.stamp("ranks", 1.0);
  report.stamp("scale", o.smoke ? kServeSmokeScale : kServeScale);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  const TrainWorkload* train = nullptr;
  for (const TrainWorkload& w : kTrainWorkloads)
    if (o.workload == w.name) train = &w;
  if (train == nullptr && o.workload != "serve_mix") {
    std::fprintf(stderr, "perfbench_driver: unknown workload %s\n",
                 o.workload.c_str());
    return 2;
  }

  // Thread budget: compute threads must fit the cores. A training rank
  // computes on `width` pool threads; a serving dispatcher is the caller of
  // its own pool region, so serving adds width - 1 workers to the
  // dispatchers and the single sender thread.
  const std::size_t cpus = online_cpus();
  const std::size_t width = train ? train->width : kServeWidth;
  const std::size_t threads =
      train ? train->ranks * train->width : 2 + (kServeWidth - 1) + 1;
  if (threads > cpus) {
    std::fprintf(stderr,
                 "perfbench_driver: %s needs %zu compute threads but only "
                 "%zu CPUs are online; refusing to run oversubscribed\n",
                 o.workload.c_str(), threads, cpus);
    return 3;
  }

  Report report;
  report.stamp("workload", o.workload);
  report.stamp("seed", static_cast<double>(o.seed));
  report.stamp("trace", o.trace ? 1.0 : 0.0);
  report.stamp("smoke", o.smoke ? 1.0 : 0.0);
  report.stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.stamp("compiler", PERFBENCH_COMPILER);
  report.stamp("nproc", static_cast<double>(cpus));
  report.stamp("compute_threads", static_cast<double>(threads));
  try {
    std::filesystem::create_directories(o.workdir);
    if (train != nullptr) {
      parallel::set_num_threads(width);
      run_training(*train, o, report);
    } else {
      run_serving(o, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  report.stamp("pool_width", static_cast<double>(parallel::num_threads()));
  print_report(report);
  return 0;
}
