// Tests for src/io: CSV writer, the three readers (equivalence + the
// performance shape behind the paper's optimization), synthetic data.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "io/binary_cache.h"
#include "io/csv_reader.h"
#include "io/csv_writer.h"
#include "io/synthetic.h"
#include "nn/metrics.h"
#include "nn/model.h"

namespace candle::io {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("candle_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  void write_file(const std::string& name, const std::string& content) {
    std::ofstream out(path(name), std::ios::binary);
    out << content;
  }

  std::filesystem::path dir_;
};

using CsvWriterTest = TempDir;
using CsvReaderTest = TempDir;
using SyntheticTest = TempDir;

// ---------------------------------------------------------------------------
// CsvWriter
// ---------------------------------------------------------------------------

TEST_F(CsvWriterTest, WritesRows) {
  {
    CsvWriter w(path("a.csv"));
    const float row[] = {1.5f, 2.0f};
    w.write_row(row);
    w.write_labeled_row(1, row);
    w.close();
  }
  std::ifstream in(path("a.csv"));
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
  std::getline(in, line);
  EXPECT_EQ(line, "1,1.5,2");
}

TEST_F(CsvWriterTest, ReportsBytesWritten) {
  CsvWriter w(path("b.csv"));
  const float row[] = {1.0f};
  w.write_row(row);
  const std::size_t bytes = w.close();
  EXPECT_EQ(bytes, 2u);  // "1\n"
  EXPECT_EQ(std::filesystem::file_size(path("b.csv")), 2u);
}

TEST_F(CsvWriterTest, OpenFailureThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_zz/x.csv"), IoError);
}

// ---------------------------------------------------------------------------
// Readers: correctness
// ---------------------------------------------------------------------------

TEST_F(CsvReaderTest, AllReadersParseIdenticalFrames) {
  write_synthetic_csv(path("data.csv"), {200, 37, false}, 9);
  const DataFrame a = read_csv_original(path("data.csv"));
  const DataFrame b = read_csv_chunked(path("data.csv"));
  const DataFrame c = read_csv_dask(path("data.csv"), nullptr, 4);
  ASSERT_EQ(a.rows, 200u);
  ASSERT_EQ(a.cols, 37u);
  ASSERT_EQ(b.rows, a.rows);
  ASSERT_EQ(c.rows, a.rows);
  ASSERT_EQ(b.cols, a.cols);
  ASSERT_EQ(c.cols, a.cols);
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data[i], b.data[i]) << i;
    EXPECT_FLOAT_EQ(a.data[i], c.data[i]) << i;
  }
}

TEST_F(CsvReaderTest, ParsesKnownValues) {
  write_file("k.csv", "1,2.5,-3\n4e2,0.125,6\n");
  for (auto kind : {LoaderKind::kOriginal, LoaderKind::kChunked,
                    LoaderKind::kDask}) {
    const DataFrame df = read_csv(path("k.csv"), kind);
    ASSERT_EQ(df.rows, 2u) << loader_name(kind);
    ASSERT_EQ(df.cols, 3u);
    EXPECT_FLOAT_EQ(df.at(0, 1), 2.5f);
    EXPECT_FLOAT_EQ(df.at(0, 2), -3.0f);
    EXPECT_FLOAT_EQ(df.at(1, 0), 400.0f);
    EXPECT_FLOAT_EQ(df.at(1, 1), 0.125f);
  }
}

TEST_F(CsvReaderTest, HandlesCrLfAndMissingTrailingNewline) {
  write_file("crlf.csv", "1,2\r\n3,4\r\n5,6");
  for (auto kind : {LoaderKind::kOriginal, LoaderKind::kChunked}) {
    const DataFrame df = read_csv(path("crlf.csv"), kind);
    ASSERT_EQ(df.rows, 3u);
    EXPECT_FLOAT_EQ(df.at(2, 1), 6.0f);
  }
}

TEST_F(CsvReaderTest, EmptyFieldsParseAsZero) {
  write_file("empty.csv", "1,,3\n,5,\n");
  const DataFrame df = read_csv_chunked(path("empty.csv"));
  EXPECT_FLOAT_EQ(df.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(df.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(df.at(1, 2), 0.0f);
}

TEST_F(CsvReaderTest, IntegerColumnsSurviveOriginalDtypeInference) {
  // The original reader tries int64 first; integers must round-trip.
  write_file("ints.csv", "7,-12\n1000000,0\n");
  const DataFrame df = read_csv_original(path("ints.csv"));
  EXPECT_FLOAT_EQ(df.at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(df.at(0, 1), -12.0f);
  EXPECT_FLOAT_EQ(df.at(1, 0), 1000000.0f);
}

TEST_F(CsvReaderTest, RaggedRowsThrow) {
  write_file("ragged.csv", "1,2,3\n4,5\n");
  EXPECT_THROW(read_csv_original(path("ragged.csv")), IoError);
  EXPECT_THROW(read_csv_chunked(path("ragged.csv")), IoError);
}

TEST_F(CsvReaderTest, RaggedRowReportsFieldCounts) {
  // Ragged-row messages are built only once a row fails the check; they
  // must still carry both field counts.
  write_file("short.csv", "1,2,3\n4,5\n");
  const auto message = [](auto&& read) -> std::string {
    try {
      (void)read();
    } catch (const IoError& e) {
      return e.what();
    }
    return "no IoError";
  };
  const std::string expect = "read_csv: ragged row (got 2 fields, expected 3)";
  EXPECT_EQ(expect, message([&] { return read_csv_original(path("short.csv")); }));
  EXPECT_EQ(expect, message([&] { return read_csv_chunked(path("short.csv")); }));
  EXPECT_EQ(expect, message([&] {
              return read_csv_selected(path("short.csv"), CsvSelect{});
            }));
}

TEST_F(CsvReaderTest, MalformedNumberThrows) {
  write_file("bad.csv", "1,zzz\n");
  EXPECT_THROW(read_csv_chunked(path("bad.csv")), IoError);
  EXPECT_THROW(read_csv_original(path("bad.csv")), IoError);
}

TEST_F(CsvReaderTest, MissingFileThrows) {
  EXPECT_THROW(read_csv_chunked(path("nope.csv")), IoError);
}

TEST_F(CsvReaderTest, EmptyFileThrows) {
  write_file("zero.csv", "");
  EXPECT_THROW(read_csv_chunked(path("zero.csv")), IoError);
  EXPECT_THROW(read_csv_original(path("zero.csv")), IoError);
}

TEST_F(CsvReaderTest, RowsSpanningChunkBoundaries) {
  // Rows wider than the reader chunk exercise the carry path.
  const std::size_t cols = 3000;
  write_synthetic_csv(path("wide.csv"), {5, cols, false}, 4);
  const DataFrame a = read_csv_original(path("wide.csv"), nullptr, 4096);
  const DataFrame b = read_csv_chunked(path("wide.csv"), nullptr, 4096);
  ASSERT_EQ(a.rows, 5u);
  ASSERT_EQ(a.cols, cols);
  for (std::size_t i = 0; i < a.data.size(); ++i)
    ASSERT_FLOAT_EQ(a.data[i], b.data[i]) << i;
}

TEST_F(CsvReaderTest, StatsAreReported) {
  write_synthetic_csv(path("s.csv"), {100, 50, false}, 1);
  CsvReadStats orig_stats, chunk_stats;
  (void)read_csv_original(path("s.csv"), &orig_stats, 4096);
  (void)read_csv_chunked(path("s.csv"), &chunk_stats);
  EXPECT_EQ(orig_stats.rows, 100u);
  EXPECT_EQ(orig_stats.cols, 50u);
  EXPECT_GT(orig_stats.chunks, 1u);
  EXPECT_GT(orig_stats.piece_allocs, 50u);  // per (chunk, column)
  EXPECT_EQ(chunk_stats.piece_allocs, 0u);
  EXPECT_GT(orig_stats.seconds, 0.0);
  EXPECT_EQ(chunk_stats.bytes, orig_stats.bytes);
}

TEST_F(CsvReaderTest, DaskSegmentCountRespected) {
  write_synthetic_csv(path("d.csv"), {64, 8, false}, 2);
  CsvReadStats stats;
  (void)read_csv_dask(path("d.csv"), &stats, 8);
  EXPECT_GE(stats.chunks, 2u);
  EXPECT_LE(stats.chunks, 8u);
}

// The paper's Table 3 shape: the chunked reader beats the original by a
// large factor on WIDE files and by much less on NARROW files of similar
// byte size (this is the heart of the optimization).
TEST_F(CsvReaderTest, ChunkedBeatsOriginalOnWideFiles) {
  // ~7 MB, 20,000 columns: like NT3's 60,483-column geometry, each row is
  // comparable to the low_memory chunk, so pieces ~ cells.
  write_synthetic_csv(path("wide2.csv"), {40, 20000, false}, 3);
  CsvReadStats orig_stats, chunk_stats;
  (void)read_csv_original(path("wide2.csv"), &orig_stats);
  (void)read_csv_chunked(path("wide2.csv"), &chunk_stats);
  EXPECT_GT(orig_stats.seconds / chunk_stats.seconds, 2.0)
      << "original=" << orig_stats.seconds
      << "s chunked=" << chunk_stats.seconds << "s";
}

TEST_F(CsvReaderTest, NarrowFilesShowMuchSmallerGap) {
  // Same byte volume, 100 columns (P1B3-like geometry).
  write_synthetic_csv(path("narrow.csv"), {8000, 100, false}, 3);
  CsvReadStats orig_stats, chunk_stats;
  (void)read_csv_original(path("narrow.csv"), &orig_stats);
  (void)read_csv_chunked(path("narrow.csv"), &chunk_stats);
  const double narrow_ratio = orig_stats.seconds / chunk_stats.seconds;

  write_synthetic_csv(path("wide3.csv"), {40, 20000, false}, 3);
  CsvReadStats worig, wchunk;
  (void)read_csv_original(path("wide3.csv"), &worig);
  (void)read_csv_chunked(path("wide3.csv"), &wchunk);
  const double wide_ratio = worig.seconds / wchunk.seconds;

  EXPECT_GT(wide_ratio, narrow_ratio)
      << "wide=" << wide_ratio << " narrow=" << narrow_ratio;
}

TEST_F(CsvReaderTest, LoaderNames) {
  EXPECT_NE(loader_name(LoaderKind::kOriginal).find("original"),
            std::string::npos);
  EXPECT_NE(loader_name(LoaderKind::kChunked).find("low_memory=False"),
            std::string::npos);
  EXPECT_NE(loader_name(LoaderKind::kDask).find("dask"), std::string::npos);
}

// ---------------------------------------------------------------------------
// read_csv_selected: header skip + usecols (CANDLE loader options)
// ---------------------------------------------------------------------------

TEST_F(CsvReaderTest, SelectedSkipsHeaderRows) {
  write_file("hdr.csv", "900,901\n1,2\n3,4\n");
  CsvSelect select;
  select.skip_rows = 1;
  const DataFrame df = read_csv_selected(path("hdr.csv"), select);
  ASSERT_EQ(df.rows, 2u);
  EXPECT_FLOAT_EQ(df.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(df.at(1, 1), 4.0f);
}

TEST_F(CsvReaderTest, SelectedPicksColumnSubsetInAscendingOrder) {
  write_file("cols.csv", "10,11,12,13\n20,21,22,23\n");
  CsvSelect select;
  select.usecols = {3, 0};  // order does not matter
  const DataFrame df = read_csv_selected(path("cols.csv"), select);
  ASSERT_EQ(df.cols, 2u);
  EXPECT_FLOAT_EQ(df.at(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(df.at(0, 1), 13.0f);
  EXPECT_FLOAT_EQ(df.at(1, 1), 23.0f);
}

TEST_F(CsvReaderTest, SelectedDefaultsMatchChunkedReader) {
  write_synthetic_csv(path("sel.csv"), {50, 9, false}, 6);
  const DataFrame a = read_csv_chunked(path("sel.csv"));
  const DataFrame b = read_csv_selected(path("sel.csv"), {});
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  for (std::size_t i = 0; i < a.data.size(); ++i)
    ASSERT_FLOAT_EQ(a.data[i], b.data[i]);
}

TEST_F(CsvReaderTest, SelectedValidatesUsecols) {
  write_file("v.csv", "1,2\n");
  CsvSelect out_of_range;
  out_of_range.usecols = {5};
  EXPECT_THROW(read_csv_selected(path("v.csv"), out_of_range), IoError);
  CsvSelect dup;
  dup.usecols = {1, 1};
  EXPECT_THROW(read_csv_selected(path("v.csv"), dup), IoError);
}

TEST_F(CsvReaderTest, SelectedSkipAllRowsThrows) {
  write_file("s2.csv", "1,2\n3,4\n");
  CsvSelect select;
  select.skip_rows = 10;
  EXPECT_THROW(read_csv_selected(path("s2.csv"), select), IoError);
}

// Property sweep: both readers parse identically for any chunk size and any
// file geometry (rows spanning chunks, chunks spanning rows, tiny files).
struct ReaderSweepParams {
  std::size_t rows, cols, chunk_bytes;
};

class ReaderChunkSweep
    : public ::testing::TestWithParam<ReaderSweepParams> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("candle_sweep_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_P(ReaderChunkSweep, ChunkSizeNeverChangesTheParse) {
  const auto [rows, cols, chunk] = GetParam();
  const std::string path = (dir_ / "sweep.csv").string();
  write_synthetic_csv(path, {rows, cols, false}, rows * 7 + cols);
  const DataFrame reference = read_csv_chunked(path);  // default chunk
  const DataFrame orig = read_csv_original(path, nullptr, chunk);
  const DataFrame chunked = read_csv_chunked(path, nullptr, chunk);
  ASSERT_EQ(orig.rows, rows);
  ASSERT_EQ(orig.cols, cols);
  ASSERT_EQ(chunked.rows, rows);
  for (std::size_t i = 0; i < reference.data.size(); ++i) {
    ASSERT_FLOAT_EQ(orig.data[i], reference.data[i]) << i;
    ASSERT_FLOAT_EQ(chunked.data[i], reference.data[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReaderChunkSweep,
    ::testing::Values(ReaderSweepParams{1, 1, 4096},
                      ReaderSweepParams{3, 500, 4096},   // row ~ chunk
                      ReaderSweepParams{200, 7, 4096},
                      ReaderSweepParams{17, 1000, 8192},  // row > chunk
                      ReaderSweepParams{64, 64, 65536},   // file < chunk
                      ReaderSweepParams{500, 3, 4096}));

// ---------------------------------------------------------------------------
// Binary frame cache (the beyond-the-paper loader)
// ---------------------------------------------------------------------------

using BinaryCacheTest = TempDir;

TEST_F(BinaryCacheTest, SaveLoadRoundTrip) {
  write_synthetic_csv(path("c.csv"), {40, 12, false}, 8);
  const DataFrame original = read_csv_chunked(path("c.csv"));
  save_frame(original, path("c.bin"));
  CsvReadStats stats;
  const DataFrame loaded = load_frame(path("c.bin"), &stats);
  ASSERT_EQ(loaded.rows, original.rows);
  ASSERT_EQ(loaded.cols, original.cols);
  for (std::size_t i = 0; i < loaded.data.size(); ++i)
    ASSERT_FLOAT_EQ(loaded.data[i], original.data[i]);
  EXPECT_EQ(stats.chunks, 0u);  // no parsing happened
}

TEST_F(BinaryCacheTest, CachedReadHitsAfterFirstMiss) {
  write_synthetic_csv(path("d.csv"), {30, 10, false}, 9);
  CsvReadStats miss_stats;
  const DataFrame first = read_csv_cached(path("d.csv"),
                                          LoaderKind::kChunked, &miss_stats);
  EXPECT_GT(miss_stats.chunks, 0u);  // parsed the CSV
  EXPECT_TRUE(is_cached_frame(cache_path_for(path("d.csv"))));

  CsvReadStats hit_stats;
  const DataFrame second = read_csv_cached(path("d.csv"),
                                           LoaderKind::kChunked, &hit_stats);
  EXPECT_EQ(hit_stats.chunks, 0u);  // served from the cache
  ASSERT_EQ(second.data.size(), first.data.size());
  for (std::size_t i = 0; i < first.data.size(); ++i)
    ASSERT_FLOAT_EQ(first.data[i], second.data[i]);
}

TEST_F(BinaryCacheTest, StaleCacheInvalidatedWhenCsvChanges) {
  write_synthetic_csv(path("e.csv"), {30, 10, false}, 1);
  (void)read_csv_cached(path("e.csv"));
  // Rewrite the CSV with a different size; the cache must be rebuilt.
  write_synthetic_csv(path("e.csv"), {60, 10, false}, 2);
  CsvReadStats stats;
  const DataFrame df = read_csv_cached(path("e.csv"),
                                       LoaderKind::kChunked, &stats);
  EXPECT_EQ(df.rows, 60u);
  EXPECT_GT(stats.chunks, 0u);  // re-parsed
}

TEST_F(BinaryCacheTest, CorruptCacheRejected) {
  write_file("bad.bin", "CFR1 garbage");
  EXPECT_THROW(load_frame(path("bad.bin")), IoError);
  write_file("worse.bin", "XXXX");
  EXPECT_THROW(load_frame(path("worse.bin")), IoError);
  EXPECT_FALSE(is_cached_frame(path("missing.bin")));
}

TEST_F(BinaryCacheTest, CacheLoadIsFasterThanParsing) {
  write_synthetic_csv(path("f.csv"), {200, 2000, false}, 5);
  CsvReadStats parse_stats;
  (void)read_csv_cached(path("f.csv"), LoaderKind::kChunked, &parse_stats);
  CsvReadStats hit_stats;
  (void)read_csv_cached(path("f.csv"), LoaderKind::kChunked, &hit_stats);
  EXPECT_LT(hit_stats.seconds, parse_stats.seconds);
}

// ---------------------------------------------------------------------------
// Synthetic data
// ---------------------------------------------------------------------------

TEST_F(SyntheticTest, CsvGeometryMatches) {
  const std::size_t bytes =
      write_synthetic_csv(path("g.csv"), {50, 20, true}, 1);
  EXPECT_EQ(std::filesystem::file_size(path("g.csv")), bytes);
  const DataFrame df = read_csv_chunked(path("g.csv"));
  EXPECT_EQ(df.rows, 50u);
  EXPECT_EQ(df.cols, 21u);  // label + 20 features
  for (std::size_t i = 0; i < df.rows; ++i) {
    const float label = df.at(i, 0);
    EXPECT_TRUE(label == 0.0f || label == 1.0f);
  }
}

TEST_F(SyntheticTest, CsvIsDeterministicInSeed) {
  write_synthetic_csv(path("s1.csv"), {10, 5, false}, 42);
  write_synthetic_csv(path("s2.csv"), {10, 5, false}, 42);
  std::ifstream a(path("s1.csv")), b(path("s2.csv"));
  std::string sa((std::istreambuf_iterator<char>(a)), {});
  std::string sb((std::istreambuf_iterator<char>(b)), {});
  EXPECT_EQ(sa, sb);
}

TEST(Synthetic, ClassificationBalancedAndShaped) {
  ClassificationSpec spec;
  spec.samples = 90;
  spec.features = 12;
  spec.classes = 3;
  spec.informative = 6;
  const nn::Dataset d = make_classification(spec);
  EXPECT_EQ(d.x.shape(), (Shape{90, 12}));
  EXPECT_EQ(d.y.shape(), (Shape{90, 3}));
  // Balanced classes: column sums of one-hot equal.
  for (std::size_t c = 0; c < 3; ++c) {
    float count = 0;
    for (std::size_t i = 0; i < 90; ++i) count += d.y.at(i, c);
    EXPECT_FLOAT_EQ(count, 30.0f);
  }
}

TEST(Synthetic, ClassificationSeparationControlsLearnability) {
  // Very separated data must be linearly separable to high accuracy by a
  // nearest-centroid rule; heavy noise must not be.
  auto centroid_accuracy = [](double sep, double noise) {
    ClassificationSpec spec;
    spec.samples = 400;
    spec.features = 10;
    spec.classes = 2;
    spec.informative = 10;
    spec.class_sep = sep;
    spec.noise = noise;
    spec.seed = 5;
    const nn::Dataset d = make_classification(spec);
    // Nearest-centroid on the training data.
    Tensor centers({2, 10});
    std::vector<float> counts(2, 0.0f);
    for (std::size_t i = 0; i < 400; ++i) {
      const std::size_t c = d.y.at(i, 1) > 0.5f ? 1 : 0;
      counts[c] += 1.0f;
      for (std::size_t j = 0; j < 10; ++j)
        centers.at(c, j) += d.x.at(i, j);
    }
    for (std::size_t c = 0; c < 2; ++c)
      for (std::size_t j = 0; j < 10; ++j) centers.at(c, j) /= counts[c];
    std::size_t hits = 0;
    for (std::size_t i = 0; i < 400; ++i) {
      double best = 1e30;
      std::size_t arg = 0;
      for (std::size_t c = 0; c < 2; ++c) {
        double dist = 0;
        for (std::size_t j = 0; j < 10; ++j) {
          const double diff = d.x.at(i, j) - centers.at(c, j);
          dist += diff * diff;
        }
        if (dist < best) {
          best = dist;
          arg = c;
        }
      }
      if (d.y.at(i, arg) > 0.5f) ++hits;
    }
    return static_cast<double>(hits) / 400.0;
  };
  EXPECT_GT(centroid_accuracy(3.0, 0.3), 0.97);
  EXPECT_LT(centroid_accuracy(0.05, 3.0), 0.75);
}

TEST(Synthetic, RegressionTargetsZeroCentered) {
  RegressionSpec spec;
  spec.samples = 300;
  spec.features = 8;
  spec.informative = 8;
  const nn::Dataset d = make_regression(spec);
  EXPECT_EQ(d.y.shape(), (Shape{300, 1}));
  EXPECT_GE(d.y.min(), -0.5f);
  EXPECT_LE(d.y.max(), 0.5f);
  EXPECT_NEAR(d.y.mean(), 0.0f, 0.15f);
}

TEST(Synthetic, RegressionIsLearnableStructure) {
  // R² of a constant predictor is 0; the data must carry signal that a
  // trained model can beat that (verified indirectly: targets correlate
  // with the informative features' projection, i.e. variance is not pure
  // noise). Train a tiny model as the check.
  RegressionSpec spec;
  spec.samples = 400;
  spec.features = 8;
  spec.informative = 8;
  spec.noise = 0.02;
  const nn::Dataset d = make_regression(spec);
  nn::Model m;
  m.add<nn::Dense>(16, nn::Act::kTanh);
  m.add<nn::Dense>(1, nn::Act::kNone);
  m.compile({8}, nn::make_optimizer("adam", 0.01), nn::make_loss("mse"), 3);
  nn::FitOptions opt;
  opt.epochs = 60;
  opt.batch_size = 50;
  opt.classification = false;
  EXPECT_GT(m.fit(d, opt).final_accuracy(), 0.6f);  // R²
}

TEST(Synthetic, AutoencoderDataLowRankStructure) {
  const nn::Dataset d = make_autoencoder_data(100, 32, 4, 9);
  EXPECT_EQ(d.x.shape(), (Shape{100, 32}));
  // Target equals input.
  for (std::size_t i = 0; i < d.x.numel(); ++i)
    ASSERT_FLOAT_EQ(d.x[i], d.y[i]);
  // Sigmoid output range.
  EXPECT_GE(d.x.min(), 0.0f);
  EXPECT_LE(d.x.max(), 1.0f);
}

TEST(Synthetic, InvalidSpecsThrow) {
  ClassificationSpec bad;
  bad.classes = 1;
  EXPECT_THROW(make_classification(bad), InvalidArgument);
  ClassificationSpec bad2;
  bad2.informative = 999;
  bad2.features = 4;
  EXPECT_THROW(make_classification(bad2), InvalidArgument);
  EXPECT_THROW(make_autoencoder_data(10, 4, 8, 1), InvalidArgument);
}

}  // namespace
}  // namespace candle::io
