#include "io/csv_reader.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stopwatch.h"

namespace candle::io {
namespace {

/// Parse-level validation failures are IoErrors (bad file content), not
/// InvalidArgument (bad caller arguments).
inline void io_require(bool cond, const char* msg) {
  if (!cond) throw IoError(msg);
}
inline void io_require(bool cond, const std::string& msg) {
  if (!cond) throw IoError(msg);
}

/// Ragged-row message; built only once a row is known to be ragged.
[[noreturn]] void throw_ragged_row(std::size_t got, std::size_t expected) {
  throw IoError("read_csv: ragged row (got " + std::to_string(got) +
                " fields, expected " + std::to_string(expected) + ")");
}

/// RAII FILE handle.
struct File {
  std::FILE* f = nullptr;
  explicit File(const std::string& path) {
    f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw IoError("read_csv: cannot open " + path);
  }
  ~File() {
    if (f) std::fclose(f);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
};

/// Fast float parse used by the optimized/dask paths.
inline float parse_fast(const char* begin, const char* end) {
  if (begin == end) return 0.0f;  // empty field == NaN -> 0
  float v = 0.0f;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end)
    throw IoError("read_csv: malformed numeric field '" +
                  std::string(begin, end) + "'");
  return v;
}

/// Float64 cell conversion for the original reader. The per-cell cost is
/// deliberately the same as the fast path: pandas' C tokenizer converts
/// cells at comparable speed under both low_memory settings — the
/// low_memory=True penalty the paper measured comes from per-(chunk,
/// column) piece management and consolidation, which flush_chunk models.
inline double parse_double(const char* begin, const char* end) {
  if (begin == end) return 0.0;  // empty field == NaN -> 0
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end)
    throw IoError("read_csv: malformed numeric field '" +
                  std::string(begin, end) + "'");
  return v;
}

/// Attempted integer conversion used by the original reader's dtype
/// inference (pandas tries int64 per column chunk before falling back).
inline bool try_parse_int(const char* begin, const char* end,
                          long long& out) {
  if (begin == end) return false;
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::string loader_name(LoaderKind kind) {
  switch (kind) {
    case LoaderKind::kOriginal: return "pandas.read_csv (original)";
    case LoaderKind::kChunked: return "chunked, low_memory=False";
    case LoaderKind::kDask: return "dask.dataframe";
    case LoaderKind::kParallel: return "parallel chunked (threaded)";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// read_csv_original: pandas low_memory=True model.
// ---------------------------------------------------------------------------

DataFrame read_csv_original(const std::string& path, CsvReadStats* stats,
                            std::size_t low_memory_chunk_bytes) {
  require(low_memory_chunk_bytes >= 4096,
          "read_csv_original: chunk must be >= 4 KiB");
  Stopwatch watch;
  File file(path);

  // Per-column piece lists: each text chunk contributes one piece per column.
  std::vector<std::vector<std::vector<double>>> column_pieces;
  std::size_t cols = 0;
  std::size_t total_rows = 0;
  std::size_t chunks = 0;
  std::size_t piece_allocs = 0;
  std::size_t file_bytes = 0;

  std::vector<char> buf(low_memory_chunk_bytes);
  std::string carry;  // partial trailing line from the previous read
  std::vector<std::pair<const char*, const char*>> cells;

  // Rows of the current text chunk, as (begin, end) cell ranges per column.
  std::vector<std::vector<std::pair<const char*, const char*>>> chunk_rows;

  auto flush_chunk = [&]() {
    if (chunk_rows.empty()) return;
    ++chunks;
    if (column_pieces.empty()) column_pieces.resize(cols);
    // Per (chunk, column): allocate a piece and run dtype inference.
    for (std::size_t c = 0; c < cols; ++c) {
      std::vector<double> piece;
      piece.reserve(chunk_rows.size());
      ++piece_allocs;
      // Dtype inference: attempt int64 until a cell refuses, then restart
      // the column as float64 (pandas' fallback re-parse).
      bool as_int = true;
      for (const auto& row : chunk_rows) {
        long long iv = 0;
        if (!try_parse_int(row[c].first, row[c].second, iv)) {
          as_int = false;
          break;
        }
        piece.push_back(static_cast<double>(iv));
      }
      if (!as_int) {
        piece.clear();
        for (const auto& row : chunk_rows)
          piece.push_back(parse_double(row[c].first, row[c].second));
      }
      column_pieces[c].push_back(std::move(piece));
    }
    total_rows += chunk_rows.size();
    chunk_rows.clear();
  };

  auto process_line = [&](const char* begin, const char* end) {
    if (begin == end) return;  // skip blank lines
    cells.clear();
    const char* field = begin;
    for (const char* p = begin; p <= end; ++p) {
      if (p == end || *p == ',') {
        cells.emplace_back(field, p);
        field = p + 1;
      }
    }
    if (cols == 0) {
      cols = cells.size();
    } else {
      if (cells.size() != cols) throw_ragged_row(cells.size(), cols);
    }
    chunk_rows.push_back(cells);
  };

  std::string text;  // the chunk's stable backing store
  while (true) {
    const std::size_t n = std::fread(buf.data(), 1, buf.size(), file.f);
    file_bytes += n;
    if (n == 0) break;
    text.assign(carry);
    text.append(buf.data(), n);
    carry.clear();
    // Keep the trailing partial line for the next chunk.
    std::size_t last_nl = text.rfind('\n');
    if (last_nl == std::string::npos) {
      carry = text;
      continue;
    }
    carry.assign(text, last_nl + 1, std::string::npos);
    const char* p = text.data();
    const char* chunk_end = text.data() + last_nl;  // exclusive of final \n
    while (p <= chunk_end) {
      const char* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(chunk_end - p + 1)));
      if (nl == nullptr) nl = chunk_end;
      const char* line_end = (nl > p && nl[-1] == '\r') ? nl - 1 : nl;
      process_line(p, line_end);
      p = nl + 1;
    }
    flush_chunk();
  }
  if (!carry.empty()) {
    text.assign(carry);
    const char* b = text.data();
    const char* e = b + text.size();
    if (e > b && e[-1] == '\r') --e;
    process_line(b, e);
    flush_chunk();
  }

  io_require(cols > 0 && total_rows > 0, "read_csv: empty file " + path);

  // Concatenate per-column pieces (the low_memory consolidation copy) ...
  std::vector<std::vector<double>> columns(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    columns[c].reserve(total_rows);
    for (const auto& piece : column_pieces[c])
      columns[c].insert(columns[c].end(), piece.begin(), piece.end());
    column_pieces[c].clear();
  }
  column_pieces.clear();

  // ... then materialize the row-major frame (DataFrame.values copy).
  DataFrame df;
  df.rows = total_rows;
  df.cols = cols;
  df.data.resize(total_rows * cols);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < total_rows; ++r)
      df.data[r * cols + c] = static_cast<float>(columns[c][r]);

  if (stats != nullptr) {
    stats->seconds = watch.seconds();
    stats->bytes = file_bytes;
    stats->rows = df.rows;
    stats->cols = df.cols;
    stats->chunks = chunks;
    stats->piece_allocs = piece_allocs;
  }
  return df;
}

// ---------------------------------------------------------------------------
// read_csv_chunked: the paper's optimized loader.
// ---------------------------------------------------------------------------

DataFrame read_csv_chunked(const std::string& path, CsvReadStats* stats,
                           std::size_t chunk_bytes) {
  require(chunk_bytes >= 4096, "read_csv_chunked: chunk must be >= 4 KiB");
  Stopwatch watch;
  File file(path);

  DataFrame df;
  std::size_t file_bytes = 0;
  std::size_t blocks = 0;

  std::vector<char> buf(chunk_bytes);
  std::string carry;
  std::string text;

  auto process_line = [&](const char* begin, const char* end) {
    if (begin == end) return;
    std::size_t c = 0;
    const char* field = begin;
    for (const char* p = begin; p <= end; ++p) {
      if (p == end || *p == ',') {
        df.data.push_back(parse_fast(field, p));
        field = p + 1;
        ++c;
      }
    }
    if (df.cols == 0) {
      df.cols = c;
    } else {
      if (c != df.cols) throw_ragged_row(c, df.cols);
    }
    ++df.rows;
  };

  while (true) {
    const std::size_t n = std::fread(buf.data(), 1, buf.size(), file.f);
    file_bytes += n;
    if (n == 0) break;
    ++blocks;
    text.assign(carry);
    text.append(buf.data(), n);
    carry.clear();
    const std::size_t last_nl = text.rfind('\n');
    if (last_nl == std::string::npos) {
      carry = text;
      continue;
    }
    carry.assign(text, last_nl + 1, std::string::npos);
    const char* p = text.data();
    const char* chunk_end = text.data() + last_nl;
    while (p <= chunk_end) {
      const char* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(chunk_end - p + 1)));
      if (nl == nullptr) nl = chunk_end;
      const char* line_end = (nl > p && nl[-1] == '\r') ? nl - 1 : nl;
      process_line(p, line_end);
      p = nl + 1;
    }
  }
  if (!carry.empty()) {
    text.assign(carry);
    const char* b = text.data();
    const char* e = b + text.size();
    if (e > b && e[-1] == '\r') --e;
    process_line(b, e);
  }

  io_require(df.cols > 0 && df.rows > 0, "read_csv: empty file " + path);
  if (stats != nullptr) {
    stats->seconds = watch.seconds();
    stats->bytes = file_bytes;
    stats->rows = df.rows;
    stats->cols = df.cols;
    stats->chunks = blocks;
    stats->piece_allocs = 0;
  }
  return df;
}

// ---------------------------------------------------------------------------
// read_csv_dask: segmented reader.
// ---------------------------------------------------------------------------

DataFrame read_csv_dask(const std::string& path, CsvReadStats* stats,
                        std::size_t segments) {
  require(segments > 0, "read_csv_dask: segments must be > 0");
  Stopwatch watch;

  // Read the whole file (dask mmaps / reads byte ranges per partition).
  std::string text;
  {
    File file(path);
    std::fseek(file.f, 0, SEEK_END);
    const long size = std::ftell(file.f);
    io_require(size > 0, "read_csv: empty file " + path);
    std::fseek(file.f, 0, SEEK_SET);
    text.resize(static_cast<std::size_t>(size));
    if (std::fread(text.data(), 1, text.size(), file.f) != text.size())
      throw IoError("read_csv: short read on " + path);
  }

  // Segment boundaries aligned to line starts.
  std::vector<std::size_t> bounds{0};
  for (std::size_t s = 1; s < segments; ++s) {
    std::size_t pos = s * text.size() / segments;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos || nl + 1 >= text.size()) break;
    if (nl + 1 > bounds.back()) bounds.push_back(nl + 1);
  }
  bounds.push_back(text.size());

  // Parse each partition into its own frame (fast parser), then concat.
  std::vector<DataFrame> parts;
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    DataFrame part;
    const char* p = text.data() + bounds[s];
    const char* seg_end = text.data() + bounds[s + 1];
    while (p < seg_end) {
      const char* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(seg_end - p)));
      const char* line_end = nl != nullptr ? nl : seg_end;
      const char* trimmed = (line_end > p && line_end[-1] == '\r')
                                ? line_end - 1
                                : line_end;
      if (trimmed > p) {
        std::size_t c = 0;
        const char* field = p;
        for (const char* q = p; q <= trimmed; ++q) {
          if (q == trimmed || *q == ',') {
            part.data.push_back(parse_fast(field, q));
            field = q + 1;
            ++c;
          }
        }
        if (part.cols == 0) {
          part.cols = c;
        } else {
          io_require(c == part.cols, "read_csv: ragged row in dask segment");
        }
        ++part.rows;
      }
      if (nl == nullptr) break;
      p = nl + 1;
    }
    if (part.rows > 0) parts.push_back(std::move(part));
  }

  io_require(!parts.empty(), "read_csv: no data parsed from " + path);
  DataFrame df;
  df.cols = parts.front().cols;
  for (const auto& part : parts) {
    io_require(part.cols == df.cols, "read_csv: segment column mismatch");
    df.rows += part.rows;
  }
  df.data.reserve(df.rows * df.cols);
  for (auto& part : parts)
    df.data.insert(df.data.end(), part.data.begin(), part.data.end());

  if (stats != nullptr) {
    stats->seconds = watch.seconds();
    stats->bytes = text.size();
    stats->rows = df.rows;
    stats->cols = df.cols;
    stats->chunks = parts.size();
    stats->piece_allocs = 0;
  }
  return df;
}

// ---------------------------------------------------------------------------
// read_csv_parallel: the threaded two-phase extension of the chunked
// reader. Phase 1 newline-indexes 16 MB blocks across the pool; phase 2
// parses disjoint row ranges straight into the row-major frame. Every cell
// goes through the same parse_fast as read_csv_chunked, so the resulting
// frame is exactly equal for any thread count.
// ---------------------------------------------------------------------------

DataFrame read_csv_parallel(const std::string& path, CsvReadStats* stats,
                            std::size_t block_bytes) {
  require(block_bytes >= 4096, "read_csv_parallel: block must be >= 4 KiB");
  Stopwatch watch;

  // One sequential read of the file; the parallelism is in the parsing,
  // which is where the chunked reader spends its time.
  std::string text;
  {
    File file(path);
    std::fseek(file.f, 0, SEEK_END);
    const long size = std::ftell(file.f);
    io_require(size > 0, "read_csv: empty file " + path);
    std::fseek(file.f, 0, SEEK_SET);
    text.resize(static_cast<std::size_t>(size));
    if (std::fread(text.data(), 1, text.size(), file.f) != text.size())
      throw IoError("read_csv: short read on " + path);
  }

  // Phase 1: per-block newline index. Blocks are disjoint byte ranges, so
  // each worker scans its own blocks with memchr; concatenating the block
  // lists in block order reproduces the sequential newline sequence.
  const std::size_t blocks = (text.size() + block_bytes - 1) / block_bytes;
  std::vector<std::vector<std::size_t>> block_newlines(blocks);
  parallel::parallel_for(0, blocks, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      const std::size_t lo = blk * block_bytes;
      const std::size_t hi = std::min(text.size(), lo + block_bytes);
      std::vector<std::size_t>& out = block_newlines[blk];
      const char* base = text.data();
      std::size_t at = lo;
      while (at < hi) {
        const char* nl = static_cast<const char*>(
            std::memchr(base + at, '\n', hi - at));
        if (nl == nullptr) break;
        at = static_cast<std::size_t>(nl - base);
        out.push_back(at);
        ++at;
      }
    }
  });

  // Line table in file order: trim a trailing '\r' per line and drop blank
  // lines, exactly as the chunked reader's process_line does.
  std::vector<std::pair<std::size_t, std::size_t>> rows;
  std::size_t line_start = 0;
  auto add_line = [&](std::size_t begin, std::size_t end) {
    if (end > begin && text[end - 1] == '\r') --end;
    if (end > begin) rows.emplace_back(begin, end);
  };
  for (const auto& nls : block_newlines) {
    for (std::size_t nl : nls) {
      add_line(line_start, nl);
      line_start = nl + 1;
    }
  }
  if (line_start < text.size()) add_line(line_start, text.size());
  io_require(!rows.empty(), "read_csv: empty file " + path);

  // Column count from the first row (one serial line scan).
  std::size_t cols = 1;
  for (std::size_t i = rows.front().first; i < rows.front().second; ++i)
    if (text[i] == ',') ++cols;

  DataFrame df;
  df.rows = rows.size();
  df.cols = cols;
  df.data.resize(df.rows * df.cols);

  // Phase 2: parse disjoint row ranges directly into the final buffer.
  // Ragged rows throw; the pool rethrows the lowest-chunk error on the
  // calling thread.
  float* out = df.data.data();
  parallel::parallel_for(0, rows.size(), 64, [&](std::size_t r0,
                                                 std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const char* begin = text.data() + rows[r].first;
      const char* end = text.data() + rows[r].second;
      float* cell = out + r * cols;
      std::size_t c = 0;
      const char* field = begin;
      for (const char* p = begin; p <= end; ++p) {
        if (p == end || *p == ',') {
          if (c >= cols)
            throw IoError("read_csv: ragged row (got more fields than the " +
                          std::to_string(cols) + " expected)");
          cell[c++] = parse_fast(field, p);
          field = p + 1;
        }
      }
      if (c != cols) throw_ragged_row(c, cols);
    }
  });

  if (stats != nullptr) {
    stats->seconds = watch.seconds();
    stats->bytes = text.size();
    stats->rows = df.rows;
    stats->cols = df.cols;
    stats->chunks = blocks;
    stats->piece_allocs = 0;
  }
  return df;
}

// ---------------------------------------------------------------------------
// read_csv_selected: header skipping + column selection.
// ---------------------------------------------------------------------------

DataFrame read_csv_selected(const std::string& path, const CsvSelect& select,
                            CsvReadStats* stats, std::size_t chunk_bytes) {
  require(chunk_bytes >= 4096, "read_csv_selected: chunk must be >= 4 KiB");
  Stopwatch watch;
  File file(path);

  // Sorted, validated selection mask.
  std::vector<std::size_t> cols_wanted = select.usecols;
  std::sort(cols_wanted.begin(), cols_wanted.end());
  io_require(std::adjacent_find(cols_wanted.begin(), cols_wanted.end()) ==
                 cols_wanted.end(),
             "read_csv_selected: duplicate column in usecols");

  DataFrame df;
  std::size_t file_bytes = 0;
  std::size_t file_cols = 0;   // columns in the file (before selection)
  std::size_t line_no = 0;
  std::vector<char> buf(chunk_bytes);
  std::string carry;
  std::string text;

  auto process_line = [&](const char* begin, const char* end) {
    if (begin == end) return;
    if (line_no++ < select.skip_rows) return;
    std::size_t c = 0;
    std::size_t picked = 0;
    const char* field = begin;
    for (const char* p = begin; p <= end; ++p) {
      if (p == end || *p == ',') {
        const bool keep =
            cols_wanted.empty() ||
            (picked < cols_wanted.size() && cols_wanted[picked] == c);
        if (keep) {
          df.data.push_back(parse_fast(field, p));
          ++picked;
        }
        field = p + 1;
        ++c;
      }
    }
    if (file_cols == 0) {
      file_cols = c;
      io_require(cols_wanted.empty() || cols_wanted.back() < c,
                 "read_csv_selected: usecols index out of range (file has " +
                     std::to_string(c) + " columns)");
      df.cols = cols_wanted.empty() ? c : cols_wanted.size();
    } else {
      if (c != file_cols) throw_ragged_row(c, file_cols);
    }
    ++df.rows;
  };

  while (true) {
    const std::size_t n = std::fread(buf.data(), 1, buf.size(), file.f);
    file_bytes += n;
    if (n == 0) break;
    text.assign(carry);
    text.append(buf.data(), n);
    carry.clear();
    const std::size_t last_nl = text.rfind('\n');
    if (last_nl == std::string::npos) {
      carry = text;
      continue;
    }
    carry.assign(text, last_nl + 1, std::string::npos);
    const char* p = text.data();
    const char* chunk_end = text.data() + last_nl;
    while (p <= chunk_end) {
      const char* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(chunk_end - p + 1)));
      if (nl == nullptr) nl = chunk_end;
      const char* line_end = (nl > p && nl[-1] == '\r') ? nl - 1 : nl;
      process_line(p, line_end);
      p = nl + 1;
    }
  }
  if (!carry.empty()) {
    text.assign(carry);
    const char* b = text.data();
    const char* e = b + text.size();
    if (e > b && e[-1] == '\r') --e;
    process_line(b, e);
  }

  io_require(df.cols > 0 && df.rows > 0,
             "read_csv_selected: no data rows in " + path);
  if (stats != nullptr) {
    stats->seconds = watch.seconds();
    stats->bytes = file_bytes;
    stats->rows = df.rows;
    stats->cols = df.cols;
    stats->chunks = 1;
    stats->piece_allocs = 0;
  }
  return df;
}

DataFrame read_csv(const std::string& path, LoaderKind kind,
                   CsvReadStats* stats) {
  switch (kind) {
    case LoaderKind::kOriginal: return read_csv_original(path, stats);
    case LoaderKind::kChunked: return read_csv_chunked(path, stats);
    case LoaderKind::kDask: return read_csv_dask(path, stats);
    case LoaderKind::kParallel: return read_csv_parallel(path, stats);
  }
  throw InvalidArgument("read_csv: bad loader kind");
}

}  // namespace candle::io
