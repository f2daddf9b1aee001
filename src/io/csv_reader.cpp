#include "io/csv_reader.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stopwatch.h"

namespace candle::io {
namespace {

/// Parse-level validation failures are IoErrors (bad file content), not
/// InvalidArgument (bad caller arguments).
inline void io_require(bool cond, const std::string& msg) {
  if (!cond) throw IoError(msg);
}

/// Ragged-row message; built only once a row is known to be ragged.
[[noreturn]] void throw_ragged_row(std::size_t got, std::size_t expected) {
  throw IoError("read_csv: ragged row (got " + std::to_string(got) +
                " fields, expected " + std::to_string(expected) + ")");
}

/// Fast float parse used by the streaming core: parses the field that
/// starts at `begin` into `out` and returns its end (the next ',' or
/// `end`). from_chars finds the end itself, so cells are scanned once.
inline const char* parse_fast(const char* begin, const char* end,
                              float& out) {
  if (begin == end || *begin == ',') {  // empty field == NaN -> 0
    out = 0.0f;
    return begin;
  }
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || (ptr != end && *ptr != ','))
    throw IoError("read_csv: malformed numeric field '" +
                  std::string(begin, std::find(begin, end, ',')) + "'");
  return ptr;
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

/// One non-blank line of the current block, trailing '\r' trimmed.
struct Line {
  const char* begin;
  const char* end;
};

struct BlockCounts {
  std::size_t bytes = 0;   // bytes read from the file
  std::size_t blocks = 0;  // fread calls that returned data
};

/// The block reader every reader shares. Streams the file in `block_bytes`
/// reads, each appended after the previous block's unfinished last line,
/// and after each read hands `on_block` that block's complete non-blank
/// lines in file order (one memchr sweep over the new bytes). At end of
/// file the unterminated final line, if any, gets a call of its own. The
/// lines point into the block buffer and are valid only during the call.
/// Memory stays at one block plus the carried partial line.
template <typename OnBlock>
BlockCounts for_each_block(const std::string& path, std::size_t block_bytes,
                           OnBlock&& on_block) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) throw IoError("read_csv: cannot open " + path);
  BlockCounts counts;
  // Left uninitialized: fread fills only what the file has, so a small
  // file read with a 16 MiB block touches a few pages, not 16 MiB.
  std::unique_ptr<char[]> buf;
  std::size_t capacity = 0;
  std::vector<Line> lines;
  std::size_t carry = 0;  // bytes of the unfinished line at buf's front
  const auto add_line = [&](const char* begin, const char* end) {
    if (end > begin && end[-1] == '\r') --end;
    if (end > begin) lines.push_back({begin, end});
  };
  while (true) {
    if (carry + block_bytes > capacity) {  // first block, or a long line
      capacity = std::max(2 * capacity, carry + block_bytes);
      auto grown = std::make_unique_for_overwrite<char[]>(capacity);
      if (carry > 0) std::memcpy(grown.get(), buf.get(), carry);
      buf = std::move(grown);
    }
    const std::size_t n =
        std::fread(buf.get() + carry, 1, block_bytes, file.get());
    if (n == 0) break;
    counts.bytes += n;
    ++counts.blocks;
    lines.clear();
    const char* line = buf.get();
    const char* p = buf.get() + carry;  // the carry holds no '\n'
    const char* const end = p + n;
    while (const char* nl = static_cast<const char*>(
               std::memchr(p, '\n', static_cast<std::size_t>(end - p)))) {
      add_line(line, nl);
      line = p = nl + 1;
    }
    on_block(lines);
    carry = static_cast<std::size_t>(end - line);
    if (line != buf.get()) std::memmove(buf.get(), line, carry);
  }
  lines.clear();
  add_line(buf.get(), buf.get() + carry);
  if (!lines.empty()) on_block(lines);
  return counts;
}

/// Parses one row into `out`: every field when `keep` is empty, else the
/// fields whose indices `keep` lists (ascending). Throws on the first
/// malformed field, as soon as the row passes `cols` fields, or at its end
/// when it has fewer.
void parse_row(const Line& row, std::size_t cols,
               const std::vector<std::size_t>& keep, float* out) {
  std::size_t picked = 0;
  const char* p = row.begin;
  for (std::size_t c = 0;; ++c) {
    if (c == cols)
      throw IoError("read_csv: ragged row (got more fields than the " +
                    std::to_string(cols) + " expected)");
    const char* const field_end =
        keep.empty() || (picked < keep.size() && keep[picked] == c)
            ? parse_fast(p, row.end, out[picked++])
            : std::find(p, row.end, ',');
    if (field_end == row.end) {
      if (c + 1 != cols) throw_ragged_row(c + 1, cols);
      return;
    }
    p = field_end + 1;
  }
}

/// The one fast reader behind chunked, parallel, selected and dask: each
/// block's line table (phase 1, in for_each_block) drops the first
/// `skip_rows` kept lines in file order, the first remaining row fixes the
/// column count, then phase 2 grows the frame by the block's rows and
/// parses each row straight into its slot — on the calling thread, or
/// across its parallel team when `on_team` is set. Rows never move between
/// blocks and phase 2 stops at the first failing row of the lowest chunk,
/// so every block size and team width yields the same frame or error.
DataFrame read_csv_core(const std::string& path, std::size_t block_bytes,
                        bool on_team, const CsvSelect& select,
                        CsvReadStats* stats) {
  Stopwatch watch;
  std::vector<std::size_t> keep = select.usecols;
  std::sort(keep.begin(), keep.end());
  io_require(std::adjacent_find(keep.begin(), keep.end()) == keep.end(),
             "read_csv_selected: duplicate column in usecols");

  DataFrame df;
  std::size_t file_cols = 0;  // fields per row in the file
  std::size_t to_skip = select.skip_rows;
  const BlockCounts counts =
      for_each_block(path, block_bytes, [&](const std::vector<Line>& lines) {
        const std::size_t skipped = std::min(to_skip, lines.size());
        to_skip -= skipped;
        const Line* rows = lines.data() + skipped;
        const std::size_t n = lines.size() - skipped;
        if (n == 0) return;
        if (file_cols == 0) {
          file_cols = 1 + static_cast<std::size_t>(
                              std::count(rows[0].begin, rows[0].end, ','));
          io_require(keep.empty() || keep.back() < file_cols,
                     "read_csv_selected: usecols index out of range (file "
                     "has " + std::to_string(file_cols) + " columns)");
          df.cols = keep.empty() ? file_cols : keep.size();
        }
        const std::size_t first = df.rows;
        df.rows += n;
        df.data.resize(df.rows * df.cols);
        const auto parse_rows = [&](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r)
            parse_row(rows[r], file_cols, keep,
                      df.data.data() + (first + r) * df.cols);
        };
        if (on_team)
          parallel::parallel_for(0, n, 64, parse_rows);
        else
          parse_rows(0, n);
      });

  io_require(df.rows > 0, "read_csv: no data rows in " + path);
  if (stats != nullptr)
    *stats = {watch.seconds(), counts.bytes, df.rows, df.cols, counts.blocks,
              0};
  return df;
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

  // Per-column piece lists: each text chunk contributes one piece per column.
  std::vector<std::vector<std::vector<double>>> column_pieces;
  std::size_t cols = 0;
  std::size_t total_rows = 0;
  std::size_t chunks = 0;
  std::size_t piece_allocs = 0;

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

  // Each text chunk's rows are tokenized, then flushed as one chunk.
  const BlockCounts counts = for_each_block(
      path, low_memory_chunk_bytes, [&](const std::vector<Line>& lines) {
        for (const Line& line : lines) process_line(line.begin, line.end);
        flush_chunk();
      });

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

  if (stats != nullptr)
    *stats = {watch.seconds(), counts.bytes, df.rows, df.cols, chunks,
              piece_allocs};
  return df;
}

// ---------------------------------------------------------------------------
// The four fast entry points: thin calls into read_csv_core.
// ---------------------------------------------------------------------------

DataFrame read_csv_chunked(const std::string& path, CsvReadStats* stats,
                           std::size_t chunk_bytes) {
  require(chunk_bytes >= 4096, "read_csv_chunked: chunk must be >= 4 KiB");
  return read_csv_core(path, chunk_bytes, false, CsvSelect{}, stats);
}

DataFrame read_csv_dask(const std::string& path, CsvReadStats* stats,
                        std::size_t segments) {
  require(segments > 0, "read_csv_dask: segments must be > 0");
  // One block per row segment; an unknown size falls back to 16 MiB and
  // lets the core report the open failure.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  const std::size_t block =
      ec ? std::size_t{16} << 20
         : std::max<std::size_t>(
               1, static_cast<std::size_t>((size + segments - 1) / segments));
  return read_csv_core(path, block, false, CsvSelect{}, stats);
}

DataFrame read_csv_parallel(const std::string& path, CsvReadStats* stats,
                            std::size_t block_bytes) {
  require(block_bytes >= 4096, "read_csv_parallel: block must be >= 4 KiB");
  return read_csv_core(path, block_bytes, true, CsvSelect{}, stats);
}

DataFrame read_csv_selected(const std::string& path, const CsvSelect& select,
                            CsvReadStats* stats, std::size_t chunk_bytes) {
  require(chunk_bytes >= 4096, "read_csv_selected: chunk must be >= 4 KiB");
  return read_csv_core(path, chunk_bytes, false, select, stats);
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
