// CSV readers reproducing the data-loading strategies compared in the paper
// (Section 5, Tables 3 and 4).
//
//  * read_csv_original — models `pandas.read_csv()` with its default
//    low_memory=True: the file is tokenized in small text chunks; for every
//    (chunk, column) pair a separate piece buffer is allocated and a dtype
//    inference pass runs (try integer, fall back to float); at end-of-file
//    all per-column pieces are concatenated (extra copy), then the columnar
//    frame is transposed into the row-major result (second copy). For wide
//    files (tens of thousands of columns) the per-(chunk, column) overhead
//    dominates, exactly the pathology the paper measured on NT3/P1B1/P1B2.
//
//  * One fast core, the paper's fix (low_memory=False), behind four entry
//    points. It streams the file in blocks; per block, phase 1 builds the
//    line table (one memchr sweep: trailing '\r' trimmed, blank lines
//    dropped, skip_rows applied in file order) and phase 2 parses each row
//    with std::from_chars straight into its slot of the final row-major
//    frame — no type re-inference, no concatenation. The unfinished last
//    line carries into the next block, so memory stays one block plus the
//    frame. The entry points differ only in block size, in where phase 2
//    runs and in options:
//      - read_csv_chunked: 16 MB blocks (Spectrum Scale's largest I/O
//        block on Summit), phase 2 on the calling thread;
//      - read_csv_parallel: the same, with phase 2 across the calling
//        thread's candle::parallel team (this repo's step beyond the
//        paper);
//      - read_csv_selected: the chunked reader plus the CANDLE loaders'
//        header skip and usecols column filter;
//      - read_csv_dask: a Dask-DataFrame-like reader, one block per row
//        segment. The simulator keeps the paper's Dask figures (Tables
//        3/4); this reader only gives them a real counterpart.
//    Every row is checked and parsed by the same code and the first
//    failing row in file order is the one reported, so the four return
//    bit-identical frames, or the same IoError, for any block size and
//    team width.
//
// All readers parse real bytes from a real file; equivalence is enforced
// by tests, including a seeded mutation fuzz of the fast core.
#pragma once

#include <cstddef>
#include <string>

#include "io/dataframe.h"

namespace candle::io {

/// Measurements from one read.
struct CsvReadStats {
  double seconds = 0.0;        // wall-clock parse time
  std::size_t bytes = 0;       // file size
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t chunks = 0;      // text chunks (original) or blocks (chunked)
  std::size_t piece_allocs = 0;  // per-(chunk,column) buffers (original only)
};

/// Pandas-default model (low_memory=True). `low_memory_chunk_bytes` is the
/// tokenizer chunk size (pandas uses 256 KiB of text).
DataFrame read_csv_original(const std::string& path, CsvReadStats* stats = nullptr,
                            std::size_t low_memory_chunk_bytes = 256 * 1024);

/// The paper's optimized loader: chunked read with low_memory=False.
/// `chunk_bytes` defaults to 16 MiB per the paper.
DataFrame read_csv_chunked(const std::string& path, CsvReadStats* stats = nullptr,
                           std::size_t chunk_bytes = 16 * 1024 * 1024);

/// Dask-like segmented reader: `segments` row partitions (default 8), each
/// read as one block of the fast core.
DataFrame read_csv_dask(const std::string& path, CsvReadStats* stats = nullptr,
                        std::size_t segments = 8);

/// The fast core with phase 2 across the calling thread's candle::parallel
/// team (width from CANDLE_NUM_THREADS / parallel::set_num_threads).
/// Exactly frame-equal to read_csv_chunked; `block_bytes` sizes the
/// streamed blocks (16 MiB, matching the chunked reader's I/O block).
DataFrame read_csv_parallel(const std::string& path,
                            CsvReadStats* stats = nullptr,
                            std::size_t block_bytes = 16 * 1024 * 1024);

/// Options for read_csv_selected (the CANDLE loaders pass header=None or a
/// header row plus a usecols subset to pandas.read_csv).
struct CsvSelect {
  std::size_t skip_rows = 0;            // e.g. 1 to drop a header line
  std::vector<std::size_t> usecols;     // empty = keep all columns
};

/// Fast chunked reader with row skipping and column selection. Selected
/// columns are emitted in ascending column order regardless of the order
/// given in `usecols`; duplicate/out-of-range columns throw.
DataFrame read_csv_selected(const std::string& path, const CsvSelect& select,
                            CsvReadStats* stats = nullptr,
                            std::size_t chunk_bytes = 16 * 1024 * 1024);

/// Loader selection used by the benchmark runner and the binary cache.
enum class LoaderKind { kOriginal, kChunked, kDask, kParallel };

std::string loader_name(LoaderKind kind);

/// Dispatches to one of the readers above.
DataFrame read_csv(const std::string& path, LoaderKind kind,
                   CsvReadStats* stats = nullptr);

}  // namespace candle::io
