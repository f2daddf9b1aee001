// Streaming CSV writer used by the synthetic data generator.
#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string>

namespace candle::io {

/// Buffered CSV writer. Values are formatted with std::to_chars (general,
/// precision 6), which writes the same bytes as printf's %.6g at a fraction
/// of its cost; that density matches the CANDLE csv exports, ~9 bytes per
/// cell including the comma.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row of floats.
  void write_row(std::span<const float> values);

  /// Writes a row that starts with an integer label followed by floats
  /// (the NT3/P1B2 on-disk layout: class in column 0).
  void write_labeled_row(long long label, std::span<const float> values);

  /// Flushes and closes; returns total bytes written. Throws IoError when
  /// the final write or the close fails (e.g. a full disk); the file is
  /// closed either way. Later calls return the byte count. The destructor
  /// closes too if not already done, but can only log such errors.
  std::size_t close();

  [[nodiscard]] std::size_t bytes_written() const { return bytes_; }

 private:
  void put(const char* s, std::size_t n);

  std::FILE* f_ = nullptr;
  std::string buffer_;
  std::size_t bytes_ = 0;
};

}  // namespace candle::io
