#include "io/csv_writer.h"

#include <charconv>
#include <utility>

#include "common/error.h"
#include "common/log.h"

namespace candle::io {
namespace {
constexpr std::size_t kFlushThreshold = 1 << 20;  // 1 MiB write buffer

/// Writes `v` as printf("%.6g") would (std::to_chars' general format with
/// a precision is specified as printf-equivalent); returns the end.
char* format_value(char* out, float v) {
  return std::to_chars(out, out + 32, static_cast<double>(v),
                       std::chars_format::general, 6)
      .ptr;
}
}  // namespace

CsvWriter::CsvWriter(const std::string& path) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) throw IoError("CsvWriter: cannot open " + path);
  buffer_.reserve(kFlushThreshold + (1 << 16));
}

CsvWriter::~CsvWriter() {
  if (f_ == nullptr) return;
  try {
    close();
  } catch (const IoError& e) {
    // A destructor must not throw; close() is where callers see this.
    log_warn() << e.what() << " (in ~CsvWriter)";
  }
}

void CsvWriter::put(const char* s, std::size_t n) {
  buffer_.append(s, n);
  if (buffer_.size() >= kFlushThreshold) {
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), f_) != buffer_.size())
      throw IoError("CsvWriter: short write");
    bytes_ += buffer_.size();
    buffer_.clear();
  }
}

void CsvWriter::write_row(std::span<const float> values) {
  char tmp[48] = {','};
  for (std::size_t i = 0; i < values.size(); ++i) {
    const char* const begin = i ? tmp : tmp + 1;  // comma after the first
    put(begin, static_cast<std::size_t>(format_value(tmp + 1, values[i]) -
                                        begin));
  }
  put("\n", 1);
}

void CsvWriter::write_labeled_row(long long label,
                                  std::span<const float> values) {
  char tmp[48];
  put(tmp, static_cast<std::size_t>(
               std::to_chars(tmp, tmp + sizeof(tmp), label).ptr - tmp));
  tmp[0] = ',';
  for (float v : values)
    put(tmp, static_cast<std::size_t>(format_value(tmp + 1, v) - tmp));
  put("\n", 1);
}

std::size_t CsvWriter::close() {
  if (f_ == nullptr) return bytes_;
  // Detach first: a failed close leaves nothing for the destructor to redo.
  std::FILE* const f = std::exchange(f_, nullptr);
  const bool written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), f) == buffer_.size();
  const bool closed = std::fclose(f) == 0;
  if (!written) throw IoError("CsvWriter: short write on close");
  if (!closed) throw IoError("CsvWriter: flush failed on close");
  bytes_ += buffer_.size();
  buffer_.clear();
  return bytes_;
}

}  // namespace candle::io
