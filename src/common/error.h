// Exception hierarchy for the CANDLE reproduction library.
//
// Per the C++ Core Guidelines (E.2/E.14), errors that callers cannot locally
// recover from are reported by throwing a type derived from std::exception.
#pragma once

#include <stdexcept>
#include <string>

namespace candle {

/// Base class for all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid argument / shape mismatch / bad configuration.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Filesystem / parsing failures in the io substrate.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Failures in the communication substrate (mismatched collective calls,
/// rank out of range, ...).
class CommError : public Error {
 public:
  explicit CommError(const std::string& what) : Error(what) {}
};

/// Device out-of-memory. The simulator throws this when a configuration
/// exceeds device memory (e.g. NT3 with batch size >= 50 on a 16 GB V100,
/// or P1B3 linear batch scaling at 192/384 GPUs, as reported in the paper).
class OutOfMemory : public Error {
 public:
  explicit OutOfMemory(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `msg` when `cond` is false. The literal
/// overload keeps a passing check free of allocation: a `std::string`
/// parameter would build one from every literal longer than the SSO
/// buffer, even when `cond` holds. Messages that need formatting belong
/// on the failing branch (`if (!cond) throw InvalidArgument(...)`) in hot
/// loops, for the same reason.
inline void require(bool cond, const char* msg) {
  if (!cond) throw InvalidArgument(msg);
}
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw InvalidArgument(msg);
}

}  // namespace candle
