// Block-buffered line reader, text writer and token scanner shared by the
// text formats (graph/io.cc and dynamic/delta_io.cc). Internal to those
// readers and writers: not part of the public API.
//
// LineReader pulls the file through one fixed-size block with fread and
// hands out string_view lines; TextWriter formats numbers with
// std::to_chars into one fixed-size block and flushes it with fwrite.
// Neither ever holds the whole file. The readers never trust
// stream-extraction (`>>`) or strto* behavior: every token is cut out of
// a bounded line and parsed with std::from_chars, so overflow, trailing
// junk, and locale effects are all explicit, and every diagnostic carries
// path:line:column.
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>

#include "graph/io.h"
#include "linalg/types.h"
#include "util/status.h"

namespace dgc {
namespace text_scan {

inline bool IsSpaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

inline bool IsCommentOrBlank(std::string_view line) {
  for (char c : line) {
    if (IsSpaceChar(c)) continue;
    return c == '#' || c == '%';
  }
  return true;  // blank
}

enum class LineRead { kLine, kEof, kTooLong, kError };

// Size of the block LineReader reads and TextWriter fills. It stays below
// glibc's 128 KiB mmap threshold, so a reader or writer never maps (and on
// free unmaps and raises the threshold) a buffer of its own.
inline constexpr size_t kIoBlockBytes = size_t{64} << 10;

// Reads '\n'-terminated lines from a file in fixed blocks of
// kIoBlockBytes, each fread at the next block-aligned file offset. A line
// inside one block is handed out as a view into the block; a line that
// crosses a block boundary is assembled in a carry buffer, the only
// buffer that grows, and only up to max_line_bytes: a longer line is
// reported as kTooLong without being buffered whole. A view stays valid
// until the next Next(). A failed read is kError, never end of file.
class LineReader {
 public:
  LineReader(const std::string& path, int64_t max_line_bytes);
  ~LineReader();
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  // False when the file could not be opened.
  bool is_open() const { return file_ != nullptr; }

  // Stores the next line (without its '\n') in *line. A line of more than
  // max_line_bytes bytes is kTooLong and a failed fread is kError (the
  // caller errors out at once on either); kEof only when no bytes remain.
  LineRead Next(std::string_view* line);

 private:
  std::FILE* file_ = nullptr;
  int64_t max_line_bytes_ = 0;
  std::unique_ptr<char[]> block_;
  size_t pos_ = 0;  // first unread byte of the block
  size_t end_ = 0;  // bytes the last fread stored in the block
  bool eof_ = false;
  std::string carry_;  // the start of a line that crosses a block boundary
};

// Writes text to a file through one block buffer. Integers are formatted
// with std::to_chars; doubles as std::to_chars general at precision 6,
// which is byte for byte what `std::ostream << double` writes by default.
// Close() reports any failed fwrite or fclose as "write failed for
// <path>"; without Close() the destructor flushes and closes silently.
class TextWriter {
 public:
  explicit TextWriter(const std::string& path);
  ~TextWriter();
  TextWriter(const TextWriter&) = delete;
  TextWriter& operator=(const TextWriter&) = delete;

  // False when the file could not be opened for writing.
  bool is_open() const { return file_ != nullptr; }

  TextWriter& operator<<(char c) {
    if (used_ == kIoBlockBytes) Flush();
    buf_[used_++] = c;
    return *this;
  }
  TextWriter& operator<<(std::string_view text);
  TextWriter& operator<<(double value);
  template <typename T>
    requires(std::integral<T> && !std::same_as<T, char> &&
             !std::same_as<T, bool>)
  TextWriter& operator<<(T value) {
    if (kIoBlockBytes - used_ < kMaxNumberChars) Flush();
    char* const first = buf_.get() + used_;
    used_ += static_cast<size_t>(
        std::to_chars(first, first + kMaxNumberChars, value).ptr - first);
    return *this;
  }

  // Flushes and closes the file; IOError naming the path if any write or
  // the close failed.
  Status Close();

 private:
  // Longest formatted number: 20 digits and a sign for 64-bit integers;
  // "-1.23457e-308" for a double at precision 6.
  static constexpr size_t kMaxNumberChars = 32;

  void Flush();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::unique_ptr<char[]> buf_;
  size_t used_ = 0;
  bool failed_ = false;
};

// Whitespace-separated token walker with 1-based column positions.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view line) : line_(line) {}

  // Extracts the next token; false when the line is exhausted.
  bool Next(std::string_view* token, int64_t* column) {
    SkipSpace();
    if (pos_ >= line_.size()) return false;
    const size_t start = pos_;
    while (pos_ < line_.size() && !IsSpaceChar(line_[pos_])) ++pos_;
    *token = line_.substr(start, pos_ - start);
    *column = static_cast<int64_t>(start) + 1;
    return true;
  }

  // True when only whitespace remains.
  bool AtEnd() {
    SkipSpace();
    return pos_ >= line_.size();
  }

  // 1-based column of the current scan position.
  int64_t column() {
    SkipSpace();
    return static_cast<int64_t>(pos_) + 1;
  }

 private:
  void SkipSpace() {
    while (pos_ < line_.size() && IsSpaceChar(line_[pos_])) ++pos_;
  }

  std::string_view line_;
  size_t pos_ = 0;
};

inline std::string Where(const std::string& path, int64_t line, int64_t col) {
  return path + ":" + std::to_string(line) + ":" + std::to_string(col) + ": ";
}

// Tokens are echoed into diagnostics; hostile input may contain arbitrary
// bytes, so clip to a short printable preview.
inline std::string TokenPreview(std::string_view token) {
  std::string out;
  const size_t n = std::min<size_t>(token.size(), 24);
  out.reserve(n + 3);
  for (size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(token[i]);
    out.push_back(c >= 0x20 && c < 0x7f ? static_cast<char>(c) : '?');
  }
  if (token.size() > n) out += "...";
  return out;
}

// Parses the whole token as one integer `out`; `what` names it in the
// diagnostic.
inline Status ParseInt64(const std::string& path, int64_t line_no,
                         int64_t col, std::string_view token,
                         const char* what, int64_t* out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, *out);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange(Where(path, line_no, col) + std::string(what) +
                              " '" + TokenPreview(token) +
                              "' overflows a 64-bit integer");
  }
  if (ec != std::errc() || ptr != last) {
    return Status::IOError(Where(path, line_no, col) + "malformed " +
                           std::string(what) + " '" + TokenPreview(token) +
                           "'");
  }
  return Status::OK();
}

// Parses the whole token as one double. Overflow and underflow are errors;
// "inf" and "nan" parse, so each reader states its own range rule after.
inline Status ParseDouble(const std::string& path, int64_t line_no,
                          int64_t col, std::string_view token,
                          const char* what, double* out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, *out);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange(Where(path, line_no, col) + std::string(what) +
                              " '" + TokenPreview(token) +
                              "' is out of double range");
  }
  if (ec != std::errc() || ptr != last) {
    return Status::IOError(Where(path, line_no, col) + "malformed " +
                           std::string(what) + " '" + TokenPreview(token) +
                           "'");
  }
  return Status::OK();
}

inline Status ReadFailed(const std::string& path) {
  return Status::IOError("read failed for " + path);
}

inline Status LineTooLong(const std::string& path, int64_t line_no,
                          const IoLimits& limits) {
  return Status::OutOfRange(
      Where(path, line_no, limits.max_line_bytes + 1) +
      "line exceeds IoLimits.max_line_bytes = " +
      std::to_string(limits.max_line_bytes));
}

// Largest vertex/category id representable regardless of caller limits:
// counts (max id + 1) must still fit in Index.
inline constexpr int64_t kIndexCap = std::numeric_limits<Index>::max();

}  // namespace text_scan
}  // namespace dgc
