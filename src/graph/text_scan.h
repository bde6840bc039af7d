// Bounded line reader and token scanner shared by the text readers
// (graph/io.cc and dynamic/delta_io.cc). Internal to those readers: not
// part of the public API.
//
// The readers never trust stream-extraction (`>>`) or strto* behavior:
// every token is cut out of a bounded line buffer and parsed with
// std::from_chars, so overflow, trailing junk, and locale effects are all
// explicit, and every diagnostic carries path:line:column.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <limits>
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

enum class LineRead { kLine, kEof, kTooLong };

// Reads one '\n'-terminated line into *out, refusing to buffer more than
// max_bytes of it (the remainder of an over-long line is left unread — the
// caller errors out immediately). Returns kEof only when no bytes remain.
inline LineRead ReadLineBounded(std::istream& in, int64_t max_bytes,
                                std::string* out) {
  out->clear();
  char buf[4096];
  for (;;) {
    in.get(buf, sizeof(buf), '\n');
    const std::streamsize got = in.gcount();
    if (got > 0) out->append(buf, static_cast<size_t>(got));
    if (static_cast<int64_t>(out->size()) > max_bytes) return LineRead::kTooLong;
    if (in.eof()) return out->empty() ? LineRead::kEof : LineRead::kLine;
    // get() sets failbit when it stores zero characters, which happens on an
    // empty line (next char is the delimiter). Clear and fall through to
    // consume the delimiter.
    if (in.fail()) in.clear();
    const int next = in.peek();
    if (next == '\n') {
      in.get();
      return LineRead::kLine;
    }
    if (next == std::char_traits<char>::eof()) {
      return out->empty() ? LineRead::kEof : LineRead::kLine;
    }
    // Buffer filled mid-line: keep reading the same line.
  }
}

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
