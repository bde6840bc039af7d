#include "graph/text_scan.h"

#include <cstring>

namespace dgc {
namespace text_scan {

LineReader::LineReader(const std::string& path, int64_t max_line_bytes)
    : file_(std::fopen(path.c_str(), "rb")),
      max_line_bytes_(max_line_bytes) {
  if (file_ == nullptr) return;
  // The block is the only read buffer: stdio reads straight into it.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  block_ = std::make_unique_for_overwrite<char[]>(kIoBlockBytes);
}

LineReader::~LineReader() {
  if (file_ != nullptr) std::fclose(file_);
}

LineRead LineReader::Next(std::string_view* line) {
  carry_.clear();
  for (;;) {
    if (pos_ == end_) {
      if (eof_) break;
      end_ = std::fread(block_.get(), 1, kIoBlockBytes, file_);
      pos_ = 0;
      eof_ = end_ < kIoBlockBytes;
      if (eof_ && std::ferror(file_) != 0) return LineRead::kError;
      continue;
    }
    const char* const first = block_.get() + pos_;
    const size_t left = end_ - pos_;
    const auto* newline =
        static_cast<const char*>(std::memchr(first, '\n', left));
    const size_t length =
        newline != nullptr ? static_cast<size_t>(newline - first) : left;
    if (static_cast<int64_t>(carry_.size() + length) > max_line_bytes_) {
      return LineRead::kTooLong;
    }
    if (newline == nullptr) {  // the line goes on in the next block
      carry_.append(first, length);
      pos_ = end_;
      continue;
    }
    pos_ += length + 1;
    if (carry_.empty()) {
      *line = std::string_view(first, length);
    } else {
      carry_.append(first, length);
      *line = carry_;
    }
    return LineRead::kLine;
  }
  if (carry_.empty()) return LineRead::kEof;
  *line = carry_;  // a last line without '\n'
  return LineRead::kLine;
}

TextWriter::TextWriter(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "wb")) {
  if (file_ == nullptr) return;
  // The block below is the only buffer: stdio writes straight from it.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  buf_ = std::make_unique_for_overwrite<char[]>(kIoBlockBytes);
}

TextWriter::~TextWriter() {
  if (file_ == nullptr) return;
  Flush();
  std::fclose(file_);
}

TextWriter& TextWriter::operator<<(std::string_view text) {
  while (!text.empty()) {
    if (used_ == kIoBlockBytes) Flush();
    const size_t n = std::min(text.size(), kIoBlockBytes - used_);
    std::memcpy(buf_.get() + used_, text.data(), n);
    used_ += n;
    text.remove_prefix(n);
  }
  return *this;
}

TextWriter& TextWriter::operator<<(double value) {
  if (kIoBlockBytes - used_ < kMaxNumberChars) Flush();
  char* const first = buf_.get() + used_;
  used_ += static_cast<size_t>(
      std::to_chars(first, first + kMaxNumberChars, value,
                    std::chars_format::general, 6)
          .ptr -
      first);
  return *this;
}

void TextWriter::Flush() {
  if (used_ > 0 && std::fwrite(buf_.get(), 1, used_, file_) != used_) {
    failed_ = true;
  }
  used_ = 0;
}

Status TextWriter::Close() {
  Flush();
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (failed_ || !closed) return Status::IOError("write failed for " + path_);
  return Status::OK();
}

}  // namespace text_scan
}  // namespace dgc
