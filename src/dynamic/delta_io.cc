#include "dynamic/delta_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>

#include "graph/text_scan.h"

namespace dgc {
namespace {

using text_scan::IsCommentOrBlank;
using text_scan::kIndexCap;
using text_scan::LineRead;
using text_scan::LineReader;
using text_scan::LineTooLong;
using text_scan::ParseDouble;
using text_scan::ParseInt64;
using text_scan::ReadFailed;
using text_scan::TokenCursor;
using text_scan::TokenPreview;
using text_scan::Where;

// An insert weight must be finite and positive.
Status ParseWeight(const std::string& path, int64_t line_no, int64_t col,
                   std::string_view token, double* out) {
  DGC_RETURN_IF_ERROR(ParseDouble(path, line_no, col, token, "weight", out));
  if (!std::isfinite(*out) || *out <= 0.0) {
    return Status::IOError(Where(path, line_no, col) +
                           "weight must be finite and positive, got '" +
                           TokenPreview(token) + "'");
  }
  return Status::OK();
}

Status ParseVertex(const std::string& path, int64_t line_no, int64_t col,
                   std::string_view token, const char* what, int64_t id_cap,
                   Index* out) {
  int64_t id = 0;
  DGC_RETURN_IF_ERROR(ParseInt64(path, line_no, col, token, what, &id));
  if (id < 0) {
    return Status::IOError(Where(path, line_no, col) + "negative " +
                           std::string(what) + " " + std::to_string(id));
  }
  if (id >= id_cap) {
    return Status::OutOfRange(Where(path, line_no, col) + std::string(what) +
                              " " + std::to_string(id) + " outside [0, " +
                              std::to_string(id_cap) + ")");
  }
  *out = static_cast<Index>(id);
  return Status::OK();
}

}  // namespace

Result<std::vector<EdgeDeltaBatch>> ReadDeltaBatches(const std::string& path,
                                                     Index num_vertices,
                                                     const IoLimits& limits) {
  LineReader in(path, limits.max_line_bytes);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  if (num_vertices <= 0) {
    return Status::InvalidArgument(
        path + ": delta streams require a declared num_vertices > 0");
  }
  const int64_t id_cap =
      std::min(static_cast<int64_t>(num_vertices),
               std::min(limits.max_vertices, kIndexCap));

  std::vector<EdgeDeltaBatch> batches;
  EdgeDeltaBatch current;
  int64_t total_ops = 0;
  std::string_view line;
  int64_t line_no = 0;
  for (;;) {
    const LineRead read = in.Next(&line);
    if (read == LineRead::kError) return ReadFailed(path);
    if (read == LineRead::kEof) break;
    ++line_no;
    if (read == LineRead::kTooLong) return LineTooLong(path, line_no, limits);
    if (IsCommentOrBlank(line)) continue;

    TokenCursor cursor(line);
    std::string_view op;
    int64_t op_col = 0;
    cursor.Next(&op, &op_col);  // non-blank line: always succeeds
    if (op == "---") {
      if (!cursor.AtEnd()) {
        return Status::IOError(Where(path, line_no, cursor.column()) +
                               "trailing junk after batch separator");
      }
      if (!current.empty()) {
        batches.push_back(std::move(current));
        current = EdgeDeltaBatch{};
      }
      continue;
    }
    if (op != "+" && op != "-") {
      return Status::IOError(Where(path, line_no, op_col) +
                             "unknown delta op '" + TokenPreview(op) +
                             "' (expected '+', '-', or '---')");
    }
    if (total_ops >= limits.max_edges) {
      return Status::OutOfRange(
          Where(path, line_no, op_col) + "delta stream exceeds " +
          "IoLimits.max_edges = " + std::to_string(limits.max_edges) +
          " operations");
    }

    std::string_view token;
    int64_t col = 0;
    Index src = 0;
    Index dst = 0;
    if (!cursor.Next(&token, &col)) {
      return Status::IOError(Where(path, line_no, cursor.column()) +
                             "missing source vertex");
    }
    DGC_RETURN_IF_ERROR(
        ParseVertex(path, line_no, col, token, "source vertex", id_cap, &src));
    if (!cursor.Next(&token, &col)) {
      return Status::IOError(Where(path, line_no, cursor.column()) +
                             "missing destination vertex");
    }
    DGC_RETURN_IF_ERROR(ParseVertex(path, line_no, col, token,
                                    "destination vertex", id_cap, &dst));

    if (op == "+") {
      double weight = 1.0;
      if (cursor.Next(&token, &col)) {
        DGC_RETURN_IF_ERROR(ParseWeight(path, line_no, col, token, &weight));
      }
      if (!cursor.AtEnd()) {
        return Status::IOError(Where(path, line_no, cursor.column()) +
                               "trailing junk after insert");
      }
      current.inserts.push_back(Edge{src, dst, weight});
    } else {
      if (!cursor.AtEnd()) {
        return Status::IOError(Where(path, line_no, cursor.column()) +
                               "trailing junk after delete");
      }
      current.deletes.push_back(EdgeKey{src, dst});
    }
    ++total_ops;
  }
  if (!current.empty()) batches.push_back(std::move(current));
  return batches;
}

}  // namespace dgc
