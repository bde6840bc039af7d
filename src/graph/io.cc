#include "graph/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <tuple>
#include <vector>

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
using text_scan::TextWriter;
using text_scan::TokenCursor;
using text_scan::TokenPreview;
using text_scan::Where;

// An edge weight must be finite; each format adds its own sign rule.
Status ParseWeight(const std::string& path, int64_t line_no, int64_t col,
                   std::string_view token, const char* what, double* out) {
  DGC_RETURN_IF_ERROR(ParseDouble(path, line_no, col, token, what, out));
  if (!std::isfinite(*out)) {
    return Status::IOError(Where(path, line_no, col) + "non-finite " +
                           std::string(what) + " '" + TokenPreview(token) +
                           "'");
  }
  return Status::OK();
}

}  // namespace

Result<Digraph> ReadEdgeList(const std::string& path, Index num_vertices,
                             const IoLimits& limits) {
  LineReader in(path, limits.max_line_bytes);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  const int64_t vertex_cap = std::min(limits.max_vertices, kIndexCap);
  if (num_vertices > 0 && static_cast<int64_t>(num_vertices) > vertex_cap) {
    return Status::OutOfRange(
        path + ": declared num_vertices " + std::to_string(num_vertices) +
        " exceeds IoLimits.max_vertices = " + std::to_string(vertex_cap));
  }
  // Ids must stay below the declared size when one is given, and below the
  // vertex cap always — checked per token, before any cast to Index.
  const int64_t id_cap =
      num_vertices > 0 ? static_cast<int64_t>(num_vertices) : vertex_cap;

  std::vector<Edge> edges;
  Index max_id = -1;
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
    std::string_view token;
    int64_t col = 0;
    int64_t ids[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      if (!cursor.Next(&token, &col)) {
        return Status::IOError(Where(path, line_no, cursor.column()) +
                               "expected 'src dst [weight]': missing " +
                               (k == 0 ? "source" : "destination") +
                               " vertex id");
      }
      DGC_RETURN_IF_ERROR(ParseInt64(path, line_no, col, token,
                                     k == 0 ? "source vertex id"
                                            : "destination vertex id",
                                     &ids[k]));
      if (ids[k] < 0) {
        return Status::OutOfRange(Where(path, line_no, col) +
                                  "negative vertex id " +
                                  std::to_string(ids[k]));
      }
      if (ids[k] >= id_cap) {
        return Status::OutOfRange(
            Where(path, line_no, col) + "vertex id " + std::to_string(ids[k]) +
            " >= " +
            (num_vertices > 0 ? "declared num_vertices "
                              : "IoLimits.max_vertices ") +
            std::to_string(id_cap));
      }
    }
    double w = 1.0;
    if (cursor.Next(&token, &col)) {
      DGC_RETURN_IF_ERROR(
          ParseWeight(path, line_no, col, token, "edge weight", &w));
      if (w < 0.0) {
        return Status::IOError(Where(path, line_no, col) +
                               "negative edge weight '" + TokenPreview(token) +
                               "'");
      }
      if (!cursor.AtEnd()) {
        return Status::IOError(Where(path, line_no, cursor.column()) +
                               "unexpected trailing content after "
                               "'src dst weight'");
      }
    }
    if (static_cast<int64_t>(edges.size()) >= limits.max_edges) {
      return Status::OutOfRange(Where(path, line_no, 1) +
                                "edge count exceeds IoLimits.max_edges = " +
                                std::to_string(limits.max_edges));
    }
    edges.push_back(Edge{static_cast<Index>(ids[0]),
                         static_cast<Index>(ids[1]), static_cast<Scalar>(w)});
    max_id = std::max<Index>(
        max_id, static_cast<Index>(std::max(ids[0], ids[1])));
  }
  const Index n = num_vertices > 0 ? num_vertices : max_id + 1;
  return Digraph::FromEdges(n, edges);
}

Status WriteEdgeList(const Digraph& g, const std::string& path) {
  TextWriter out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out << "# directed edge list: src dst weight\n";
  out << "# vertices=" << g.NumVertices() << " edges=" << g.NumEdges()
      << "\n";
  const CsrMatrix& a = g.adjacency();
  for (Index u = 0; u < g.NumVertices(); ++u) {
    auto cols = a.RowCols(u);
    auto vals = a.RowValues(u);
    for (size_t i = 0; i < cols.size(); ++i) {
      out << u << ' ' << cols[i] << ' ' << vals[i] << '\n';
    }
  }
  return out.Close();
}

Status WriteUndirectedEdgeList(const UGraph& g, const std::string& path) {
  TextWriter out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out << "# undirected weighted edge list: u v weight (u < v)\n";
  const CsrMatrix& a = g.adjacency();
  for (Index u = 0; u < g.NumVertices(); ++u) {
    auto cols = a.RowCols(u);
    auto vals = a.RowValues(u);
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] > u) out << u << ' ' << cols[i] << ' ' << vals[i] << '\n';
    }
  }
  return out.Close();
}

Result<UGraph> ReadMetisGraph(const std::string& path,
                              const IoLimits& limits) {
  LineReader in(path, limits.max_line_bytes);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  std::string_view line;
  int64_t line_no = 0;

  // --- Header: "n m [fmt]" on the first non-comment, non-blank line. ---
  int64_t n = 0;
  int64_t m = 0;
  bool has_edge_weights = false;
  bool saw_header = false;
  while (!saw_header) {
    const LineRead read = in.Next(&line);
    if (read == LineRead::kError) return ReadFailed(path);
    if (read == LineRead::kEof) {
      return Status::IOError(path + ": missing METIS header 'n m [fmt]'");
    }
    ++line_no;
    if (read == LineRead::kTooLong) return LineTooLong(path, line_no, limits);
    if (IsCommentOrBlank(line)) continue;
    saw_header = true;

    TokenCursor cursor(line);
    std::string_view token;
    int64_t col = 0;
    if (!cursor.Next(&token, &col)) {
      return Status::IOError(Where(path, line_no, 1) +
                             "malformed METIS header");
    }
    DGC_RETURN_IF_ERROR(
        ParseInt64(path, line_no, col, token, "vertex count", &n));
    if (n < 0) {
      return Status::IOError(Where(path, line_no, col) +
                             "negative METIS vertex count");
    }
    const int64_t vertex_cap = std::min(limits.max_vertices, kIndexCap);
    if (n > vertex_cap) {
      return Status::OutOfRange(Where(path, line_no, col) + "vertex count " +
                                std::to_string(n) +
                                " exceeds IoLimits.max_vertices = " +
                                std::to_string(vertex_cap));
    }
    if (!cursor.Next(&token, &col)) {
      return Status::IOError(Where(path, line_no, cursor.column()) +
                             "METIS header missing edge count");
    }
    DGC_RETURN_IF_ERROR(
        ParseInt64(path, line_no, col, token, "edge count", &m));
    if (m < 0) {
      return Status::IOError(Where(path, line_no, col) +
                             "negative METIS edge count");
    }
    if (m > limits.max_edges) {
      return Status::OutOfRange(Where(path, line_no, col) + "edge count " +
                                std::to_string(m) +
                                " exceeds IoLimits.max_edges = " +
                                std::to_string(limits.max_edges));
    }
    if (cursor.Next(&token, &col)) {
      // fmt: up to three binary digits; only the edge-weight bit (last) is
      // supported. Anything else (vertex weights/sizes, ncon fields) is an
      // explicit error rather than a silently misread file.
      if (token.empty() || token.size() > 3 ||
          token.find_first_not_of("01") != std::string_view::npos) {
        return Status::IOError(Where(path, line_no, col) +
                               "malformed METIS fmt field '" +
                               TokenPreview(token) + "'");
      }
      if (token.size() >= 2 &&
          token.substr(0, token.size() - 1).find('1') !=
              std::string_view::npos) {
        return Status::IOError(Where(path, line_no, col) + "METIS fmt '" +
                               TokenPreview(token) +
                               "' requests vertex weights/sizes, which are "
                               "not supported");
      }
      has_edge_weights = token.back() == '1';
      if (!cursor.AtEnd()) {
        return Status::IOError(
            Where(path, line_no, cursor.column()) +
            "unexpected trailing content in METIS header (multi-constraint "
            "ncon is not supported)");
      }
    }
  }

  // --- Body: exactly n adjacency lines totalling 2m endpoint entries. ---
  std::vector<std::tuple<Index, Index, Scalar>> edges;
  edges.reserve(static_cast<size_t>(std::min<int64_t>(m, 1 << 20)));
  const int64_t max_entries = 2 * m;
  int64_t total_entries = 0;
  int64_t u = 0;
  while (u < n) {
    const LineRead read = in.Next(&line);
    if (read == LineRead::kError) return ReadFailed(path);
    if (read == LineRead::kEof) break;
    ++line_no;
    if (read == LineRead::kTooLong) return LineTooLong(path, line_no, limits);
    // Comment lines may appear between adjacency lines; blank lines are
    // adjacency lines (a vertex with no neighbors).
    if (!line.empty() && (line[0] == '%' || line[0] == '#')) continue;

    TokenCursor cursor(line);
    std::string_view token;
    int64_t col = 0;
    while (cursor.Next(&token, &col)) {
      int64_t v = 0;
      DGC_RETURN_IF_ERROR(
          ParseInt64(path, line_no, col, token, "neighbor id", &v));
      if (v < 1 || v > n) {
        return Status::OutOfRange(Where(path, line_no, col) + "neighbor id " +
                                  std::to_string(v) + " out of [1," +
                                  std::to_string(n) + "]");
      }
      if (v == u + 1) {
        return Status::IOError(Where(path, line_no, col) + "vertex " +
                               std::to_string(u + 1) +
                               " lists itself as a neighbor (METIS forbids "
                               "self-loops)");
      }
      double w = 1.0;
      if (has_edge_weights) {
        if (!cursor.Next(&token, &col)) {
          return Status::IOError(Where(path, line_no, cursor.column()) +
                                 "missing edge weight for neighbor " +
                                 std::to_string(v) + " of vertex " +
                                 std::to_string(u + 1));
        }
        DGC_RETURN_IF_ERROR(
            ParseWeight(path, line_no, col, token, "edge weight", &w));
        if (w <= 0.0) {
          return Status::IOError(Where(path, line_no, col) +
                                 "non-positive METIS edge weight '" +
                                 TokenPreview(token) + "'");
        }
      }
      if (++total_entries > max_entries) {
        return Status::IOError(
            Where(path, line_no, col) + "adjacency body exceeds the 2*m = " +
            std::to_string(max_entries) + " endpoint entries declared in the "
            "header");
      }
      const Index nb = static_cast<Index>(v - 1);
      if (u < nb) {  // store each undirected edge once
        edges.emplace_back(static_cast<Index>(u), nb, static_cast<Scalar>(w));
      }
    }
    ++u;
  }
  if (u != n) {
    return Status::IOError(path + ": truncated METIS body: expected " +
                           std::to_string(n) + " adjacency lines, got " +
                           std::to_string(u));
  }
  if (total_entries != max_entries) {
    return Status::IOError(
        path + ": METIS header declares " + std::to_string(m) + " edges (" +
        std::to_string(max_entries) + " endpoint entries) but the body has " +
        std::to_string(total_entries));
  }
  // Anything after the body other than comments/blank lines is an error.
  for (;;) {
    const LineRead read = in.Next(&line);
    if (read == LineRead::kError) return ReadFailed(path);
    if (read == LineRead::kEof) break;
    ++line_no;
    if (read == LineRead::kTooLong) return LineTooLong(path, line_no, limits);
    if (IsCommentOrBlank(line)) continue;
    return Status::IOError(Where(path, line_no, 1) +
                           "unexpected content after the last adjacency "
                           "line");
  }
  return UGraph::FromEdges(static_cast<Index>(n), edges);
}

Status WriteMetisGraph(const UGraph& g, const std::string& path,
                       double weight_scale) {
  TextWriter out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out << g.NumVertices() << ' ' << g.NumEdges() << " 001\n";
  const CsrMatrix& a = g.adjacency();
  for (Index u = 0; u < g.NumVertices(); ++u) {
    auto cols = a.RowCols(u);
    auto vals = a.RowValues(u);
    for (size_t i = 0; i < cols.size(); ++i) {
      const double scaled = vals[i] * weight_scale;
      const int64_t w = std::llround(scaled);
      if (!std::isfinite(scaled) || w < 1) {
        return Status::InvalidArgument(
            path + ": edge (" + std::to_string(u) + "," +
            std::to_string(cols[i]) + ") weight " + std::to_string(vals[i]) +
            " rounds to " + std::to_string(w) + " under weight_scale " +
            std::to_string(weight_scale) +
            "; METIS requires positive integer weights — increase "
            "weight_scale");
      }
      out << (cols[i] + 1) << ' ' << w;
      out << (i + 1 < cols.size() ? ' ' : '\n');
    }
    if (cols.empty()) out << '\n';
  }
  return out.Close();
}

Result<GroundTruth> ReadGroundTruth(const std::string& path,
                                    Index num_vertices,
                                    const IoLimits& limits) {
  LineReader in(path, limits.max_line_bytes);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  const int64_t category_cap = std::min(limits.max_categories, kIndexCap);
  GroundTruth truth;
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
    std::string_view token;
    int64_t col = 0;
    if (!cursor.Next(&token, &col)) {
      return Status::IOError(Where(path, line_no, 1) +
                             "expected 'vertex cat1 [cat2 ...]'");
    }
    int64_t vertex = 0;
    DGC_RETURN_IF_ERROR(
        ParseInt64(path, line_no, col, token, "vertex id", &vertex));
    if (vertex < 0 || vertex >= static_cast<int64_t>(num_vertices)) {
      return Status::OutOfRange(Where(path, line_no, col) + "vertex id " +
                                std::to_string(vertex) + " out of [0," +
                                std::to_string(num_vertices) + ")");
    }
    bool any_category = false;
    while (cursor.Next(&token, &col)) {
      int64_t cat = 0;
      DGC_RETURN_IF_ERROR(
          ParseInt64(path, line_no, col, token, "category id", &cat));
      if (cat < 0) {
        return Status::OutOfRange(Where(path, line_no, col) +
                                  "negative category id " +
                                  std::to_string(cat));
      }
      if (cat >= category_cap) {
        // Bounded *before* the table is resized: a huge category id must not
        // translate into a huge allocation.
        return Status::OutOfRange(Where(path, line_no, col) + "category id " +
                                  std::to_string(cat) +
                                  " >= IoLimits.max_categories = " +
                                  std::to_string(category_cap));
      }
      if (truth.categories.size() <= static_cast<size_t>(cat)) {
        truth.categories.resize(static_cast<size_t>(cat) + 1);
      }
      truth.categories[static_cast<size_t>(cat)].push_back(
          static_cast<Index>(vertex));
      any_category = true;
    }
    if (!any_category) {
      return Status::IOError(Where(path, line_no, cursor.column()) +
                             "vertex " + std::to_string(vertex) +
                             " lists no category ids");
    }
  }
  for (auto& members : truth.categories) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }
  return truth;
}

Status WriteGroundTruth(const GroundTruth& truth, const std::string& path) {
  TextWriter out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  // Invert to vertex -> category lists for the line format.
  Index max_vertex = -1;
  for (const auto& members : truth.categories) {
    for (Index v : members) max_vertex = std::max(max_vertex, v);
  }
  std::vector<std::vector<Index>> per_vertex(
      static_cast<size_t>(max_vertex + 1));
  for (size_t c = 0; c < truth.categories.size(); ++c) {
    for (Index v : truth.categories[c]) {
      per_vertex[static_cast<size_t>(v)].push_back(static_cast<Index>(c));
    }
  }
  for (size_t v = 0; v < per_vertex.size(); ++v) {
    if (per_vertex[v].empty()) continue;
    out << v;
    for (Index c : per_vertex[v]) out << ' ' << c;
    out << '\n';
  }
  return out.Close();
}

Result<Clustering> ReadClustering(const std::string& path,
                                  const IoLimits& limits) {
  LineReader in(path, limits.max_line_bytes);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  std::vector<Index> labels;
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
    std::string_view token;
    int64_t col = 0;
    cursor.Next(&token, &col);  // non-blank line: at least one token
    int64_t label = 0;
    DGC_RETURN_IF_ERROR(
        ParseInt64(path, line_no, col, token, "cluster label", &label));
    if (label < -1 || label >= kIndexCap) {
      return Status::OutOfRange(Where(path, line_no, col) +
                                "cluster label " + std::to_string(label) +
                                " out of [-1," + std::to_string(kIndexCap) +
                                ")");
    }
    if (!cursor.AtEnd()) {
      return Status::IOError(Where(path, line_no, cursor.column()) +
                             "unexpected trailing content after cluster "
                             "label");
    }
    if (static_cast<int64_t>(labels.size()) >=
        std::min(limits.max_vertices, kIndexCap)) {
      return Status::OutOfRange(
          Where(path, line_no, 1) + "label count exceeds "
          "IoLimits.max_vertices = " +
          std::to_string(std::min(limits.max_vertices, kIndexCap)));
    }
    labels.push_back(static_cast<Index>(label));
  }
  return Clustering(std::move(labels));
}

Status WriteClustering(const Clustering& clustering,
                       const std::string& path) {
  TextWriter out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  for (Index label : clustering.labels()) out << label << '\n';
  return out.Close();
}

}  // namespace dgc
