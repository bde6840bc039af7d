// File I/O: whitespace edge lists (SNAP style), the METIS graph format, and
// ground-truth category files. Everything returns Status/Result.
//
// All readers are streaming line/token parsers hardened for untrusted input:
// every malformed case (overflowing or negative ids, non-finite/negative
// weights, truncated lines, METIS header/body mismatches, over-long lines)
// yields a clean Status carrying a `path:line:column:` diagnostic — never a
// crash, silent clamp, or unbounded allocation. IoLimits bounds are enforced
// *during* the scan, before anything is allocated proportionally to a parsed
// value.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "graph/clustering.h"
#include "graph/digraph.h"
#include "graph/ugraph.h"
#include "linalg/types.h"
#include "util/result.h"

namespace dgc {

/// \brief Hard caps enforced while scanning an input file.
///
/// The defaults only guarantee that parsed quantities fit the library's
/// Index type; they do not protect against large-but-representable inputs.
/// When reading untrusted data, set caps sized to the expected dataset so a
/// hostile file cannot make the reader allocate arbitrarily (vertex counts
/// drive CSR allocation, category ids drive ground-truth table allocation).
/// Violations surface as Status(kOutOfRange) with a file:line:column
/// diagnostic.
struct IoLimits {
  /// Max vertex count (ids must lie in [0, max_vertices)).
  int64_t max_vertices = std::numeric_limits<Index>::max();
  /// Max number of edges accepted from one file.
  int64_t max_edges = std::numeric_limits<int64_t>::max();
  /// Max bytes in a single line; longer lines are rejected without being
  /// buffered whole.
  int64_t max_line_bytes = int64_t{16} << 20;
  /// Max category count in a ground-truth file (category ids must lie in
  /// [0, max_categories)).
  int64_t max_categories = std::numeric_limits<Index>::max();
};

/// \brief Reads a directed edge list: one "src dst [weight]" triple per
/// line; '#' and '%' lines are comments. Vertex ids must be in
/// [0, num_vertices); pass num_vertices = 0 to size the graph as
/// max(id) + 1. Ids at or beyond a declared num_vertices are rejected during
/// the scan, as are negative ids, non-finite or negative weights, trailing
/// junk, and anything exceeding `limits`.
Result<Digraph> ReadEdgeList(const std::string& path, Index num_vertices = 0,
                             const IoLimits& limits = {});

/// Writes "src dst weight" lines, always with the weight, after two '#'
/// header lines.
Status WriteEdgeList(const Digraph& g, const std::string& path);

/// Writes an undirected graph as "u v weight" lines, each edge once with
/// u < v, after one '#' header line. Self-loops are not written.
Status WriteUndirectedEdgeList(const UGraph& g, const std::string& path);

/// \brief Reads an undirected graph in METIS format: header "n m [fmt]",
/// then line i lists the neighbors of vertex i (1-based), with weights when
/// fmt has the edge-weight bit (001). Vertex-weight/size fmt bits are
/// rejected as unsupported; the body must contain exactly n adjacency lines
/// totalling 2m endpoint entries or the mismatch is reported.
Result<UGraph> ReadMetisGraph(const std::string& path,
                              const IoLimits& limits = {});

/// Writes METIS format with edge weights (fmt=001). Weights are rounded to
/// positive integers as METIS requires; `weight_scale` multiplies weights
/// before rounding (use for fractional similarity matrices). A weight that
/// rounds to zero or below is an error (kInvalidArgument) naming the edge —
/// raise `weight_scale` rather than silently writing an invalid file.
Status WriteMetisGraph(const UGraph& g, const std::string& path,
                       double weight_scale = 1.0);

/// \brief Reads ground truth: each line "vertex cat1 [cat2 ...]" assigns a
/// vertex to one or more categories. Category ids are bounded by
/// `limits.max_categories` before the category table is grown.
Result<GroundTruth> ReadGroundTruth(const std::string& path,
                                    Index num_vertices,
                                    const IoLimits& limits = {});

/// Writes ground truth in the same format.
Status WriteGroundTruth(const GroundTruth& truth, const std::string& path);

/// Reads a clustering: line i holds the cluster label of vertex i (-1 for
/// unassigned).
Result<Clustering> ReadClustering(const std::string& path,
                                  const IoLimits& limits = {});

/// Writes one label per line.
Status WriteClustering(const Clustering& clustering, const std::string& path);

}  // namespace dgc
