// A generated dataset: directed graph + optional ground truth + optional
// human-readable node names (used by the Table-5 and case-study reports).
#pragma once

#include <string>
#include <vector>

#include "graph/clustering.h"
#include "graph/digraph.h"

namespace dgc {

/// One synthetic stand-in for a paper dataset (Section 4.1).
struct Dataset {
  std::string name;
  Digraph graph;
  /// Empty categories when the dataset has no ground truth (Flickr, LJ).
  GroundTruth truth;
  /// Optional display names (empty => use vertex ids).
  std::vector<std::string> node_names;

  /// Display name of vertex v ("#v" when unnamed).
  std::string NameOf(Index v) const {
    if (static_cast<size_t>(v) < node_names.size() &&
        !node_names[static_cast<size_t>(v)].empty()) {
      return node_names[static_cast<size_t>(v)];
    }
    // Not "#" + std::to_string(v): GCC 12 raises a -Wrestrict false
    // positive on that form, which fails -Werror builds.
    std::string name("#");
    name += std::to_string(v);
    return name;
  }
};

/// Sorts and deduplicates parallel edges (keeping weight 1.0) and drops
/// self-loops; generators use it so merged duplicates never inflate weights.
void DedupEdges(std::vector<Edge>* edges);

}  // namespace dgc
