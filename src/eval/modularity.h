// Newman's modularity for clusterings of symmetrized graphs — a
// complementary quality measure to normalized cut for judging the
// clusterings produced by the framework.
#pragma once

#include "graph/clustering.h"
#include "graph/ugraph.h"

namespace dgc {

/// \brief Newman modularity of a clustering on an undirected weighted
/// graph: Q = sum_c [ w_cc / W - (vol_c / 2W)^2 ], where W is the total
/// edge weight. Unassigned vertices contribute nothing. Q in [-1/2, 1].
Scalar Modularity(const UGraph& g, const Clustering& clustering);

}  // namespace dgc
