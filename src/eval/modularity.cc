#include "eval/modularity.h"

#include <vector>

#include "util/logging.h"

namespace dgc {

Scalar Modularity(const UGraph& g, const Clustering& clustering) {
  DGC_CHECK_EQ(clustering.NumVertices(), g.NumVertices());
  Clustering compact = clustering;
  const Index k = compact.Compact();
  if (k == 0) return 0.0;
  const Scalar total = g.Volume();  // = 2W for undirected graphs
  if (total <= 0.0) return 0.0;
  std::vector<Scalar> intra(static_cast<size_t>(k), 0.0);
  std::vector<Scalar> volume(static_cast<size_t>(k), 0.0);
  const CsrMatrix& adj = g.adjacency();
  for (Index u = 0; u < g.NumVertices(); ++u) {
    const Index cu = compact.LabelOf(u);
    if (cu == Clustering::kUnassigned) continue;
    auto cols = adj.RowCols(u);
    auto vals = adj.RowValues(u);
    for (size_t i = 0; i < cols.size(); ++i) {
      volume[static_cast<size_t>(cu)] += vals[i];
      if (compact.LabelOf(cols[i]) == cu) {
        intra[static_cast<size_t>(cu)] += vals[i];
      }
    }
  }
  Scalar q = 0.0;
  for (Index c = 0; c < k; ++c) {
    const Scalar e = intra[static_cast<size_t>(c)] / total;
    const Scalar a = volume[static_cast<size_t>(c)] / total;
    q += e - a * a;
  }
  return q;
}

}  // namespace dgc
