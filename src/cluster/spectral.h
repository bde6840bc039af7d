// Shared spectral-clustering machinery: normalized-adjacency embeddings of
// symmetric similarity matrices (Shi-Malik / Ng-Jordan-Weiss style),
// consumed by the BestWCut baseline.
#pragma once

#include <cstdint>

#include "graph/clustering.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "util/result.h"

namespace dgc {

struct SpectralOptions {
  Index k = 8;
  /// Eigen-solver subspace cap (0 = auto).
  int max_subspace = 0;
  /// k-means restarts on the embedding.
  int kmeans_restarts = 3;
  uint64_t seed = 31;
};

/// \brief Embeds vertices with the top-k eigenvectors of
/// D^{-1/2} W D^{-1/2} (equivalently the bottom of the normalized
/// Laplacian), row-normalizes, and returns the n x k embedding.
Result<DenseMatrix> NormalizedSpectralEmbedding(const CsrMatrix& w,
                                                const SpectralOptions& options);

/// Embedding + k-means: classic normalized spectral clustering of a
/// symmetric non-negative matrix.
Result<Clustering> SpectralClusterSymmetric(const CsrMatrix& w,
                                            const SpectralOptions& options);

}  // namespace dgc
