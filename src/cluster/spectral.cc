#include "cluster/spectral.h"

#include <cmath>

#include "cluster/kmeans.h"
#include "linalg/lanczos.h"
#include "linalg/vector_ops.h"

namespace dgc {

Result<DenseMatrix> NormalizedSpectralEmbedding(
    const CsrMatrix& w, const SpectralOptions& options) {
  if (w.rows() != w.cols()) {
    return Status::InvalidArgument("spectral embedding needs a square matrix");
  }
  if (options.k < 1 || options.k > w.rows()) {
    return Status::InvalidArgument("k out of range");
  }
  // S = D^{-1/2} W D^{-1/2}; its top eigenvectors are the bottom of the
  // normalized Laplacian I - S.
  CsrMatrix s = w;
  std::vector<Scalar> degree = w.RowSums();
  std::vector<Scalar> inv_sqrt = InversePower(degree, 0.5);
  s.ScaleRows(inv_sqrt);
  s.ScaleCols(inv_sqrt);

  LanczosOptions lanczos;
  lanczos.num_eigenpairs = options.k;
  lanczos.max_subspace = options.max_subspace;
  lanczos.seed = options.seed;
  DGC_ASSIGN_OR_RETURN(EigenResult eigen, LanczosSymmetric(s, lanczos));

  const Index found = eigen.eigenvectors.cols();
  DenseMatrix embedding(w.rows(), found);
  for (Index i = 0; i < w.rows(); ++i) {
    Scalar norm = 0.0;
    for (Index j = 0; j < found; ++j) {
      const Scalar v = eigen.eigenvectors(i, j);
      embedding(i, j) = v;
      norm += v * v;
    }
    // Row-normalize (Ng-Jordan-Weiss); zero rows (isolated vertices) stay 0.
    if (norm > 0.0) {
      const Scalar inv = 1.0 / std::sqrt(norm);
      for (Index j = 0; j < found; ++j) embedding(i, j) *= inv;
    }
  }
  return embedding;
}

Result<Clustering> SpectralClusterSymmetric(const CsrMatrix& w,
                                            const SpectralOptions& options) {
  DGC_ASSIGN_OR_RETURN(DenseMatrix embedding,
                       NormalizedSpectralEmbedding(w, options));
  KMeansOptions kmeans;
  kmeans.k = options.k;
  kmeans.restarts = options.kmeans_restarts;
  kmeans.seed = options.seed;
  DGC_ASSIGN_OR_RETURN(KMeansResult result, KMeans(embedding, kmeans));
  return result.clustering;
}

}  // namespace dgc
