// Symmetric Lanczos eigensolver: the largest eigenpairs of a sparse
// symmetric matrix, used by the spectral clustering baseline (BestWCut).
// Full reorthogonalization keeps it robust at the modest subspace sizes we
// need (k <= ~100).
#pragma once

#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "util/result.h"

namespace dgc {

struct LanczosOptions {
  /// Number of eigenpairs requested.
  int num_eigenpairs = 8;
  /// Krylov subspace cap; 0 picks min(n, max(4k, k + 20)).
  int max_subspace = 0;
  /// Residual tolerance ||A v - lambda v|| for convergence accounting.
  Scalar tolerance = 1e-8;
  /// RNG seed for the start vector.
  uint64_t seed = 42;
};

struct EigenResult {
  /// Converged (or best-effort) eigenvalues, largest first.
  std::vector<Scalar> eigenvalues;
  /// n x k matrix; column j is the eigenvector for eigenvalues[j].
  DenseMatrix eigenvectors;
  /// Max residual norm across returned pairs.
  Scalar max_residual = 0.0;
};

/// \brief Computes the `options.num_eigenpairs` eigenpairs of largest
/// algebraic value of the symmetric matrix `a`.
///
/// Returns InvalidArgument for non-square input and NotConverged only if the
/// Krylov space exhausted without producing the requested count at all;
/// looser residuals are reported via max_residual rather than failing, since
/// spectral clustering tolerates approximate eigenvectors.
Result<EigenResult> LanczosSymmetric(const CsrMatrix& a,
                                     const LanczosOptions& options = {});

}  // namespace dgc
