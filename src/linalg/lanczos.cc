#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dgc {

namespace {

/// One Lanczos sweep on `a`, deflated against `locked` vectors: the Krylov
/// space is built orthogonal to every locked eigenvector, so repeated
/// sweeps with fresh random starts can resolve degenerate eigenspaces that
/// a single start vector cannot (each Krylov space contains exactly one
/// direction per eigenvalue).
struct SweepResult {
  std::vector<Scalar> ritz_values;
  std::vector<std::vector<Scalar>> ritz_vectors;
  std::vector<Scalar> residuals;
};

SweepResult LanczosSweep(const CsrMatrix& a,
                         const std::vector<std::vector<Scalar>>& locked,
                         int steps, Rng& rng) {
  const Index n = a.rows();
  const size_t un = static_cast<size_t>(n);
  std::vector<std::vector<Scalar>> basis;
  std::vector<Scalar> alpha, beta;

  auto deflate = [&](std::vector<Scalar>& w) {
    for (const auto& u : locked) {
      const Scalar c = Dot(w, u);
      if (c != 0.0) Axpy(-c, u, w);
    }
    for (const auto& u : basis) {
      const Scalar c = Dot(w, u);
      if (c != 0.0) Axpy(-c, u, w);
    }
  };

  std::vector<Scalar> v(un);
  for (Scalar& x : v) x = rng.UniformDouble() - 0.5;
  deflate(v);
  if (NormalizeL2(v) < 1e-12) return {};

  std::vector<Scalar> w(un);
  for (int j = 0; j < steps; ++j) {
    basis.push_back(v);
    a.Multiply(v, w);
    const Scalar aj = Dot(w, v);
    alpha.push_back(aj);
    Axpy(-aj, v, w);
    if (j > 0) Axpy(-beta.back(), basis[static_cast<size_t>(j) - 1], w);
    deflate(w);  // full reorthogonalization + deflation
    const Scalar bj = Norm2(w);
    if (bj < 1e-12 || j == steps - 1) break;
    beta.push_back(bj);
    for (size_t i = 0; i < un; ++i) v[i] = w[i] / bj;
  }

  const int m = static_cast<int>(alpha.size());
  SweepResult result;
  if (m == 0) return result;
  DenseMatrix t(m, m, 0.0);
  for (int i = 0; i < m; ++i) {
    t(i, i) = alpha[static_cast<size_t>(i)];
    if (i + 1 < m) {
      t(i, i + 1) = beta[static_cast<size_t>(i)];
      t(i + 1, i) = beta[static_cast<size_t>(i)];
    }
  }
  std::vector<Scalar> evals;
  DenseMatrix evecs;
  JacobiEigenSymmetric(t, &evals, &evecs);  // descending

  result.ritz_values = std::move(evals);
  result.ritz_vectors.resize(static_cast<size_t>(m));
  result.residuals.resize(static_cast<size_t>(m));
  std::vector<Scalar> resid(un);
  for (int j = 0; j < m; ++j) {
    std::vector<Scalar> x(un, 0.0);
    for (int s = 0; s < m; ++s) {
      Axpy(evecs(s, j), basis[static_cast<size_t>(s)], x);
    }
    NormalizeL2(x);
    a.Multiply(x, resid);
    Axpy(-result.ritz_values[static_cast<size_t>(j)], x, resid);
    result.residuals[static_cast<size_t>(j)] = Norm2(resid);
    result.ritz_vectors[static_cast<size_t>(j)] = std::move(x);
  }
  return result;
}

}  // namespace

Result<EigenResult> LanczosSymmetric(const CsrMatrix& a,
                                     const LanczosOptions& options) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Lanczos requires a square matrix, got " +
                                   a.DebugString());
  }
  const Index n = a.rows();
  if (n == 0) {
    return Status::InvalidArgument("Lanczos on an empty matrix");
  }
  const int k = std::min<int>(options.num_eigenpairs, n);
  if (k <= 0) {
    return Status::InvalidArgument("num_eigenpairs must be positive");
  }
  // Closely spaced extremal eigenvalues (e.g. path graphs) need a generous
  // subspace; spectra with a gap converge long before the cap.
  int steps = options.max_subspace > 0 ? options.max_subspace
                                       : std::max(5 * k, 100);
  steps = std::min<int>(steps, n);

  Rng rng(options.seed);
  std::vector<std::vector<Scalar>> locked_vectors;
  std::vector<Scalar> locked_values;
  std::vector<Scalar> locked_residuals;

  // Deflated restarts: each sweep contributes its converged extremal Ritz
  // pairs; degenerate eigenspaces surface across sweeps.
  const int kMaxSweeps = 6;
  // Looser acceptance for later sweeps so we always return k pairs.
  for (int sweep = 0; sweep < kMaxSweeps &&
                      static_cast<int>(locked_vectors.size()) < k;
       ++sweep) {
    const int remaining = k - static_cast<int>(locked_vectors.size());
    SweepResult result = LanczosSweep(a, locked_vectors, steps, rng);
    const int m = static_cast<int>(result.ritz_values.size());
    if (m == 0) break;
    const bool last_chance = sweep == kMaxSweeps - 1;
    const Scalar accept = last_chance ? 1e30 : 1e-6;
    int taken = 0;
    // Ritz values come largest first.
    for (int idx = 0; idx < m; ++idx) {
      if (taken >= remaining) break;
      if (result.residuals[static_cast<size_t>(idx)] > accept) continue;
      locked_values.push_back(result.ritz_values[static_cast<size_t>(idx)]);
      locked_residuals.push_back(
          result.residuals[static_cast<size_t>(idx)]);
      locked_vectors.push_back(
          std::move(result.ritz_vectors[static_cast<size_t>(idx)]));
      ++taken;
    }
    if (taken == 0 && !last_chance) {
      // Nothing converged this sweep; widen the subspace and retry.
      steps = std::min<Index>(n, steps * 2);
    }
  }
  if (locked_vectors.empty()) {
    return Status::NotConverged("Lanczos produced no eigenpairs");
  }

  // Verification rounds: a single Krylov space holds one direction per
  // distinct eigenvalue, so a degenerate partner of a locked eigenvalue may
  // have been skipped in favor of a genuinely smaller one. Sweep against
  // the locked set and swap in any strictly better eigenpair that surfaces.
  auto better = [](Scalar candidate, Scalar incumbent) {
    return candidate > incumbent + 1e-10;
  };
  for (int round = 0; round < 5; ++round) {
    SweepResult result = LanczosSweep(a, locked_vectors, steps, rng);
    const int m = static_cast<int>(result.ritz_values.size());
    if (m == 0) break;
    int candidate = -1;
    for (int i = 0; i < m; ++i) {
      if (result.residuals[static_cast<size_t>(i)] < 1e-6) {
        candidate = i;
        break;
      }
    }
    if (candidate < 0) break;
    int worst = 0;
    for (int i = 1; i < static_cast<int>(locked_values.size()); ++i) {
      if (better(locked_values[static_cast<size_t>(worst)],
                 locked_values[static_cast<size_t>(i)])) {
        worst = i;
      }
    }
    if (!better(result.ritz_values[static_cast<size_t>(candidate)],
                locked_values[static_cast<size_t>(worst)])) {
      break;  // locked set is the true extremal set
    }
    locked_values[static_cast<size_t>(worst)] =
        result.ritz_values[static_cast<size_t>(candidate)];
    locked_residuals[static_cast<size_t>(worst)] =
        result.residuals[static_cast<size_t>(candidate)];
    locked_vectors[static_cast<size_t>(worst)] =
        std::move(result.ritz_vectors[static_cast<size_t>(candidate)]);
  }

  // Sort the locked set by eigenvalue, largest first.
  const int found = static_cast<int>(locked_vectors.size());
  std::vector<int> order(static_cast<size_t>(found));
  for (int i = 0; i < found; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    return locked_values[static_cast<size_t>(x)] >
           locked_values[static_cast<size_t>(y)];
  });

  EigenResult eigen;
  eigen.eigenvalues.resize(static_cast<size_t>(found));
  eigen.eigenvectors = DenseMatrix(n, found);
  for (int out = 0; out < found; ++out) {
    const int src = order[static_cast<size_t>(out)];
    eigen.eigenvalues[static_cast<size_t>(out)] =
        locked_values[static_cast<size_t>(src)];
    eigen.max_residual = std::max(
        eigen.max_residual, locked_residuals[static_cast<size_t>(src)]);
    for (Index i = 0; i < n; ++i) {
      eigen.eigenvectors(i, out) =
          locked_vectors[static_cast<size_t>(src)][static_cast<size_t>(i)];
    }
  }
  return eigen;
}

}  // namespace dgc
