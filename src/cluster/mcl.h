// Regularized Markov clustering, R-MCL (Satuluri-Parthasarathy, KDD 2009,
// after van Dongen's MCL), the flow engine underneath MLR-MCL — the
// paper's primary stage-2 clustering algorithm [20].
//
// Flow matrices are row-stochastic here, and one iteration is
//   M := Prune(Inflate(M * M_G, r))
// on rows, where M_G is the row-stochastic graph matrix with self-loops:
// row r of M is pushed one more step through G, so new row r depends only
// on old row r. This is not the transpose of KDD 2009's column-stochastic
// M * M_G, which in row form reads M_G * M; the repository keeps the
// row-local form as a known divergence. Cluster granularity is controlled
// indirectly by the inflation parameter r — exactly the "indirect
// control" the paper notes in Section 4.2.
#pragma once

#include <cstdint>
#include <span>

#include "graph/clustering.h"
#include "graph/ugraph.h"
#include "linalg/csr_matrix.h"
#include "util/budget.h"
#include "util/result.h"

namespace dgc {

class MetricsRegistry;

struct RmclOptions {
  /// Inflation exponent r; larger r => more, smaller clusters.
  double inflation = 2.0;
  int max_iterations = 60;
  /// Flow entries below this (rows sum to 1) are dropped after inflation.
  Scalar prune_threshold = 1e-4;
  /// Hard cap on stored entries per flow row (keep-largest).
  Index max_row_nnz = 50;
  /// Self-loop weight added to each vertex before normalization, as a
  /// multiple of the vertex's mean incident edge weight.
  Scalar self_loop_scale = 1.0;
  /// Converged when the mean L1 row change falls below this. Attractor
  /// extraction is only meaningful near convergence, so keep it small.
  Scalar convergence_tol = 1e-6;
  /// Threads for the row-parallel expand/inflate/prune loop. 1 (the
  /// default) reproduces the paper's single-threaded setup; 0 uses one
  /// thread per hardware core. The flow matrix is bit-identical for every
  /// setting.
  int num_threads = 1;

  /// Optional observability sink (obs/metrics.h). When non-null RmclIterate
  /// records one span per iteration (flow nnz, expanded nnz, rows
  /// computed, convergence residual); when null — the default — no
  /// instrumentation runs at all.
  MetricsRegistry* metrics = nullptr;

  /// Optional cooperative cancellation (util/budget.h). When non-null the
  /// expand/inflate/prune loop polls the token at chunk granularity inside
  /// each iteration and at every iteration boundary; a tripped token aborts
  /// with its status (kDeadlineExceeded / kResourceExhausted). Null — the
  /// default — adds no per-chunk work. Completed runs are bit-identical
  /// with or without a token.
  CancelToken* cancel = nullptr;
};

/// Row-stochastic flow matrix M_G of g: adjacency plus scaled self-loops,
/// rows normalized. Zero-degree vertices get a pure self-loop row.
CsrMatrix BuildFlowMatrix(const UGraph& g, Scalar self_loop_scale = 1.0,
                          int num_threads = 1);

/// As above but from a raw symmetric adjacency whose diagonal may already
/// carry collapsed-edge weight (multilevel use).
CsrMatrix BuildFlowMatrixFromAdjacency(const CsrMatrix& adj,
                                       Scalar self_loop_scale = 1.0,
                                       int num_threads = 1);

/// \brief Runs up to `iterations` R-MCL iterations starting from flow `m`.
/// Returns the final flow matrix. Expansion, inflation and pruning are
/// fused row-by-row, so memory stays O(nnz(M) + n). With
/// options.num_threads != 1 the loop runs row-parallel in two passes
/// (per-worker row buffers, prefix-summed row pointers, parallel copy-out)
/// with workspaces reused across iterations; row results are
/// order-independent, so the output is bit-identical to the sequential
/// path.
///
/// A new row depends only on its old row and M_G, so each iteration groups
/// the bitwise-identical rows of M and computes one row per group; the
/// others copy it. The exception is the all-values-underflowed collapse, which
/// reads the row index: a group whose row collapses is computed row by
/// row. The output is byte-identical to computing every row, and the
/// `expanded_nnz` metric still counts every row (DESIGN.md section 13).
Result<CsrMatrix> RmclIterate(CsrMatrix m, const CsrMatrix& mg,
                              const RmclOptions& options, int iterations);

/// Interprets a converged flow matrix: each vertex joins its attractor
/// (row argmax); overlapping attractor chains merge via union-find.
Clustering FlowToClustering(const CsrMatrix& m);

/// Single-level R-MCL: BuildFlowMatrix + iterate to convergence + extract.
Result<Clustering> Rmcl(const UGraph& g, const RmclOptions& options = {});

/// \brief Single-level R-MCL warm-started from a previous converged flow.
///
/// Intended for streamed updates: after a small edge delta, the previous
/// flow matrix is still near the fixed point for most rows, so far fewer
/// iterations are needed than from scratch. The seed flow M0 keeps
/// `previous_flow`'s rows everywhere except `touched_rows` (sorted, unique,
/// in range — typically the affected-row set of the incremental
/// symmetrizer), which are re-seeded from the fresh graph matrix M_G so
/// structural changes are not anchored to stale attractors.
///
/// `previous_flow` must be n x n for the current graph (warm starts are
/// only valid while the vertex set is unchanged). Runs up to `iterations`
/// R-MCL iterations; when `final_flow` is non-null the converged flow is
/// moved into it for the next warm start. Quality matches a from-scratch
/// run near convergence, but labels are not guaranteed byte-identical —
/// see docs/DYNAMIC.md for the caveats.
Result<Clustering> RmclWarmStart(const UGraph& g,
                                 const CsrMatrix& previous_flow,
                                 std::span<const Index> touched_rows,
                                 const RmclOptions& options, int iterations,
                                 CsrMatrix* final_flow = nullptr);

}  // namespace dgc
