// All-pairs similarity search with threshold-based candidate pruning, after
// Bayardo, Ma & Srikant (WWW 2007) — the optimization the paper's
// complexity analysis (Section 3.6) points to for "curtailing similarity
// computations that will provably lead to similarities lower than the prune
// threshold".
//
// Computes exactly the same matrix as SpGemmAAt(M) thresholded at t, but
// skips work using two classic bounds:
//   * size/maxweight bound: a row whose total outgoing mass times the
//     global column maximum cannot reach t is never expanded;
//   * per-candidate upper bound: accumulation for a candidate pair stops
//     contributing once the remaining possible mass cannot lift it to t.
// On graphs with steep weight skew this prunes most candidate pairs; the
// experiment registry's ablation_allpairs (bench/experiments.cc) times it
// against the thresholded SpGEMM.
#pragma once

#include "linalg/csr_matrix.h"
#include "util/result.h"

namespace dgc {

class MetricsRegistry;

struct AllPairsOptions {
  /// Similarity threshold t > 0; pairs strictly below t are dropped.
  Scalar threshold = 0.1;
  /// Drop the diagonal (self-similarity), as the symmetrizations do.
  bool drop_diagonal = true;
  /// Row-parallelism (the library-wide convention: 1 = the paper's serial
  /// setup, 0 = one thread per hardware core). Output rows and the reported
  /// AllPairsStats are bit-identical for every setting: rows are
  /// independent, and the stats are sums of per-row integer counts.
  int num_threads = 1;

  /// Optional observability sink (obs/metrics.h). When non-null the search
  /// records a span carrying the AllPairsStats counters; when null — the
  /// default — no instrumentation runs at all.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Computes the thresholded self-similarity S = M Mᵀ (entries >= t
/// only) by candidate generation over an inverted index of M's columns,
/// with Bayardo-style upper-bound pruning.
///
/// Requires non-negative values (similarity semantics); returns
/// InvalidArgument otherwise or when threshold <= 0.
Result<CsrMatrix> AllPairsSimilarity(const CsrMatrix& m,
                                     const AllPairsOptions& options = {});

/// Statistics from the last candidate-pruning run (for the ablation bench).
struct AllPairsStats {
  int64_t candidate_pairs = 0;  ///< pairs whose accumulator was touched
  int64_t output_pairs = 0;     ///< pairs that met the threshold
  int64_t skipped_rows = 0;     ///< rows pruned by the row-level bound
};

/// As above, also reporting work statistics.
Result<CsrMatrix> AllPairsSimilarity(const CsrMatrix& m,
                                     const AllPairsOptions& options,
                                     AllPairsStats* stats);

}  // namespace dgc
