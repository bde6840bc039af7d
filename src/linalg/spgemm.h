// Sparse general matrix-matrix multiplication (SpGEMM) with optional
// on-the-fly magnitude pruning — the workhorse of the Bibliometric and
// Degree-discounted symmetrizations (Sections 3.3-3.5 of the paper).
//
// Two families:
//  * the general Gustavson kernel (SpGemm / SpGemmAAt), which computes
//    every output entry, and
//  * the symmetry-exploiting kernels (SpGemmAAtSymmetric,
//    SpGemmSymmetricSum, MirrorUpperTriangle), which compute only the upper
//    triangle of the provably symmetric similarity products and mirror it —
//    half the flops and half the intermediate memory of the general path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr_matrix.h"
#include "util/budget.h"
#include "util/result.h"

namespace dgc {

class MetricsRegistry;

/// Options controlling SpGEMM output filtering.
struct SpGemmOptions {
  /// Entries with |value| < threshold are dropped from the product as each
  /// output row is finalized (the paper's "prune threshold", Section 3.5).
  Scalar threshold = 0.0;

  /// Drop C(i, i). Symmetrized graphs feed into clustering algorithms that
  /// expect no self-loops.
  bool drop_diagonal = false;

  /// Threads for row-parallel execution. 1 (the default) reproduces the
  /// paper's single-threaded setup; 0 uses one thread per hardware core.
  /// The product is bit-identical for every setting.
  int num_threads = 1;

  /// Optional observability sink (obs/metrics.h). When non-null each kernel
  /// records a stage span (output nnz, pruned-entry counts, flops estimate);
  /// when null — the default — no instrumentation runs at all.
  MetricsRegistry* metrics = nullptr;

  /// Optional cooperative cancellation (util/budget.h). When non-null the
  /// row loops poll the token at chunk granularity and the kernel charges
  /// its dominant working sets against the token's memory ledger; a tripped
  /// token aborts the product with the token's status (kDeadlineExceeded /
  /// kResourceExhausted). Null — the default — adds no per-chunk work.
  /// Cancellation is all-or-nothing: a completed product is bit-identical
  /// whether or not a token was attached.
  CancelToken* cancel = nullptr;
};

/// \brief C = A * B using Gustavson's algorithm with a dense accumulator.
///
/// Per output row: scatter contributions into a cols(B)-sized accumulator
/// (held at zero between rows), filter the touched columns by `options` in
/// first-touch order, then sort only the survivors. Complexity
/// O(sum_i sum_{k in row i of A} nnz(B_k)) — the paper's O(sum d_i^2) bound
/// for similarity products. Two-pass row-parallel execution: rows are
/// computed into per-worker buffers (dynamic chunking over the persistent
/// pool), row pointers prefix-summed, then rows copied to their final
/// offsets in parallel.
Result<CsrMatrix> SpGemm(const CsrMatrix& a, const CsrMatrix& b,
                         const SpGemmOptions& options = {});

/// \brief C = A * Aᵀ (bibliographic-coupling pattern, Kessler 1963).
/// Materializes Aᵀ once, then calls SpGemm.
Result<CsrMatrix> SpGemmAAt(const CsrMatrix& a,
                            const SpGemmOptions& options = {});

/// As above with a precomputed transpose (`a_transpose` must equal
/// a.Transpose()); callers that already hold Aᵀ avoid re-materializing it.
Result<CsrMatrix> SpGemmAAt(const CsrMatrix& a, const CsrMatrix& a_transpose,
                            const SpGemmOptions& options = {});

/// \brief Upper triangle of the scaled symmetric product
/// U = D_r A D_c² Aᵀ D_r, i.e. U(i,j) = Σ_k m(i,k)·m(j,k) for j ≥ i with
///
///     m(i,k) = (a(i,k) * row_scale[i]) * col_scale[k]
///
/// evaluated on the fly against the *original* CSR — no scaled copy of A is
/// materialized. An empty span skips that scaling entirely (factor 1). The
/// per-term multiplication order above is exactly the order produced by
/// ScaleRows-then-ScaleCols on a copy, so the result is bit-identical to
/// SpGemmAAt on the scaled copy, row by row, at any thread count.
///
/// The product is symmetric by construction, so only entries with j ≥ i are
/// computed and stored (roughly half the flops and memory of SpGemmAAt);
/// `options.threshold` / `options.drop_diagonal` apply to the emitted
/// triangle. Use MirrorUpperTriangle for the full matrix, or
/// SpGemmSymmetricSum to combine two triangles.
///
/// `a_transpose` is the inverted index used for candidate generation; pass
/// the precomputed Aᵀ to share it across products (nullptr = build
/// internally). For the AtA pattern (C = D_r Aᵀ D_c² A D_r), call with the
/// roles swapped: SpGemmAAtSymmetric(at, ..., &a).
Result<CsrMatrix> SpGemmAAtSymmetric(const CsrMatrix& a,
                                     std::span<const Scalar> row_scale,
                                     std::span<const Scalar> col_scale,
                                     const SpGemmOptions& options = {},
                                     const CsrMatrix* a_transpose = nullptr);

/// \brief Incremental row refresh of an SpGemmAAtSymmetric upper triangle:
/// recomputes only the rows listed in `rows` against the UPDATED inputs
/// (a / a_transpose / scales) and splices them into `cached_upper`, the
/// triangle computed for the previous inputs.
///
/// `rows` must be sorted, unique, and within [0, a.rows()). Correctness
/// contract (the basis of the dynamic-graph path, docs/DYNAMIC.md): if
/// every row of the product whose entries differ between the old and new
/// inputs is listed in `rows`, the result is byte-identical to running
/// SpGemmAAtSymmetric from scratch on the new inputs — each row kernel is a
/// pure function of (inputs, row, options), so unlisted rows keep their
/// cached bytes and listed rows are recomputed by the exact same kernel.
/// Unlike SpGemmAAtSymmetric, `a_transpose` is required here: the caller
/// maintains both orientations incrementally anyway, and rebuilding it for
/// a handful of rows would defeat the point. The recomputed rows go in
/// through CsrMatrix::SpliceRows; when `rows` lists every row no cached
/// row is kept, so an n x n CsrMatrix::Zero fills a triangle from empty.
Result<CsrMatrix> SpGemmAAtSymmetricUpdateRows(
    const CsrMatrix& a, std::span<const Scalar> row_scale,
    std::span<const Scalar> col_scale, const SpGemmOptions& options,
    const CsrMatrix& a_transpose, std::span<const Index> rows,
    const CsrMatrix& cached_upper);

/// \brief Fused U = mirror(prune(B + C)) for two upper-triangle matrices:
/// merges the triangles entrywise, applies `options.threshold` (entries with
/// |value| < threshold dropped; threshold <= 0 keeps everything) and
/// `options.drop_diagonal` in the same pass, then mirrors the surviving
/// triangle into a full symmetric CSR — one pass instead of separate
/// CsrMatrix::Add and CsrMatrix::Pruned materializations.
Result<CsrMatrix> SpGemmSymmetricSum(const CsrMatrix& upper_b,
                                     const CsrMatrix& upper_c,
                                     const SpGemmOptions& options = {});

/// \brief Appends row `row` of prune(B + C) to cols / vals: the two-pointer
/// merge of b.row(local) and c.row(local) in ascending column order, B's
/// operand first — the order CsrMatrix::Add visits, so shared entries sum
/// with identical rounding — dropping |v| < options.threshold (when > 0)
/// and, with options.drop_diagonal, column `row`. Returns the threshold
/// drops. The one row merge behind SpGemmSymmetricSum, the tiled driver
/// (`local` is the row within the tile) and the incremental A + Aᵀ rows
/// (b = A, c = Aᵀ, threshold 0: row r of drop_diag(A + Aᵀ)).
int64_t MergeRowSum(const CsrMatrix& b, const CsrMatrix& c, Index local,
                    Index row, const SpGemmOptions& options,
                    std::vector<Index>& cols, std::vector<Scalar>& vals);

/// The Section 3.5 prune split of a similarity product-sum with threshold
/// t: each product (B, C) drops entries below t / 2, their sum drops
/// entries below t, and both drop the diagonal (similarity graphs carry no
/// self-loops).
struct ProductSumOptions {
  SpGemmOptions product;
  SpGemmOptions sum;
};
ProductSumOptions SplitProductSumThreshold(Scalar threshold, int num_threads,
                                           CancelToken* cancel = nullptr);

/// \brief Expands an upper-triangle matrix (entries with col ≥ row only)
/// into the full symmetric CSR in a parallel two-pass assembly: per-row
/// counts of the mirrored strict-lower part are computed over static row
/// blocks with exact per-block placement (the CsrMatrix::Transpose scheme),
/// so the result is bit-identical for every thread count. InvalidArgument if
/// `upper` is not square or has an entry below the diagonal.
Result<CsrMatrix> MirrorUpperTriangle(const CsrMatrix& upper,
                                      int num_threads = 1);

/// \brief Number of multiply-adds SpGemm(a, b) would perform (the FLOP
/// count); useful for picking thresholds and for complexity experiments.
Offset SpGemmFlops(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace dgc
