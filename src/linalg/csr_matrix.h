// Compressed Sparse Row matrix: the core data structure of the library.
// Directed graphs are CSR adjacency matrices; symmetrizations are CSR->CSR
// transforms (see src/core).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/types.h"
#include "util/result.h"
#include "util/status.h"

namespace dgc {

/// \brief An immutable-shape sparse matrix in CSR layout.
///
/// Invariants (checked by Validate()):
///  - row_ptr has rows()+1 entries, non-decreasing, row_ptr[0] == 0,
///    row_ptr[rows()] == nnz().
///  - column indices within each row are strictly increasing (sorted, no
///    duplicates) and in [0, cols()).
///
/// Values may be mutated in place (e.g. by scaling); structure may not.
class CsrMatrix {
 public:
  /// An empty 0x0 matrix.
  CsrMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  /// Takes ownership of pre-built CSR arrays. Returns InvalidArgument if the
  /// CSR invariants do not hold.
  static Result<CsrMatrix> FromParts(Index rows, Index cols,
                                     std::vector<Offset> row_ptr,
                                     std::vector<Index> col_idx,
                                     std::vector<Scalar> values);

  /// As FromParts but skips Validate(). For kernels that construct rows
  /// correct-by-construction (sorted, deduplicated, in range) in a hot loop
  /// where the O(nnz) serial validation pass would dominate; everyone else
  /// should use FromParts.
  static CsrMatrix FromPartsUnchecked(Index rows, Index cols,
                                      std::vector<Offset> row_ptr,
                                      std::vector<Index> col_idx,
                                      std::vector<Scalar> values);

  /// Builds from unsorted triplets; duplicate (row, col) entries are summed
  /// in input order. Entries whose summed value is exactly 0 are kept
  /// (callers that want to drop them should Prune with an epsilon).
  /// O(nnz + rows) when each row's triplets come in column order; a row
  /// that does not is stable-sorted on its own.
  static Result<CsrMatrix> FromTriplets(Index rows, Index cols,
                                        std::vector<Triplet> triplets);

  /// n x n identity.
  static CsrMatrix Identity(Index n);

  /// Matrix with no nonzeros.
  static CsrMatrix Zero(Index rows, Index cols);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Offset nnz() const { return row_ptr_.back(); }

  std::span<const Offset> row_ptr() const { return row_ptr_; }
  std::span<const Index> col_idx() const { return col_idx_; }
  std::span<const Scalar> values() const { return values_; }
  std::span<Scalar> mutable_values() { return values_; }

  /// Nonzeros of row i as parallel (col, value) spans.
  std::span<const Index> RowCols(Index i) const {
    return std::span<const Index>(col_idx_.data() + row_ptr_[i],
                                  static_cast<size_t>(RowNnz(i)));
  }
  std::span<const Scalar> RowValues(Index i) const {
    return std::span<const Scalar>(values_.data() + row_ptr_[i],
                                   static_cast<size_t>(RowNnz(i)));
  }
  Offset RowNnz(Index i) const { return row_ptr_[i + 1] - row_ptr_[i]; }

  /// Value at (i, j), 0 if not stored. O(log RowNnz(i)).
  Scalar At(Index i, Index j) const;

  /// Checks all CSR invariants; OK on success.
  Status Validate() const;

  /// Debug-build structural check for kernel boundaries: when
  /// DGC_ENABLE_DCHECKS is on, fatals with `context` in the message if
  /// Validate() fails; otherwise compiles to (almost) nothing. Every
  /// FromPartsUnchecked call site must be paired with one of these on the
  /// constructed matrix (enforced by tools/lint/dgc_lint.py, rule
  /// unchecked-needs-validate).
  void ValidateStructure(const char* context) const;

  /// Aᵀ as a new matrix (counting sort; O(nnz + rows + cols)). With more
  /// than one thread (0 = one per hardware core) the counting and scatter
  /// passes run over static row blocks with exact per-block placement, so
  /// the result is bit-identical for every thread count.
  CsrMatrix Transpose(int num_threads = 1) const;

  /// Per-row sum of values (out-weight of each vertex for adjacency input).
  std::vector<Scalar> RowSums() const;
  /// Per-column sum of values.
  std::vector<Scalar> ColSums() const;
  /// Number of stored entries per row (out-degree).
  std::vector<Offset> RowCounts() const;
  /// Number of stored entries per column (in-degree).
  std::vector<Offset> ColCounts() const;

  /// In-place row scaling: values in row i multiplied by scale[i].
  void ScaleRows(std::span<const Scalar> scale);
  /// In-place column scaling: values in column j multiplied by scale[j].
  void ScaleCols(std::span<const Scalar> scale);

  /// Returns a copy with entries whose |value| < threshold removed.
  /// Diagonal entries are dropped too if drop_diagonal.
  CsrMatrix Pruned(Scalar threshold, bool drop_diagonal = false) const;

  /// \brief A copy of this matrix whose rows `rows` are taken from
  /// `source` instead: row r of the result is source.row(r) when r is
  /// listed, this->row(r) otherwise. `rows` must be sorted, unique and in
  /// range, and `source` must have this matrix's shape (its unlisted rows
  /// are never read, so they may be empty). One serial O(rows + nnz) copy
  /// pass; the splice behind every "recompute some rows, keep the rest"
  /// update (SpGemmAAtSymmetricUpdateRows, the incremental A + Aᵀ rows,
  /// the RmclWarmStart seed).
  CsrMatrix SpliceRows(std::span<const Index> rows,
                       const CsrMatrix& source) const;

  /// Returns A + I (square matrices only). Existing diagonal entries get +1.
  Result<CsrMatrix> PlusIdentity() const;

  /// Elementwise A + B (same shape).
  static Result<CsrMatrix> Add(const CsrMatrix& a, const CsrMatrix& b);

  /// y = A x (sizes must match).
  void Multiply(std::span<const Scalar> x, std::span<Scalar> y) const;
  /// y = Aᵀ x without forming the transpose.
  void MultiplyTranspose(std::span<const Scalar> x,
                         std::span<Scalar> y) const;

  /// True if the matrix equals its transpose up to `tol`.
  bool IsSymmetric(Scalar tol = 1e-12) const;

  /// Dense row-major copy (tests/small matrices only).
  std::vector<Scalar> ToDense() const;

  /// Human-readable summary, e.g. "CsrMatrix 100x100, nnz=512".
  std::string DebugString() const;

  bool operator==(const CsrMatrix& other) const = default;

 private:
  CsrMatrix(Index rows, Index cols, std::vector<Offset> row_ptr,
            std::vector<Index> col_idx, std::vector<Scalar> values)
      : rows_(rows),
        cols_(cols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        values_(std::move(values)) {}

  Index rows_;
  Index cols_;
  std::vector<Offset> row_ptr_;
  std::vector<Index> col_idx_;
  std::vector<Scalar> values_;
};

}  // namespace dgc
