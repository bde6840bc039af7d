#include "linalg/csr_matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace dgc {

Result<CsrMatrix> CsrMatrix::FromParts(Index rows, Index cols,
                                       std::vector<Offset> row_ptr,
                                       std::vector<Index> col_idx,
                                       std::vector<Scalar> values) {
  CsrMatrix m(rows, cols, std::move(row_ptr), std::move(col_idx),
              std::move(values));
  DGC_RETURN_IF_ERROR(m.Validate());
  return m;
}

CsrMatrix CsrMatrix::FromPartsUnchecked(Index rows, Index cols,
                                        std::vector<Offset> row_ptr,
                                        std::vector<Index> col_idx,
                                        std::vector<Scalar> values) {
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

void CsrMatrix::ValidateStructure(const char* context) const {
#if DGC_DCHECKS_ENABLED
  const Status status = Validate();
  DGC_CHECK(status.ok()) << context << ": structurally invalid matrix ("
                         << DebugString() << "): " << status;
#else
  (void)context;
#endif
}

Result<CsrMatrix> CsrMatrix::FromTriplets(Index rows, Index cols,
                                          std::vector<Triplet> triplets) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative matrix dimensions");
  }
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      return Status::OutOfRange("triplet (" + std::to_string(t.row) + "," +
                                std::to_string(t.col) +
                                ") outside matrix of shape " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols));
    }
  }
  // Row histogram, then a stable scatter: row_ptr[r] first holds row r's
  // next free slot and ends at its end, which is row r + 1's start. Each
  // row keeps its triplets in input order.
  std::vector<Offset> row_ptr(static_cast<size_t>(rows) + 1, 0);
  for (const Triplet& t : triplets) ++row_ptr[static_cast<size_t>(t.row) + 1];
  for (Index r = 0; r < rows; ++r) {
    row_ptr[static_cast<size_t>(r) + 1] += row_ptr[static_cast<size_t>(r)];
  }
  std::vector<Index> col_idx(triplets.size());
  std::vector<Scalar> values(triplets.size());
  for (const Triplet& t : triplets) {
    const size_t at =
        static_cast<size_t>(row_ptr[static_cast<size_t>(t.row)]++);
    col_idx[at] = t.col;
    values[at] = t.value;
  }
  std::vector<Triplet>().swap(triplets);
  for (Index r = rows; r > 0; --r) {
    row_ptr[static_cast<size_t>(r)] = row_ptr[static_cast<size_t>(r) - 1];
  }
  row_ptr[0] = 0;

  // Per row: a stable sort if the row is out of column order (row-ordered
  // input skips it), then duplicates summed left to right while the row is
  // compacted in place. Duplicates thus add in input order, so the result
  // is a function of the triplet sequence alone.
  std::vector<std::pair<Index, Scalar>> row;
  size_t out = 0;
  size_t lo = 0;
  for (Index r = 0; r < rows; ++r) {
    const size_t hi = static_cast<size_t>(row_ptr[static_cast<size_t>(r) + 1]);
    if (!std::is_sorted(col_idx.begin() + static_cast<ptrdiff_t>(lo),
                        col_idx.begin() + static_cast<ptrdiff_t>(hi))) {
      row.clear();
      for (size_t i = lo; i < hi; ++i) row.emplace_back(col_idx[i], values[i]);
      std::stable_sort(row.begin(), row.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
      for (size_t i = lo; i < hi; ++i) {
        col_idx[i] = row[i - lo].first;
        values[i] = row[i - lo].second;
      }
    }
    const size_t row_start = out;
    for (size_t i = lo; i < hi; ++i) {
      if (out > row_start && col_idx[out - 1] == col_idx[i]) {
        values[out - 1] += values[i];
      } else {
        col_idx[out] = col_idx[i];
        values[out] = values[i];
        ++out;
      }
    }
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(out);
    lo = hi;
  }
  if (out < col_idx.size()) {
    col_idx.resize(out);
    values.resize(out);
    col_idx.shrink_to_fit();
    values.shrink_to_fit();
  }
  CsrMatrix m = FromPartsUnchecked(rows, cols, std::move(row_ptr),
                                   std::move(col_idx), std::move(values));
  m.ValidateStructure("CsrMatrix::FromTriplets");
  return m;
}

CsrMatrix CsrMatrix::Identity(Index n) {
  std::vector<Offset> row_ptr(static_cast<size_t>(n) + 1);
  std::vector<Index> col_idx(static_cast<size_t>(n));
  std::vector<Scalar> values(static_cast<size_t>(n), 1.0);
  for (Index i = 0; i <= n; ++i) row_ptr[static_cast<size_t>(i)] = i;
  for (Index i = 0; i < n; ++i) col_idx[static_cast<size_t>(i)] = i;
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix CsrMatrix::Zero(Index rows, Index cols) {
  return CsrMatrix(rows, cols,
                   std::vector<Offset>(static_cast<size_t>(rows) + 1, 0), {},
                   {});
}

Scalar CsrMatrix::At(Index i, Index j) const {
  DGC_CHECK(i >= 0 && i < rows_);
  DGC_CHECK(j >= 0 && j < cols_);
  auto cols = RowCols(i);
  auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it == cols.end() || *it != j) return 0.0;
  return values_[static_cast<size_t>(row_ptr_[i] + (it - cols.begin()))];
}

Status CsrMatrix::Validate() const {
  if (rows_ < 0 || cols_ < 0) {
    return Status::InvalidArgument("negative dimensions");
  }
  if (row_ptr_.size() != static_cast<size_t>(rows_) + 1) {
    return Status::InvalidArgument("row_ptr size != rows+1");
  }
  if (row_ptr_.front() != 0) {
    return Status::InvalidArgument("row_ptr[0] != 0");
  }
  if (row_ptr_.back() != static_cast<Offset>(col_idx_.size()) ||
      col_idx_.size() != values_.size()) {
    return Status::InvalidArgument("array sizes inconsistent with row_ptr");
  }
  // Row pointers must be vetted in full before they are used to index
  // col_idx_ below: with a corrupt interior pointer the column loop itself
  // would read out of bounds. Monotonicity plus the front()/back() checks
  // above imply every pointer is within [0, nnz].
  for (Index r = 0; r < rows_; ++r) {
    if (row_ptr_[static_cast<size_t>(r) + 1] <
        row_ptr_[static_cast<size_t>(r)]) {
      return Status::InvalidArgument("row_ptr not non-decreasing at row " +
                                     std::to_string(r));
    }
  }
  for (Index r = 0; r < rows_; ++r) {
    Index prev = -1;
    for (Offset p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      Index c = col_idx_[static_cast<size_t>(p)];
      if (c < 0 || c >= cols_) {
        return Status::OutOfRange("column index " + std::to_string(c) +
                                  " out of range in row " + std::to_string(r));
      }
      if (c <= prev) {
        return Status::InvalidArgument(
            "columns not strictly increasing in row " + std::to_string(r));
      }
      prev = c;
    }
  }
  return Status::OK();
}

CsrMatrix CsrMatrix::Transpose(int num_threads) const {
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(num_threads), std::max<Index>(rows_, 1)));
  std::vector<Offset> t_row_ptr(static_cast<size_t>(cols_) + 1, 0);
  std::vector<Index> t_col_idx(col_idx_.size());
  std::vector<Scalar> t_values(values_.size());
  // Counting sort over static row blocks (one block per thread). Each entry
  // (r, c) lands at t_row_ptr[c] + #(entries with column c in rows < r) —
  // a position that does not depend on the block partition, so the result
  // is identical for every thread count. Rows of the transpose fill in
  // increasing source-row order, so their columns come out sorted.
  const int blocks = threads;
  auto block_begin = [this, blocks](int b) {
    return static_cast<Index>(static_cast<int64_t>(rows_) * b / blocks);
  };
  // Per-block column counts (cursor[b][c] at index b * cols_ + c).
  std::vector<Offset> cursor(static_cast<size_t>(blocks) *
                                 static_cast<size_t>(cols_),
                             0);
  ParallelFor(0, blocks, threads, [&](int64_t b) {
    Offset* counts = cursor.data() + b * static_cast<int64_t>(cols_);
    for (Index r = block_begin(static_cast<int>(b));
         r < block_begin(static_cast<int>(b) + 1); ++r) {
      for (Offset p = row_ptr_[static_cast<size_t>(r)];
           p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
        ++counts[col_idx_[static_cast<size_t>(p)]];
      }
    }
  });
  // Column loops run chunked: one call per chunk, not one per column.
  ParallelForChunked(0, cols_, threads, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      Offset total = 0;
      for (int b = 0; b < blocks; ++b) {
        total += cursor[static_cast<size_t>(b) * static_cast<size_t>(cols_) +
                        static_cast<size_t>(c)];
      }
      t_row_ptr[static_cast<size_t>(c) + 1] = total;
    }
  });
  for (Index c = 0; c < cols_; ++c) {
    t_row_ptr[static_cast<size_t>(c) + 1] += t_row_ptr[static_cast<size_t>(c)];
  }
  // Turn counts into exact per-block starting cursors within each output
  // row: block b's entries for column c start after blocks < b.
  ParallelForChunked(0, cols_, threads, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      Offset run = t_row_ptr[static_cast<size_t>(c)];
      for (int b = 0; b < blocks; ++b) {
        Offset& slot =
            cursor[static_cast<size_t>(b) * static_cast<size_t>(cols_) +
                   static_cast<size_t>(c)];
        const Offset count = slot;
        slot = run;
        run += count;
      }
    }
  });
  ParallelFor(0, blocks, threads, [&](int64_t b) {
    Offset* fill = cursor.data() + b * static_cast<int64_t>(cols_);
    for (Index r = block_begin(static_cast<int>(b));
         r < block_begin(static_cast<int>(b) + 1); ++r) {
      for (Offset p = row_ptr_[static_cast<size_t>(r)];
           p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
        const Index c = col_idx_[static_cast<size_t>(p)];
        const Offset dst = fill[c]++;
        t_col_idx[static_cast<size_t>(dst)] = r;
        t_values[static_cast<size_t>(dst)] = values_[static_cast<size_t>(p)];
      }
    }
  });
  CsrMatrix t = FromPartsUnchecked(cols_, rows_, std::move(t_row_ptr),
                                   std::move(t_col_idx), std::move(t_values));
  t.ValidateStructure("CsrMatrix::Transpose");
  return t;
}

std::vector<Scalar> CsrMatrix::RowSums() const {
  std::vector<Scalar> sums(static_cast<size_t>(rows_), 0.0);
  for (Index r = 0; r < rows_; ++r) {
    Scalar s = 0.0;
    for (Offset p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      s += values_[static_cast<size_t>(p)];
    }
    sums[static_cast<size_t>(r)] = s;
  }
  return sums;
}

std::vector<Scalar> CsrMatrix::ColSums() const {
  std::vector<Scalar> sums(static_cast<size_t>(cols_), 0.0);
  for (size_t p = 0; p < col_idx_.size(); ++p) {
    sums[static_cast<size_t>(col_idx_[p])] += values_[p];
  }
  return sums;
}

std::vector<Offset> CsrMatrix::RowCounts() const {
  std::vector<Offset> counts(static_cast<size_t>(rows_));
  for (Index r = 0; r < rows_; ++r) counts[static_cast<size_t>(r)] = RowNnz(r);
  return counts;
}

std::vector<Offset> CsrMatrix::ColCounts() const {
  std::vector<Offset> counts(static_cast<size_t>(cols_), 0);
  for (Index c : col_idx_) ++counts[static_cast<size_t>(c)];
  return counts;
}

void CsrMatrix::ScaleRows(std::span<const Scalar> scale) {
  DGC_CHECK_EQ(static_cast<Index>(scale.size()), rows_);
  for (Index r = 0; r < rows_; ++r) {
    const Scalar s = scale[static_cast<size_t>(r)];
    for (Offset p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      values_[static_cast<size_t>(p)] *= s;
    }
  }
}

void CsrMatrix::ScaleCols(std::span<const Scalar> scale) {
  DGC_CHECK_EQ(static_cast<Index>(scale.size()), cols_);
  for (size_t p = 0; p < col_idx_.size(); ++p) {
    values_[p] *= scale[static_cast<size_t>(col_idx_[p])];
  }
}

CsrMatrix CsrMatrix::Pruned(Scalar threshold, bool drop_diagonal) const {
  // Exact counting pass first, so the output arrays are allocated at their
  // final size instead of growing (and over-reserving) via push_back.
  std::vector<Offset> new_row_ptr(static_cast<size_t>(rows_) + 1, 0);
  for (Index r = 0; r < rows_; ++r) {
    Offset kept = 0;
    for (Offset p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      const Index c = col_idx_[static_cast<size_t>(p)];
      const Scalar v = values_[static_cast<size_t>(p)];
      if (std::abs(v) < threshold) continue;
      if (drop_diagonal && c == r) continue;
      ++kept;
    }
    new_row_ptr[static_cast<size_t>(r) + 1] =
        new_row_ptr[static_cast<size_t>(r)] + kept;
  }
  std::vector<Index> new_col_idx(static_cast<size_t>(new_row_ptr.back()));
  std::vector<Scalar> new_values(static_cast<size_t>(new_row_ptr.back()));
  size_t out = 0;
  for (Index r = 0; r < rows_; ++r) {
    for (Offset p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      const Index c = col_idx_[static_cast<size_t>(p)];
      const Scalar v = values_[static_cast<size_t>(p)];
      if (std::abs(v) < threshold) continue;
      if (drop_diagonal && c == r) continue;
      new_col_idx[out] = c;
      new_values[out] = v;
      ++out;
    }
  }
  CsrMatrix pruned =
      FromPartsUnchecked(rows_, cols_, std::move(new_row_ptr),
                         std::move(new_col_idx), std::move(new_values));
  pruned.ValidateStructure("CsrMatrix::Pruned");
  return pruned;
}

CsrMatrix CsrMatrix::SpliceRows(std::span<const Index> rows,
                                const CsrMatrix& source) const {
  DGC_CHECK(source.rows_ == rows_ && source.cols_ == cols_)
      << "SpliceRows: source " << source.DebugString() << " vs "
      << DebugString();
  // The spliced size first (O(|rows|)), so the copy is a single pass.
  Offset nnz_out = nnz();
  for (size_t p = 0; p < rows.size(); ++p) {
    DGC_CHECK(rows[p] >= 0 && rows[p] < rows_ &&
              (p == 0 || rows[p - 1] < rows[p]))
        << "SpliceRows: row list must be sorted, unique and in range";
    nnz_out += source.RowNnz(rows[p]) - RowNnz(rows[p]);
  }
  std::vector<Offset> row_ptr(static_cast<size_t>(rows_) + 1, 0);
  std::vector<Index> col_idx(static_cast<size_t>(nnz_out));
  std::vector<Scalar> values(static_cast<size_t>(nnz_out));
  size_t next = 0;
  Offset out = 0;
  for (Index r = 0; r < rows_; ++r) {
    const bool listed = next < rows.size() && rows[next] == r;
    if (listed) ++next;
    const CsrMatrix& src = listed ? source : *this;
    const auto cols = src.RowCols(r);
    const auto vals = src.RowValues(r);
    std::copy(cols.begin(), cols.end(),
              col_idx.begin() + static_cast<long>(out));
    std::copy(vals.begin(), vals.end(),
              values.begin() + static_cast<long>(out));
    out += static_cast<Offset>(cols.size());
    row_ptr[static_cast<size_t>(r) + 1] = out;
  }
  // Every row is a verbatim copy of a row of a valid matrix.
  CsrMatrix spliced = FromPartsUnchecked(rows_, cols_, std::move(row_ptr),
                                         std::move(col_idx),
                                         std::move(values));
  spliced.ValidateStructure("CsrMatrix::SpliceRows");
  return spliced;
}

Result<CsrMatrix> CsrMatrix::PlusIdentity() const {
  if (rows_ != cols_) {
    return Status::InvalidArgument("PlusIdentity requires a square matrix");
  }
  return Add(*this, Identity(rows_));
}

Result<CsrMatrix> CsrMatrix::Add(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument("Add: shape mismatch " + a.DebugString() +
                                   " vs " + b.DebugString());
  }
  // Exact counting pass over the column structure (cheap two-pointer merge,
  // no values touched), so the output arrays are allocated at their final
  // size instead of growing through push_back on the hot symmetrization
  // path.
  std::vector<Offset> row_ptr(static_cast<size_t>(a.rows()) + 1, 0);
  for (Index r = 0; r < a.rows(); ++r) {
    auto ac = a.RowCols(r);
    auto bc = b.RowCols(r);
    size_t i = 0, j = 0;
    Offset merged = 0;
    while (i < ac.size() || j < bc.size()) {
      if (j >= bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        ++i;
      } else if (i >= ac.size() || bc[j] < ac[i]) {
        ++j;
      } else {
        ++i;
        ++j;
      }
      ++merged;
    }
    row_ptr[static_cast<size_t>(r) + 1] =
        row_ptr[static_cast<size_t>(r)] + merged;
  }
  std::vector<Index> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<Scalar> values(static_cast<size_t>(row_ptr.back()));
  size_t out = 0;
  for (Index r = 0; r < a.rows(); ++r) {
    auto ac = a.RowCols(r);
    auto av = a.RowValues(r);
    auto bc = b.RowCols(r);
    auto bv = b.RowValues(r);
    size_t i = 0, j = 0;
    while (i < ac.size() || j < bc.size()) {
      if (j >= bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        col_idx[out] = ac[i];
        values[out] = av[i];
        ++i;
      } else if (i >= ac.size() || bc[j] < ac[i]) {
        col_idx[out] = bc[j];
        values[out] = bv[j];
        ++j;
      } else {
        col_idx[out] = ac[i];
        values[out] = av[i] + bv[j];
        ++i;
        ++j;
      }
      ++out;
    }
  }
  CsrMatrix sum = FromPartsUnchecked(a.rows(), a.cols(), std::move(row_ptr),
                                     std::move(col_idx), std::move(values));
  sum.ValidateStructure("CsrMatrix::Add");
  return sum;
}

void CsrMatrix::Multiply(std::span<const Scalar> x,
                         std::span<Scalar> y) const {
  DGC_CHECK_EQ(static_cast<Index>(x.size()), cols_);
  DGC_CHECK_EQ(static_cast<Index>(y.size()), rows_);
  for (Index r = 0; r < rows_; ++r) {
    Scalar acc = 0.0;
    for (Offset p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      acc += values_[static_cast<size_t>(p)] *
             x[static_cast<size_t>(col_idx_[static_cast<size_t>(p)])];
    }
    y[static_cast<size_t>(r)] = acc;
  }
}

void CsrMatrix::MultiplyTranspose(std::span<const Scalar> x,
                                  std::span<Scalar> y) const {
  DGC_CHECK_EQ(static_cast<Index>(x.size()), rows_);
  DGC_CHECK_EQ(static_cast<Index>(y.size()), cols_);
  std::fill(y.begin(), y.end(), 0.0);
  for (Index r = 0; r < rows_; ++r) {
    const Scalar xr = x[static_cast<size_t>(r)];
    if (xr == 0.0) continue;
    for (Offset p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      y[static_cast<size_t>(col_idx_[static_cast<size_t>(p)])] +=
          values_[static_cast<size_t>(p)] * xr;
    }
  }
}

bool CsrMatrix::IsSymmetric(Scalar tol) const {
  if (rows_ != cols_) return false;
  CsrMatrix t = Transpose();
  if (t.row_ptr_ != row_ptr_ || t.col_idx_ != col_idx_) return false;
  for (size_t p = 0; p < values_.size(); ++p) {
    if (std::abs(values_[p] - t.values_[p]) > tol) return false;
  }
  return true;
}

std::vector<Scalar> CsrMatrix::ToDense() const {
  std::vector<Scalar> dense(static_cast<size_t>(rows_) *
                                static_cast<size_t>(cols_),
                            0.0);
  for (Index r = 0; r < rows_; ++r) {
    for (Offset p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      dense[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
            static_cast<size_t>(col_idx_[static_cast<size_t>(p)])] =
          values_[static_cast<size_t>(p)];
    }
  }
  return dense;
}

std::string CsrMatrix::DebugString() const {
  std::ostringstream os;
  os << "CsrMatrix " << rows_ << "x" << cols_ << ", nnz=" << nnz();
  return os.str();
}

}  // namespace dgc
