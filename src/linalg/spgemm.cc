#include "linalg/spgemm.h"

#include <algorithm>
#include <cmath>

#include "linalg/spgemm_impl.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/parallel_audit.h"
#include "util/thread_pool.h"

namespace dgc {

using spgemm_internal::AssembleRows;
using spgemm_internal::AssemblyBytes;
using spgemm_internal::Cancelled;
using spgemm_internal::ComputeRow;
using spgemm_internal::ComputeUpperRow;
using spgemm_internal::ComputeUpperRows;
using spgemm_internal::RecordPassStats;
using spgemm_internal::SpGemmWorkspace;

Result<CsrMatrix> SpGemm(const CsrMatrix& a, const CsrMatrix& b,
                         const SpGemmOptions& options) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("SpGemm: inner dimensions differ (" +
                                   a.DebugString() + " * " + b.DebugString() +
                                   ")");
  }
  const Index rows = a.rows();
  const Index cols = b.cols();
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(options.num_threads), std::max<Index>(rows, 1)));
  StageSpan span(options.metrics, "spgemm");
  if (span.live()) {
    span.Metric("rows", rows);
    span.Metric("cols", cols);
    span.Metric("threshold", options.threshold);
    // O(nnz(A)) estimate — computed only when a sink is attached.
    span.Metric("flops", SpGemmFlops(a, b));
  }

  if (Cancelled(options.cancel)) return options.cancel->status();
  // Dense accumulators are the fixed per-worker working set; charge them
  // before they are allocated.
  MemoryCharge accum_charge(
      options.cancel,
      static_cast<int64_t>(threads) * cols *
          static_cast<int64_t>(sizeof(Scalar) + sizeof(Index)));
  if (accum_charge.exceeded()) return options.cancel->status();

  // Pass 1: compute every output row into per-worker buffers, recording the
  // per-row nnz. Dynamic chunking keeps hub rows from imbalancing workers.
  std::vector<SpGemmWorkspace> workspaces(static_cast<size_t>(threads));
  std::vector<Offset> row_nnz(static_cast<size_t>(rows), 0);
  ParallelForWorkers(
      0, rows, threads, /*grain=*/0,
      [&](int worker, int64_t lo, int64_t hi) {
        if (Cancelled(options.cancel)) return;  // skip the chunk, not a row
        SpGemmWorkspace& w = workspaces[static_cast<size_t>(worker)];
        w.EnsureSize(cols);
        audit::AuditSpan audit_nnz(row_nnz.data() + lo,
                                   static_cast<size_t>(hi - lo),
                                   "spgemm.row_nnz");
        for (int64_t r = lo; r < hi; ++r) {
          const size_t before = w.cols.size();
          ComputeRow(a, b, static_cast<Index>(r), options, w);
          row_nnz[static_cast<size_t>(r)] =
              static_cast<Offset>(w.cols.size() - before);
          w.rows.push_back(static_cast<Index>(r));
        }
      });
  if (Cancelled(options.cancel)) return options.cancel->status();
  MemoryCharge assembly_charge(options.cancel,
                               AssemblyBytes(rows, workspaces));
  if (assembly_charge.exceeded()) return options.cancel->status();

  // Pass 2: prefix-sum row pointers (serial, deterministic for any thread
  // count) and copy every buffered row to its final offset in parallel.
  RecordPassStats(span, workspaces, threads);
  CsrMatrix c = AssembleRows(rows, cols, threads, workspaces, row_nnz,
                             /*row_base=*/0, "SpGemm");
  span.Metric("output_nnz", c.nnz());
  return c;
}

Result<CsrMatrix> SpGemmAAt(const CsrMatrix& a, const SpGemmOptions& options) {
  return SpGemm(a, a.Transpose(options.num_threads), options);
}

Result<CsrMatrix> SpGemmAAt(const CsrMatrix& a, const CsrMatrix& a_transpose,
                            const SpGemmOptions& options) {
  if (a_transpose.rows() != a.cols() || a_transpose.cols() != a.rows() ||
      a_transpose.nnz() != a.nnz()) {
    return Status::InvalidArgument("SpGemmAAt: a_transpose " +
                                   a_transpose.DebugString() +
                                   " is not the transpose of " +
                                   a.DebugString());
  }
  return SpGemm(a, a_transpose, options);
}

Result<CsrMatrix> SpGemmAAtSymmetric(const CsrMatrix& a,
                                     std::span<const Scalar> row_scale,
                                     std::span<const Scalar> col_scale,
                                     const SpGemmOptions& options,
                                     const CsrMatrix* a_transpose) {
  const Index rows = a.rows();
  if (!row_scale.empty() &&
      static_cast<Index>(row_scale.size()) != rows) {
    return Status::InvalidArgument(
        "SpGemmAAtSymmetric: row_scale size " +
        std::to_string(row_scale.size()) + " != rows of " + a.DebugString());
  }
  if (!col_scale.empty() &&
      static_cast<Index>(col_scale.size()) != a.cols()) {
    return Status::InvalidArgument(
        "SpGemmAAtSymmetric: col_scale size " +
        std::to_string(col_scale.size()) + " != cols of " + a.DebugString());
  }
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(options.num_threads), std::max<Index>(rows, 1)));
  CsrMatrix local_transpose;
  if (a_transpose == nullptr) {
    if (Cancelled(options.cancel)) return options.cancel->status();
    local_transpose = a.Transpose(threads);
    a_transpose = &local_transpose;
  } else if (a_transpose->rows() != a.cols() ||
             a_transpose->cols() != rows ||
             a_transpose->nnz() != a.nnz()) {
    return Status::InvalidArgument("SpGemmAAtSymmetric: a_transpose " +
                                   a_transpose->DebugString() +
                                   " is not the transpose of " +
                                   a.DebugString());
  }
  StageSpan span(options.metrics, "spgemm.aat_symmetric");
  if (span.live()) {
    span.Metric("rows", rows);
    span.Metric("threshold", options.threshold);
    // Full-product multiply-add count; the upper-triangle kernel performs
    // roughly half of it. O(nnz(A)) — computed only when a sink is attached.
    span.Metric("flops_full_product", SpGemmFlops(a, *a_transpose));
  }

  if (Cancelled(options.cancel)) return options.cancel->status();
  MemoryCharge accum_charge(
      options.cancel,
      static_cast<int64_t>(threads) * rows *
          static_cast<int64_t>(sizeof(Scalar) + sizeof(Index)));
  if (accum_charge.exceeded()) return options.cancel->status();

  std::vector<SpGemmWorkspace> workspaces(static_cast<size_t>(threads));
  DGC_ASSIGN_OR_RETURN(
      CsrMatrix upper,
      ComputeUpperRows(a, *a_transpose, row_scale, col_scale, 0, rows,
                       options, threads, workspaces, "SpGemmAAtSymmetric"));
  RecordPassStats(span, workspaces, threads);
  span.Metric("output_nnz", upper.nnz());
  return upper;
}

Result<CsrMatrix> SpGemmAAtSymmetricUpdateRows(
    const CsrMatrix& a, std::span<const Scalar> row_scale,
    std::span<const Scalar> col_scale, const SpGemmOptions& options,
    const CsrMatrix& a_transpose, std::span<const Index> rows,
    const CsrMatrix& cached_upper) {
  const Index n = a.rows();
  if (!row_scale.empty() && static_cast<Index>(row_scale.size()) != n) {
    return Status::InvalidArgument(
        "SpGemmAAtSymmetricUpdateRows: row_scale size " +
        std::to_string(row_scale.size()) + " != rows of " + a.DebugString());
  }
  if (!col_scale.empty() &&
      static_cast<Index>(col_scale.size()) != a.cols()) {
    return Status::InvalidArgument(
        "SpGemmAAtSymmetricUpdateRows: col_scale size " +
        std::to_string(col_scale.size()) + " != cols of " + a.DebugString());
  }
  if (a_transpose.rows() != a.cols() || a_transpose.cols() != n ||
      a_transpose.nnz() != a.nnz()) {
    return Status::InvalidArgument(
        "SpGemmAAtSymmetricUpdateRows: a_transpose " +
        a_transpose.DebugString() + " is not the transpose of " +
        a.DebugString());
  }
  if (cached_upper.rows() != n || cached_upper.cols() != n) {
    return Status::InvalidArgument(
        "SpGemmAAtSymmetricUpdateRows: cached triangle " +
        cached_upper.DebugString() + " does not match " + a.DebugString());
  }
  for (size_t p = 0; p < rows.size(); ++p) {
    if (rows[p] < 0 || rows[p] >= n ||
        (p > 0 && rows[p] <= rows[p - 1])) {
      return Status::InvalidArgument(
          "SpGemmAAtSymmetricUpdateRows: row list must be sorted, unique, "
          "and within [0, " +
          std::to_string(n) + ")");
    }
  }
  if (rows.empty()) return cached_upper;

  const Index k = static_cast<Index>(rows.size());
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(options.num_threads), std::max<Index>(k, 1)));
  StageSpan span(options.metrics, "spgemm.aat_symmetric.update");
  if (span.live()) {
    span.Metric("rows_total", n);
    span.Metric("rows_recomputed", k);
    span.Metric("threshold", options.threshold);
  }

  if (Cancelled(options.cancel)) return options.cancel->status();
  MemoryCharge accum_charge(
      options.cancel,
      static_cast<int64_t>(threads) * n *
          static_cast<int64_t>(sizeof(Scalar) + sizeof(Index)));
  if (accum_charge.exceeded()) return options.cancel->status();

  // Pass 1 over list positions: position p computes global row rows[p]
  // through the shared upper-triangle kernel into the workers' buffers.
  // Assembly yields an n-row patch whose unlisted rows are empty; the
  // splice then takes the listed rows from it.
  std::vector<SpGemmWorkspace> workspaces(static_cast<size_t>(threads));
  std::vector<Offset> row_nnz(static_cast<size_t>(n), 0);
  ParallelForWorkers(
      0, k, threads, /*grain=*/0,
      [&](int worker, int64_t lo, int64_t hi) {
        if (Cancelled(options.cancel)) return;
        SpGemmWorkspace& w = workspaces[static_cast<size_t>(worker)];
        w.EnsureSize(n);
        for (int64_t p = lo; p < hi; ++p) {
          const Index r = rows[static_cast<size_t>(p)];
          const size_t before = w.cols.size();
          ComputeUpperRow(a, a_transpose, row_scale, col_scale, r, options,
                          w);
          row_nnz[static_cast<size_t>(r)] =
              static_cast<Offset>(w.cols.size() - before);
          w.rows.push_back(r);
        }
      });
  if (Cancelled(options.cancel)) return options.cancel->status();
  MemoryCharge assembly_charge(options.cancel, AssemblyBytes(n, workspaces));
  if (assembly_charge.exceeded()) return options.cancel->status();
  RecordPassStats(span, workspaces, threads);
  const CsrMatrix patch =
      AssembleRows(n, n, threads, workspaces, row_nnz,
                   /*row_base=*/0, "SpGemmAAtSymmetricUpdateRows(patch)");

  Offset spliced_nnz = cached_upper.nnz() + patch.nnz();
  for (Index r : rows) spliced_nnz -= cached_upper.RowNnz(r);
  MemoryCharge splice_charge(
      options.cancel,
      spliced_nnz * static_cast<int64_t>(sizeof(Index) + sizeof(Scalar)) +
          (static_cast<int64_t>(n) + 1) *
              static_cast<int64_t>(sizeof(Offset)));
  if (splice_charge.exceeded()) return options.cancel->status();
  CsrMatrix spliced = cached_upper.SpliceRows(rows, patch);
  span.Metric("output_nnz", spliced.nnz());
  return spliced;
}

Result<CsrMatrix> SpGemmSymmetricSum(const CsrMatrix& upper_b,
                                     const CsrMatrix& upper_c,
                                     const SpGemmOptions& options) {
  if (upper_b.rows() != upper_c.rows() || upper_b.cols() != upper_c.cols()) {
    return Status::InvalidArgument("SpGemmSymmetricSum: shape mismatch " +
                                   upper_b.DebugString() + " vs " +
                                   upper_c.DebugString());
  }
  if (upper_b.rows() != upper_b.cols()) {
    return Status::InvalidArgument(
        "SpGemmSymmetricSum: triangles must be square, got " +
        upper_b.DebugString());
  }
  const Index n = upper_b.rows();
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(options.num_threads), std::max<Index>(n, 1)));
  StageSpan span(options.metrics, "spgemm.symmetric_sum");
  if (span.live()) {
    span.Metric("input_nnz_b", upper_b.nnz());
    span.Metric("input_nnz_c", upper_c.nnz());
    span.Metric("threshold", options.threshold);
  }

  // Pass 1: merge + prune each upper row into per-worker buffers. The
  // two-pointer merge visits columns in the same order as CsrMatrix::Add,
  // so shared entries sum with identical rounding.
  if (Cancelled(options.cancel)) return options.cancel->status();
  std::vector<SpGemmWorkspace> workspaces(static_cast<size_t>(threads));
  std::vector<Offset> row_nnz(static_cast<size_t>(n), 0);
  ParallelForWorkers(
      0, n, threads, /*grain=*/0, [&](int worker, int64_t lo, int64_t hi) {
        if (Cancelled(options.cancel)) return;
        SpGemmWorkspace& w = workspaces[static_cast<size_t>(worker)];
        for (int64_t r64 = lo; r64 < hi; ++r64) {
          const Index r = static_cast<Index>(r64);
          const size_t before = w.cols.size();
          w.dropped +=
              MergeRowSum(upper_b, upper_c, r, r, options, w.cols, w.vals);
          row_nnz[static_cast<size_t>(r)] =
              static_cast<Offset>(w.cols.size() - before);
          w.rows.push_back(r);
        }
      });
  if (Cancelled(options.cancel)) return options.cancel->status();
  MemoryCharge assembly_charge(options.cancel, AssemblyBytes(n, workspaces));
  if (assembly_charge.exceeded()) return options.cancel->status();
  RecordPassStats(span, workspaces, threads);
  const CsrMatrix merged = AssembleRows(n, n, threads, workspaces, row_nnz,
                                        /*row_base=*/0,
                                        "SpGemmSymmetricSum(merge)");
  if (Cancelled(options.cancel)) return options.cancel->status();
  // The mirrored full matrix roughly doubles the triangle's footprint.
  MemoryCharge mirror_charge(
      options.cancel,
      2 * merged.nnz() *
          static_cast<int64_t>(sizeof(Index) + sizeof(Scalar)));
  if (mirror_charge.exceeded()) return options.cancel->status();
  Result<CsrMatrix> full = MirrorUpperTriangle(merged, options.num_threads);
  if (full.ok()) span.Metric("output_nnz", full->nnz());
  return full;
}

int64_t MergeRowSum(const CsrMatrix& b, const CsrMatrix& c, Index local,
                    Index row, const SpGemmOptions& options,
                    std::vector<Index>& cols, std::vector<Scalar>& vals) {
  auto bc = b.RowCols(local);
  auto bv = b.RowValues(local);
  auto cc = c.RowCols(local);
  auto cv = c.RowValues(local);
  int64_t dropped = 0;
  size_t i = 0, j = 0;
  while (i < bc.size() || j < cc.size()) {
    Index col;
    Scalar v;
    if (j >= cc.size() || (i < bc.size() && bc[i] < cc[j])) {
      col = bc[i];
      v = bv[i];
      ++i;
    } else if (i >= bc.size() || cc[j] < bc[i]) {
      col = cc[j];
      v = cv[j];
      ++j;
    } else {
      col = bc[i];
      v = bv[i] + cv[j];
      ++i;
      ++j;
    }
    if (options.threshold > 0.0 && std::abs(v) < options.threshold) {
      ++dropped;
      continue;
    }
    if (options.drop_diagonal && col == row) continue;
    cols.push_back(col);
    vals.push_back(v);
  }
  return dropped;
}

ProductSumOptions SplitProductSumThreshold(Scalar threshold, int num_threads,
                                           CancelToken* cancel) {
  ProductSumOptions split;
  split.product.threshold = threshold / 2.0;
  split.product.drop_diagonal = true;
  split.product.num_threads = num_threads;
  split.product.cancel = cancel;
  split.sum = split.product;
  split.sum.threshold = threshold;
  return split;
}

Result<CsrMatrix> MirrorUpperTriangle(const CsrMatrix& upper,
                                      int num_threads) {
  if (upper.rows() != upper.cols()) {
    return Status::InvalidArgument(
        "MirrorUpperTriangle: matrix must be square, got " +
        upper.DebugString());
  }
  const Index n = upper.rows();
  // Columns are sorted within each row, so checking the first entry of each
  // row suffices to reject below-diagonal input (O(n), not O(nnz)).
  for (Index r = 0; r < n; ++r) {
    auto cols = upper.RowCols(r);
    if (!cols.empty() && cols.front() < r) {
      return Status::InvalidArgument(
          "MirrorUpperTriangle: entry (" + std::to_string(r) + "," +
          std::to_string(cols.front()) + ") is below the diagonal");
    }
  }
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(num_threads), std::max<Index>(n, 1)));

  // Counting pass over static row blocks (the CsrMatrix::Transpose scheme):
  // cursor[b][c] counts the strict-upper entries with column c in block b.
  // Each mirrored entry's final position is independent of the block
  // partition, so the result is bit-identical for every thread count.
  const int blocks = threads;
  auto block_begin = [n, blocks](int b) {
    return static_cast<Index>(static_cast<int64_t>(n) * b / blocks);
  };
  std::vector<Offset> cursor(
      static_cast<size_t>(blocks) * static_cast<size_t>(n), 0);
  ParallelFor(0, blocks, threads, [&](int64_t b) {
    Offset* counts = cursor.data() + b * static_cast<int64_t>(n);
    for (Index r = block_begin(static_cast<int>(b));
         r < block_begin(static_cast<int>(b) + 1); ++r) {
      auto cols = upper.RowCols(r);
      // Columns are sorted: everything past upper_bound(r) is strictly
      // above the diagonal, so the tail counts without per-entry compares.
      const size_t q = static_cast<size_t>(
          std::upper_bound(cols.begin(), cols.end(), r) - cols.begin());
      for (size_t p = q; p < cols.size(); ++p) {
        ++counts[static_cast<size_t>(cols[p])];
      }
    }
  });
  // strict[r] = total mirrored (strict-lower) entries landing in row r.
  // Reduced block-by-block over contiguous index chunks (integer addition
  // commutes exactly, so the totals are identical to any other reduction
  // order).
  std::vector<Offset> strict(static_cast<size_t>(n), 0);
  ParallelForChunked(0, n, threads, [&](int64_t lo, int64_t hi) {
    for (int b = 0; b < blocks; ++b) {
      const Offset* counts = cursor.data() + static_cast<int64_t>(b) * n;
      for (int64_t c = lo; c < hi; ++c) {
        strict[static_cast<size_t>(c)] += counts[c];
      }
    }
  });
  std::vector<Offset> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (Index r = 0; r < n; ++r) {
    row_ptr[static_cast<size_t>(r) + 1] = row_ptr[static_cast<size_t>(r)] +
                                          strict[static_cast<size_t>(r)] +
                                          upper.RowNnz(r);
  }
  // Mirrored entries fill the row prefix (their columns, the source rows,
  // are all < r); the row's own upper entries follow. Turn per-block counts
  // into exact starting cursors within each prefix.
  ParallelFor(0, n, threads, [&](int64_t c) {
    Offset run = row_ptr[static_cast<size_t>(c)];
    for (int b = 0; b < blocks; ++b) {
      Offset& slot = cursor[static_cast<size_t>(b) * static_cast<size_t>(n) +
                            static_cast<size_t>(c)];
      const Offset count = slot;
      slot = run;
      run += count;
    }
  });
  std::vector<Index> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<Scalar> values(static_cast<size_t>(row_ptr.back()));
  ParallelFor(0, blocks, threads, [&](int64_t b) {
    Offset* fill = cursor.data() + b * static_cast<int64_t>(n);
    for (Index r = block_begin(static_cast<int>(b));
         r < block_begin(static_cast<int>(b) + 1); ++r) {
      auto cols = upper.RowCols(r);
      auto vals = upper.RowValues(r);
      const size_t q = static_cast<size_t>(
          std::upper_bound(cols.begin(), cols.end(), r) - cols.begin());
      for (size_t p = q; p < cols.size(); ++p) {
        const Index c = cols[p];
        const Offset dst = fill[static_cast<size_t>(c)]++;
        // Element-granular registration on purpose: disjointness of the
        // scattered destinations is a theorem about the cursor exclusive
        // scan, exactly what the auditor should re-prove at runtime.
        audit::AuditSpan audit_c(col_idx.data() + dst, 1, "mirror.col_idx");
        audit::AuditSpan audit_v(values.data() + dst, 1, "mirror.values");
        col_idx[static_cast<size_t>(dst)] = r;
        values[static_cast<size_t>(dst)] = vals[p];
      }
    }
  });
  ParallelForChunked(0, n, threads, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const size_t k = static_cast<size_t>(upper.RowNnz(static_cast<Index>(r)));
      const Offset dst =
          row_ptr[static_cast<size_t>(r)] + strict[static_cast<size_t>(r)];
      auto cols = upper.RowCols(static_cast<Index>(r));
      auto vals = upper.RowValues(static_cast<Index>(r));
      audit::AuditSpan audit_c(col_idx.data() + dst, k, "mirror.row_copy.c");
      audit::AuditSpan audit_v(values.data() + dst, k, "mirror.row_copy.v");
      std::copy_n(cols.begin(), k, col_idx.begin() + dst);
      std::copy_n(vals.begin(), k, values.begin() + dst);
    }
  });
  CsrMatrix full = CsrMatrix::FromPartsUnchecked(
      n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
  full.ValidateStructure("MirrorUpperTriangle");
  return full;
}

Offset SpGemmFlops(const CsrMatrix& a, const CsrMatrix& b) {
  DGC_CHECK_EQ(a.cols(), b.rows());
  Offset flops = 0;
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index k : a.RowCols(r)) {
      flops += b.RowNnz(k);
    }
  }
  return flops;
}

}  // namespace dgc
