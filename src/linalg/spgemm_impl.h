// Internal machinery shared by the in-memory SpGEMM kernels (spgemm.cc)
// and the out-of-core tiled driver (spgemm_tiled.cc): per-worker
// workspaces, the per-row Gustavson / upper-triangle kernels, the two-pass
// row assembly and the row-range upper-product pass. NOT
// part of the public API — include only from linalg kernel translation
// units.
//
// Bit-identity contract: every function here computes a row's entries as
// a pure function of (inputs, row, options) with a fixed inner k-order,
// independent of which worker runs the row, which tile it lands in, or
// how many rows the enclosing loop covers. The tiled driver leans on this:
// concatenating per-tile outputs in row order reproduces the in-memory
// kernel's CSR byte for byte.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/spgemm.h"
#include "obs/span.h"
#include "util/budget.h"
#include "util/parallel_audit.h"
#include "util/radix.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dgc {
namespace spgemm_internal {

/// Per-worker state for the two-pass SpGEMM: a dense accumulator plus the
/// worker's buffered output rows (row ids and concatenated cols/vals), so
/// pass 2 can copy straight into the final CSR without any per-row
/// std::vector allocations.
///
/// `accum` is held at zero between rows: EmitRow re-zeroes every entry the
/// row touched, so a row's first term lands on 0.0 exactly as if the
/// entry had been zeroed on first touch.
struct SpGemmWorkspace {
  std::vector<Scalar> accum;
  std::vector<Index> marker;
  /// First-touch column list of the current row. n + 1 slots: the row
  /// kernels store every candidate column at touched[count] and advance
  /// count only on a first touch, so once all n columns are in the list
  /// the next store lands in slot n.
  std::vector<Index> touched;
  std::vector<Index> sort_scratch;  ///< radix-sort ping-pong buffer
  Index dim = 0;  ///< accumulator width (radix bound for column sorting)
  std::vector<Index> rows;   ///< output rows buffered by this worker
  std::vector<Index> cols;   ///< their column indices, concatenated
  std::vector<Scalar> vals;  ///< their values, concatenated
  /// Entries dropped by the threshold filter. Each row's count is
  /// deterministic and the shards merge by addition, so the total is
  /// bit-identical for every thread count (the AllPairsStats pattern).
  int64_t dropped = 0;

  void EnsureSize(Index n) {
    if (static_cast<Index>(marker.size()) < n) {
      accum.assign(static_cast<size_t>(n), 0.0);
      marker.assign(static_cast<size_t>(n), -1);
      touched.resize(static_cast<size_t>(n) + 1);
      sort_scratch.resize(static_cast<size_t>(n));
    }
    dim = n;
  }

  /// Clears the buffered rows (between tiles) while keeping the dense
  /// accumulator, its marker state, and the `dropped` tally, which
  /// accumulates across tiles exactly like it accumulates across chunks.
  void ClearBufferedRows() {
    rows.clear();
    cols.clear();
    vals.clear();
  }

  /// Invalidates every marker stamp. Required whenever a workspace is
  /// reused for a SECOND product over the same row ids (the tiled driver's
  /// B-then-C passes): stamps are global row ids, so without the reset the
  /// C pass would see row r's B-pass stamps as "already touched" and leave
  /// those columns out of the touched list, so their sums would be neither
  /// emitted nor re-zeroed. The accumulator is already zero between rows,
  /// so only the marker array needs clearing. O(dim).
  void ResetMarkers() { std::fill(marker.begin(), marker.end(), -1); }
};

/// Appends the surviving entries of row `row`, whose columns are the first
/// `count` of w.touched, to w.cols / w.vals sorted by column, applying the
/// threshold and diagonal filters, and re-zeroes every touched accumulator
/// entry. Shared by the general and the upper-triangle kernels so
/// filtering is bit-identical. The filter runs in first-touch order and
/// only the survivors are sorted: a similarity row typically keeps a few
/// percent of what it touches.
inline void EmitRow(Index row, size_t count, const SpGemmOptions& options,
                    SpGemmWorkspace& w) {
  Scalar* accum = w.accum.data();
  Index* touched = w.touched.data();
  // Only threshold drops are counted; NaN compares false and is kept.
  size_t kept = 0;
  int64_t dropped = 0;
  for (size_t p = 0; p < count; ++p) {
    const Index c = touched[p];
    if (std::abs(accum[c]) < options.threshold) {
      ++dropped;
      accum[c] = 0.0;
    } else if (options.drop_diagonal && c == row) {
      accum[c] = 0.0;
    } else {
      touched[kept++] = c;
    }
  }
  w.dropped += dropped;
  // Unique keys, so the radix order equals the std::sort order exactly.
  RadixSortIndices(touched, kept, w.sort_scratch.data(), w.dim);
  const size_t before = w.cols.size();
  w.cols.resize(before + kept);
  w.vals.resize(before + kept);
  Index* out_cols = w.cols.data() + before;
  Scalar* out_vals = w.vals.data() + before;
  for (size_t p = 0; p < kept; ++p) {
    const Index c = touched[p];
    out_cols[p] = c;
    out_vals[p] = accum[c];
    accum[c] = 0.0;
  }
}

/// Computes one output row of C = A * B, appending the surviving entries to
/// w.cols / w.vals (sorted by column). marker[c] == row marks column c as
/// touched for the current row; the first-touch test is folded into the
/// count instead of a branch, since most columns of a row are new.
inline void ComputeRow(const CsrMatrix& a, const CsrMatrix& b, Index row,
                       const SpGemmOptions& options, SpGemmWorkspace& w) {
  Scalar* accum = w.accum.data();
  Index* marker = w.marker.data();
  Index* touched = w.touched.data();
  Index count = 0;
  auto a_cols = a.RowCols(row);
  auto a_vals = a.RowValues(row);
  for (size_t i = 0; i < a_cols.size(); ++i) {
    const Scalar av = a_vals[i];
    auto b_cols = b.RowCols(a_cols[i]);
    auto b_vals = b.RowValues(a_cols[i]);
    for (size_t p = 0; p < b_cols.size(); ++p) {
      const Index c = b_cols[p];
      touched[count] = c;
      count += marker[c] != row;
      marker[c] = row;
      accum[c] += av * b_vals[p];
    }
  }
  EmitRow(row, static_cast<size_t>(count), options, w);
}

/// Computes one upper-triangle row (candidates j >= row only) of the scaled
/// symmetric product U = D_r A D_c² Aᵀ D_r. `at` is the inverted index
/// (= Aᵀ). Per term the factors are evaluated as
/// (a(i,k)·row_scale[i])·col_scale[k] — the exact multiplication order a
/// ScaleRows-then-ScaleCols copy would have stored, and terms accumulate in
/// the same ascending-k order as ComputeRow, so every surviving entry is
/// bit-identical to the reference SpGemmAAt-on-a-scaled-copy path.
inline void ComputeUpperRow(const CsrMatrix& a, const CsrMatrix& at,
                            std::span<const Scalar> row_scale,
                            std::span<const Scalar> col_scale, Index row,
                            const SpGemmOptions& options,
                            SpGemmWorkspace& w) {
  Scalar* accum = w.accum.data();
  Index* marker = w.marker.data();
  Index* touched = w.touched.data();
  Index count = 0;
  auto a_cols = a.RowCols(row);
  auto a_vals = a.RowValues(row);
  const bool has_row_scale = !row_scale.empty();
  const bool has_col_scale = !col_scale.empty();
  const Scalar ri =
      has_row_scale ? row_scale[static_cast<size_t>(row)] : 1.0;
  for (size_t i = 0; i < a_cols.size(); ++i) {
    const Index k = a_cols[i];
    const Scalar ck =
        has_col_scale ? col_scale[static_cast<size_t>(k)] : 1.0;
    Scalar av = a_vals[i];
    if (has_row_scale) av *= ri;
    if (has_col_scale) av *= ck;
    auto t_cols = at.RowCols(k);
    auto t_vals = at.RowValues(k);
    // Only candidates j >= row contribute to the upper triangle; the lower
    // triangle is recovered by mirroring. Columns are sorted, so the first
    // eligible candidate is found by binary search. Each term evaluates
    // bv = (t_vals[p] * row_scale[j]) * ck and accum[j] += av * bv — the
    // same multiply order as the reference ScaleRows/ScaleCols path.
    const size_t q = static_cast<size_t>(
        std::lower_bound(t_cols.begin(), t_cols.end(), row) - t_cols.begin());
    for (size_t p = q; p < t_cols.size(); ++p) {
      const Index j = t_cols[p];
      Scalar bv = t_vals[p];
      if (has_row_scale) bv *= row_scale[static_cast<size_t>(j)];
      if (has_col_scale) bv *= ck;
      touched[count] = j;
      count += marker[j] != row;
      marker[j] = row;
      accum[j] += av * bv;
    }
  }
  EmitRow(row, static_cast<size_t>(count), options, w);
}

/// Two-pass assembly shared by the row-parallel kernels: pass 1 ran already
/// (per-worker buffered rows + row_nnz), this prefix-sums the row pointers
/// and copies every buffered row to its final offset in parallel.
///
/// `row_base` maps buffered global row ids to local output rows: the
/// returned CSR has `rows` rows covering global rows
/// [row_base, row_base + rows), and `row_nnz` is indexed locally. The
/// in-memory kernels pass row_base = 0; the tiled driver passes the tile's
/// first row.
inline CsrMatrix AssembleRows(Index rows, Index cols, int threads,
                              const std::vector<SpGemmWorkspace>& workspaces,
                              const std::vector<Offset>& row_nnz,
                              Index row_base, const char* context) {
  std::vector<Offset> row_ptr(static_cast<size_t>(rows) + 1, 0);
  for (Index r = 0; r < rows; ++r) {
    row_ptr[static_cast<size_t>(r) + 1] =
        row_ptr[static_cast<size_t>(r)] + row_nnz[static_cast<size_t>(r)];
  }
  std::vector<Index> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<Scalar> values(static_cast<size_t>(row_ptr.back()));
  ParallelFor(0, threads, threads, [&](int64_t wi) {
    const SpGemmWorkspace& w = workspaces[static_cast<size_t>(wi)];
    size_t pos = 0;
    for (Index r : w.rows) {
      const size_t local = static_cast<size_t>(r - row_base);
      const size_t k = static_cast<size_t>(row_nnz[local]);
      const size_t at = static_cast<size_t>(row_ptr[local]);
      audit::AuditSpan audit_c(col_idx.data() + at, k, "assemble.col_idx");
      audit::AuditSpan audit_v(values.data() + at, k, "assemble.values");
      std::copy_n(w.cols.begin() + static_cast<long>(pos), k,
                  col_idx.begin() + static_cast<long>(at));
      std::copy_n(w.vals.begin() + static_cast<long>(pos), k,
                  values.begin() + static_cast<long>(at));
      pos += k;
    }
  });
  // Rows are sorted, deduplicated and in range by construction (EmitRow
  // sorts `touched`; the accumulator cannot produce a column twice); the
  // O(nnz) serial Validate() pass is debug-only so Release keeps the
  // parallel speedup.
  CsrMatrix c = CsrMatrix::FromPartsUnchecked(
      rows, cols, std::move(row_ptr), std::move(col_idx), std::move(values));
  c.ValidateStructure(context);
  return c;
}

/// Chunk-granularity poll used inside the row-parallel loop bodies and at
/// stage boundaries. Null token: no work at all.
inline bool Cancelled(CancelToken* cancel) {
  return cancel != nullptr && cancel->Expired();
}

/// Bytes buffered by pass 1 across all workers plus the final CSR arrays —
/// the dominant transient working set of the two-pass assembly.
inline int64_t AssemblyBytes(Index rows,
                             const std::vector<SpGemmWorkspace>& workspaces) {
  int64_t entries = 0;
  for (const SpGemmWorkspace& w : workspaces) {
    entries += static_cast<int64_t>(w.cols.size());
  }
  return 2 * entries *
             static_cast<int64_t>(sizeof(Index) + sizeof(Scalar)) +
         (static_cast<int64_t>(rows) + 1) * static_cast<int64_t>(sizeof(Offset));
}

/// The row-range upper-product pass: rows [lo, hi) of the upper triangle
/// over (a, at) through ComputeUpperRow into the workers' buffers (pass 1),
/// then assembled into a (hi - lo)-row CSR with global column ids. The one
/// loop behind SpGemmAAtSymmetric (a single range over every row) and each
/// tile of SymmetricProductSum. Charges the assembly working set against
/// the cancel token's ledger. Workspaces may be reused across calls:
/// buffered rows are cleared and marker stamps invalidated first (a sibling
/// product over the same row ids would otherwise see stale stamps); the
/// `dropped` tally keeps accumulating.
inline Result<CsrMatrix> ComputeUpperRows(
    const CsrMatrix& a, const CsrMatrix& at,
    std::span<const Scalar> row_scale, std::span<const Scalar> col_scale,
    Index lo, Index hi, const SpGemmOptions& options, int threads,
    std::vector<SpGemmWorkspace>& workspaces, const char* context) {
  const Index n = a.rows();
  for (SpGemmWorkspace& w : workspaces) {
    w.ClearBufferedRows();
    w.ResetMarkers();
  }
  std::vector<Offset> row_nnz(static_cast<size_t>(hi - lo), 0);
  ParallelForWorkers(
      lo, hi, threads, /*grain=*/0, [&](int worker, int64_t wlo, int64_t whi) {
        if (Cancelled(options.cancel)) return;  // skip the chunk, not a row
        SpGemmWorkspace& w = workspaces[static_cast<size_t>(worker)];
        w.EnsureSize(n);
        audit::AuditSpan audit_nnz(row_nnz.data() + (wlo - lo),
                                   static_cast<size_t>(whi - wlo),
                                   "upper.row_nnz");
        for (int64_t r = wlo; r < whi; ++r) {
          const size_t before = w.cols.size();
          ComputeUpperRow(a, at, row_scale, col_scale, static_cast<Index>(r),
                          options, w);
          row_nnz[static_cast<size_t>(r - lo)] =
              static_cast<Offset>(w.cols.size() - before);
          w.rows.push_back(static_cast<Index>(r));
        }
      });
  if (Cancelled(options.cancel)) return options.cancel->status();
  MemoryCharge assembly_charge(options.cancel,
                               AssemblyBytes(hi - lo, workspaces));
  if (assembly_charge.exceeded()) return options.cancel->status();
  return AssembleRows(hi - lo, n, threads, workspaces, row_nnz,
                      /*row_base=*/lo, context);
}

/// Attaches the shared post-pass-1 instrumentation: deterministic
/// pruned-entry total plus the perf-class worker load picture. No-op on a
/// dead span.
inline void RecordPassStats(StageSpan& span,
                            const std::vector<SpGemmWorkspace>& workspaces,
                            int threads) {
  if (!span.live()) return;
  int64_t dropped = 0;
  size_t rows_min = static_cast<size_t>(-1);
  size_t rows_max = 0;
  for (const SpGemmWorkspace& w : workspaces) {
    dropped += w.dropped;
    rows_min = std::min(rows_min, w.rows.size());
    rows_max = std::max(rows_max, w.rows.size());
  }
  span.Metric("pruned_entries", dropped);
  span.PerfMetric("workers", threads);
  span.PerfMetric("rows_per_worker_min", static_cast<int64_t>(rows_min));
  span.PerfMetric("rows_per_worker_max", static_cast<int64_t>(rows_max));
}

}  // namespace spgemm_internal
}  // namespace dgc
