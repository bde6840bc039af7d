#include "cluster/mcl.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "util/logging.h"
#include "util/parallel_audit.h"
#include "util/thread_pool.h"

namespace dgc {

namespace {

/// Inflates (entry^r), prunes, caps and renormalizes one flow row held in
/// unsorted (cols, vals). Because inflation is monotone, the top-k
/// selection happens on raw values *before* the expensive pow() calls, so
/// cost is O(t) for the selection plus O(k log k) for the final sort —
/// never O(t log t) on the (possibly dense) expanded row.
///
/// Returns true when every inflated value underflowed and the row collapsed
/// onto one entry. That branch is the only one that reads `row`; every
/// other output depends on (cols, vals) alone.
bool InflatePruneRow(Index row, std::vector<Index>& cols,
                     std::vector<Scalar>& vals, const RmclOptions& options,
                     std::vector<std::pair<Scalar, Index>>& scratch) {
  if (cols.empty()) return false;
  scratch.clear();
  for (size_t i = 0; i < cols.size(); ++i) {
    scratch.emplace_back(vals[i], cols[i]);
  }
  const size_t cap = static_cast<size_t>(options.max_row_nnz);
  if (scratch.size() > cap) {
    std::nth_element(
        scratch.begin(), scratch.begin() + static_cast<long>(cap),
        scratch.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    scratch.resize(cap);
  }
  // Inflate the survivors and normalize among them.
  Scalar sum = 0.0;
  for (auto& [v, c] : scratch) {
    v = std::pow(v, options.inflation);
    sum += v;
  }
  if (sum <= 0.0) {
    // Every inflated value underflowed to zero. Collapse the row onto its
    // self-loop if it has one (the natural attractor), else onto the
    // largest-magnitude original entry — never an arbitrary stale column.
    size_t keep = 0;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (std::abs(vals[i]) > std::abs(vals[keep])) keep = i;
    }
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == row) {
        keep = i;
        break;
      }
    }
    cols[0] = cols[keep];
    cols.resize(1);
    vals.resize(1);
    vals[0] = 1.0;
    return true;
  }
  // Drop normalized entries below the prune threshold, keeping at least
  // the largest so the row never empties.
  size_t out = 0;
  size_t best = 0;
  for (size_t i = 0; i < scratch.size(); ++i) {
    if (scratch[i].first > scratch[best].first) best = i;
    if (scratch[i].first / sum < options.prune_threshold) continue;
    scratch[out++] = scratch[i];
  }
  if (out == 0) {
    scratch[0] = scratch[best];
    out = 1;
  }
  scratch.resize(out);
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  Scalar kept = 0.0;
  for (const auto& [v, c] : scratch) kept += v;
  cols.resize(out);
  vals.resize(out);
  for (size_t i = 0; i < out; ++i) {
    cols[i] = scratch[i].second;
    vals[i] = scratch[i].first / kept;
  }
  return false;
}

/// Per-worker workspace for the row-parallel R-MCL loop, allocated once and
/// reused across iterations. `marker` holds int64 stamps (iteration * n +
/// row) so it never needs clearing between iterations; the rows computed by
/// this worker in the current iteration live in (cols, vals) until pass 2
/// copies them to their final CSR offsets.
struct RmclWorkspace {
  std::vector<Scalar> accum;
  std::vector<int64_t> marker;
  /// Fixed-size first-touch buffer for the expansion, in insertion order
  /// (the nth_element cap in InflatePruneRow tie-breaks on it).
  std::vector<Index> touched;
  std::vector<Index> row_cols;
  std::vector<Scalar> row_vals;
  std::vector<std::pair<Scalar, Index>> scratch;
  std::vector<Index> cols;   ///< computed rows' column indices, concatenated
  std::vector<Scalar> vals;  ///< their values, concatenated

  void EnsureSize(Index n) {
    if (static_cast<Index>(marker.size()) < n) {
      accum.assign(static_cast<size_t>(n), 0.0);
      marker.assign(static_cast<size_t>(n), -1);
      touched.resize(static_cast<size_t>(n));
    }
  }
  void ClearBuffers() {
    cols.clear();
    vals.clear();
  }
};

/// One computed flow row of the current iteration: where its buffered
/// entries sit and what the serial reductions need from it.
struct RmclRowResult {
  Offset nnz = 0;
  Scalar diff = 0.0;      ///< L1 change against the previous flow row
  int64_t expanded = 0;   ///< size of the expanded row, before the cap
  int worker = 0;         ///< workspace holding the buffered row
  size_t pos = 0;         ///< its offset in that workspace's (cols, vals)
  bool collapsed = false; ///< InflatePruneRow's underflow collapse fired
};

bool RowsIdentical(const CsrMatrix& m, Index a, Index b) {
  const auto a_cols = m.RowCols(a);
  const auto b_cols = m.RowCols(b);
  if (a_cols.size() != b_cols.size()) return false;
  const size_t k = a_cols.size();
  if (k == 0) return true;
  return std::memcmp(a_cols.data(), b_cols.data(), k * sizeof(Index)) == 0 &&
         std::memcmp(m.RowValues(a).data(), m.RowValues(b).data(),
                     k * sizeof(Scalar)) == 0;
}

/// Groups the bitwise-identical rows of m. On return rep[r] is the lowest
/// index of a row identical to row r (r itself for a representative), and
/// `reps` lists the representatives in ascending order. Rows are hashed on
/// their column indices and value bits, sorted by (hash, row), and every
/// candidate match is confirmed with memcmp, so a hash collision can only
/// cost time. O(nnz(m) + n log n).
void GroupIdenticalRows(const CsrMatrix& m, int threads,
                        std::vector<Index>& rep, std::vector<Index>& reps) {
  const Index n = m.rows();
  std::vector<std::pair<uint64_t, Index>> keys(static_cast<size_t>(n));
  rep.resize(static_cast<size_t>(n));
  ParallelFor(0, n, threads, [&](int64_t r64) {
    const Index r = static_cast<Index>(r64);
    const auto cols = m.RowCols(r);
    const auto vals = m.RowValues(r);
    uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      h = (h ^ static_cast<uint32_t>(cols[i])) * 0x100000001b3ULL;
      h = (h ^ std::bit_cast<uint64_t>(vals[i])) * 0x100000001b3ULL;
    }
    keys[static_cast<size_t>(r64)] = {h, r};
  });
  std::sort(keys.begin(), keys.end());
  for (size_t lo = 0; lo < keys.size();) {
    size_t hi = lo + 1;
    while (hi < keys.size() && keys[hi].first == keys[lo].first) ++hi;
    // Rows of one hash run ascend, so each joins the earliest
    // representative it equals or becomes one itself.
    for (size_t i = lo; i < hi; ++i) {
      const Index r = keys[i].second;
      rep[static_cast<size_t>(r)] = r;
      for (size_t j = lo; j < i; ++j) {
        const Index s = keys[j].second;
        if (rep[static_cast<size_t>(s)] == s && RowsIdentical(m, r, s)) {
          rep[static_cast<size_t>(r)] = s;
          break;
        }
      }
    }
    lo = hi;
  }
  reps.clear();
  for (Index r = 0; r < n; ++r) {
    if (rep[static_cast<size_t>(r)] == r) reps.push_back(r);
  }
}

}  // namespace

CsrMatrix BuildFlowMatrixFromAdjacency(const CsrMatrix& adj,
                                       Scalar self_loop_scale,
                                       int num_threads) {
  const Index n = adj.rows();
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(num_threads), std::max<Index>(n, 1)));
  // Pass 1: per-row sizes (one extra slot when the diagonal is absent).
  std::vector<Offset> row_ptr(static_cast<size_t>(n) + 1, 0);
  ParallelFor(0, n, threads, [&](int64_t u64) {
    const Index u = static_cast<Index>(u64);
    auto cols = adj.RowCols(u);
    const bool has_diag = std::binary_search(cols.begin(), cols.end(), u);
    row_ptr[static_cast<size_t>(u) + 1] = adj.RowNnz(u) + (has_diag ? 0 : 1);
  });
  for (Index u = 0; u < n; ++u) {
    row_ptr[static_cast<size_t>(u) + 1] += row_ptr[static_cast<size_t>(u)];
  }
  // Pass 2: each row is filled and normalized independently at its final
  // offset, so the result is bit-identical for every thread count.
  std::vector<Index> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<Scalar> values(static_cast<size_t>(row_ptr.back()));
  ParallelFor(0, n, threads, [&](int64_t u64) {
    const Index u = static_cast<Index>(u64);
    auto cols = adj.RowCols(u);
    auto vals = adj.RowValues(u);
    const size_t at = static_cast<size_t>(row_ptr[static_cast<size_t>(u)]);
    const size_t nnz_u =
        static_cast<size_t>(row_ptr[static_cast<size_t>(u) + 1]) - at;
    audit::AuditSpan audit_c(col_idx.data() + at, nnz_u, "flow.col_idx");
    audit::AuditSpan audit_v(values.data() + at, nnz_u, "flow.values");
    // Mean incident weight (excluding any existing diagonal).
    Scalar sum = 0.0;
    Offset count = 0;
    Scalar existing_self = 0.0;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == u) {
        existing_self = vals[i];
        continue;
      }
      sum += vals[i];
      ++count;
    }
    const Scalar self =
        existing_self +
        self_loop_scale * (count > 0 ? sum / static_cast<Scalar>(count)
                                     : 1.0);
    // Merge the self-loop into the sorted row.
    size_t out = static_cast<size_t>(row_ptr[static_cast<size_t>(u)]);
    bool inserted = false;
    Scalar row_total = 0.0;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == u) {
        col_idx[out] = u;
        values[out++] = self;
        row_total += self;
        inserted = true;
      } else {
        if (!inserted && cols[i] > u) {
          col_idx[out] = u;
          values[out++] = self;
          row_total += self;
          inserted = true;
        }
        col_idx[out] = cols[i];
        values[out++] = vals[i];
        row_total += vals[i];
      }
    }
    if (!inserted) {
      col_idx[out] = u;
      values[out++] = self;
      row_total += self;
    }
    // Normalize the row in place.
    for (size_t i = static_cast<size_t>(row_ptr[static_cast<size_t>(u)]);
         i < out; ++i) {
      values[i] /= row_total;
    }
  });
  // Each row is the sorted source row with the diagonal merged in; validity
  // is checked in debug builds only so the parallel build stays O(nnz/p).
  CsrMatrix flow = CsrMatrix::FromPartsUnchecked(
      n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
  flow.ValidateStructure("BuildFlowMatrixFromAdjacency");
  return flow;
}

CsrMatrix BuildFlowMatrix(const UGraph& g, Scalar self_loop_scale,
                          int num_threads) {
  return BuildFlowMatrixFromAdjacency(g.adjacency(), self_loop_scale,
                                      num_threads);
}

Result<CsrMatrix> RmclIterate(CsrMatrix m, const CsrMatrix& mg,
                              const RmclOptions& options, int iterations) {
  if (m.rows() != mg.rows() || m.cols() != mg.cols()) {
    return Status::InvalidArgument("flow/graph matrix shape mismatch");
  }
  if (options.inflation <= 1.0) {
    return Status::InvalidArgument("inflation must be > 1");
  }
  const Index n = m.rows();
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(options.num_threads), std::max<Index>(n, 1)));
  StageSpan span(options.metrics, "rmcl");
  if (span.live()) {
    span.Metric("n", n);
    span.Metric("input_nnz", m.nnz());
    span.Metric("inflation", options.inflation);
    span.Metric("prune_threshold", options.prune_threshold);
    span.Metric("max_iterations", iterations);
  }
  std::vector<RmclWorkspace> workspaces(static_cast<size_t>(threads));
  std::vector<RmclRowResult> results(static_cast<size_t>(n));
  std::vector<Index> rep;
  std::vector<Index> reps;
  std::vector<Index> splits;
  bool converged = false;
  int iterations_run = 0;

  for (int iter = 0; iter < iterations; ++iter) {
    if (options.cancel != nullptr && options.cancel->Expired()) {
      return options.cancel->status();
    }
    StageSpan iter_span(options.metrics, "rmcl.iteration");
    iter_span.Metric("iteration", iter);
    const int64_t stamp_base = static_cast<int64_t>(iter) * n;
    for (auto& w : workspaces) w.ClearBuffers();
    // New row r depends only on old row r and the fixed M_G
    // (InflatePruneRow's collapse aside), so bitwise-identical rows of M
    // yield identical new rows: compute one row per group and copy it.
    GroupIdenticalRows(m, threads, rep, reps);
    // Pass 1: expand, inflate and prune each listed row into per-worker
    // buffers. Every result depends only on the row, so dynamic chunk
    // assignment cannot change it.
    auto compute_rows = [&](const std::vector<Index>& rows) {
      ParallelForWorkers(
          0, static_cast<int64_t>(rows.size()), threads, /*grain=*/0,
          [&](int worker, int64_t lo, int64_t hi) {
            // Chunk-granularity cancellation: a tripped deadline/memory
            // budget makes every remaining chunk a no-op, so the loop
            // drains within one chunk's worth of work per worker.
            if (options.cancel != nullptr && options.cancel->Expired()) {
              return;
            }
            RmclWorkspace& w = workspaces[static_cast<size_t>(worker)];
            w.EnsureSize(n);
            for (int64_t k = lo; k < hi; ++k) {
              const Index r = rows[static_cast<size_t>(k)];
              RmclRowResult& result = results[static_cast<size_t>(r)];
              audit::AuditSpan audit_result(&result, 1, "rmcl.row_result");
              const int64_t stamp = stamp_base + r;
              // Expansion: row r of M * M_G.
              Scalar* accum = w.accum.data();
              int64_t* marker = w.marker.data();
              Index* touched = w.touched.data();
              Index touched_count = 0;
              auto mcols = m.RowCols(r);
              auto mvals = m.RowValues(r);
              for (size_t i = 0; i < mcols.size(); ++i) {
                const Scalar mv = mvals[i];
                auto rcols = mg.RowCols(mcols[i]);
                auto rvals = mg.RowValues(mcols[i]);
                for (size_t j = 0; j < rcols.size(); ++j) {
                  const Index c = rcols[j];
                  if (marker[c] != stamp) {
                    marker[c] = stamp;
                    accum[c] = 0.0;
                    touched[touched_count++] = c;
                  }
                  accum[c] += mv * rvals[j];
                }
              }
              result.expanded = static_cast<int64_t>(touched_count);
              w.row_cols.assign(w.touched.begin(),
                                w.touched.begin() + touched_count);
              w.row_vals.resize(static_cast<size_t>(touched_count));
              for (Index i = 0; i < touched_count; ++i) {
                w.row_vals[static_cast<size_t>(i)] = accum[touched[i]];
              }
              result.collapsed =
                  InflatePruneRow(r, w.row_cols, w.row_vals, options,
                                  w.scratch);
              // L1 change of this row versus the previous flow (sorted
              // merge).
              Scalar diff = 0.0;
              size_t a = 0, b = 0;
              while (a < w.row_cols.size() || b < mcols.size()) {
                if (b >= mcols.size() ||
                    (a < w.row_cols.size() && w.row_cols[a] < mcols[b])) {
                  diff += std::abs(w.row_vals[a]);
                  ++a;
                } else if (a >= w.row_cols.size() || mcols[b] < w.row_cols[a]) {
                  diff += std::abs(mvals[b]);
                  ++b;
                } else {
                  diff += std::abs(w.row_vals[a] - mvals[b]);
                  ++a;
                  ++b;
                }
              }
              result.diff = diff;
              result.nnz = static_cast<Offset>(w.row_cols.size());
              result.worker = worker;
              result.pos = w.cols.size();
              w.cols.insert(w.cols.end(), w.row_cols.begin(),
                            w.row_cols.end());
              w.vals.insert(w.vals.end(), w.row_vals.begin(),
                            w.row_vals.end());
            }
          });
    };
    compute_rows(reps);
    // The underflow collapse reads the row index, so a group whose
    // representative collapsed splits: each member computes its own row.
    splits.clear();
    for (Index r = 0; r < n; ++r) {
      const Index s = rep[static_cast<size_t>(r)];
      if (s != r && results[static_cast<size_t>(s)].collapsed) {
        rep[static_cast<size_t>(r)] = r;
        splits.push_back(r);
      }
    }
    if (!splits.empty()) compute_rows(splits);
    // A cancelled pass 1 leaves partially-built buffers; abandon them
    // rather than assembling a half-computed flow matrix.
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return options.cancel->status();
    }
    // Serial prefix sum and residual reduction in row order, so the row
    // pointers and the convergence decision (and with it the iteration
    // count) are bit-identical for any thread count and any grouping.
    std::vector<Offset> new_row_ptr(static_cast<size_t>(n) + 1, 0);
    Scalar total_diff = 0.0;
    int64_t expanded_nnz = 0;
    for (Index r = 0; r < n; ++r) {
      const RmclRowResult& result =
          results[static_cast<size_t>(rep[static_cast<size_t>(r)])];
      new_row_ptr[static_cast<size_t>(r) + 1] =
          new_row_ptr[static_cast<size_t>(r)] + result.nnz;
      total_diff += result.diff;
      expanded_nnz += result.expanded;
    }
    // Pass 2: every row copies its group's buffered row to its final
    // offset.
    std::vector<Index> new_cols(static_cast<size_t>(new_row_ptr.back()));
    std::vector<Scalar> new_vals(static_cast<size_t>(new_row_ptr.back()));
    ParallelFor(0, n, threads, [&](int64_t r64) {
      const RmclRowResult& result =
          results[static_cast<size_t>(rep[static_cast<size_t>(r64)])];
      const RmclWorkspace& w = workspaces[static_cast<size_t>(result.worker)];
      const size_t k = static_cast<size_t>(result.nnz);
      const size_t at =
          static_cast<size_t>(new_row_ptr[static_cast<size_t>(r64)]);
      audit::AuditSpan audit_c(new_cols.data() + at, k, "rmcl.col_idx");
      audit::AuditSpan audit_v(new_vals.data() + at, k, "rmcl.values");
      std::copy_n(w.cols.begin() + static_cast<long>(result.pos), k,
                  new_cols.begin() + static_cast<long>(at));
      std::copy_n(w.vals.begin() + static_cast<long>(result.pos), k,
                  new_vals.begin() + static_cast<long>(at));
    });
    // Rows are sorted, deduplicated and in range by construction; skip the
    // O(nnz) validation pass that would otherwise serialize every
    // iteration.
    m = CsrMatrix::FromPartsUnchecked(n, n, std::move(new_row_ptr),
                                      std::move(new_cols),
                                      std::move(new_vals));
    m.ValidateStructure("RmclIterate");
    ++iterations_run;
    const Scalar residual = total_diff / static_cast<Scalar>(n);
    if (iter_span.live()) {
      iter_span.Metric("expanded_nnz", expanded_nnz);
      iter_span.Metric("rows_computed",
                       static_cast<int64_t>(reps.size() + splits.size()));
      iter_span.Metric("nnz", m.nnz());
      iter_span.Metric("residual", residual);
      iter_span.PerfMetric("workers", threads);
    }
    if (residual < options.convergence_tol) {
      converged = true;
      break;
    }
  }
  if (span.live()) {
    span.Metric("iterations_run", iterations_run);
    span.Metric("converged", static_cast<int64_t>(converged));
    span.Metric("output_nnz", m.nnz());
  }
  return m;
}

Clustering FlowToClustering(const CsrMatrix& m) {
  const Index n = m.rows();
  // Union vertices with their attractors; components become clusters.
  std::vector<Index> parent(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
  std::function<Index(Index)> find = [&](Index x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (Index r = 0; r < n; ++r) {
    auto cols = m.RowCols(r);
    auto vals = m.RowValues(r);
    Index best = -1;
    Scalar best_val = -1.0;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (vals[i] > best_val) {
        best_val = vals[i];
        best = cols[i];
      }
    }
    if (best == -1) continue;  // empty row -> singleton
    const Index ra = find(r);
    const Index rb = find(best);
    if (ra != rb) parent[static_cast<size_t>(ra)] = rb;
  }
  Clustering clustering(n);
  for (Index v = 0; v < n; ++v) clustering.Assign(v, find(v));
  clustering.Compact();
  return clustering;
}

Result<Clustering> Rmcl(const UGraph& g, const RmclOptions& options) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot cluster an empty graph");
  }
  CsrMatrix mg =
      BuildFlowMatrix(g, options.self_loop_scale, options.num_threads);
  DGC_ASSIGN_OR_RETURN(CsrMatrix flow,
                       RmclIterate(mg, mg, options, options.max_iterations));
  return FlowToClustering(flow);
}

Result<Clustering> RmclWarmStart(const UGraph& g,
                                 const CsrMatrix& previous_flow,
                                 std::span<const Index> touched_rows,
                                 const RmclOptions& options, int iterations,
                                 CsrMatrix* final_flow) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot cluster an empty graph");
  }
  const Index n = g.NumVertices();
  if (previous_flow.rows() != n || previous_flow.cols() != n) {
    return Status::InvalidArgument(
        "previous flow shape does not match the graph (warm starts require "
        "an unchanged vertex set)");
  }
  for (size_t i = 0; i < touched_rows.size(); ++i) {
    const Index r = touched_rows[i];
    if (r < 0 || r >= n) {
      return Status::OutOfRange("touched row out of range");
    }
    if (i > 0 && touched_rows[i - 1] >= r) {
      return Status::InvalidArgument(
          "touched rows must be sorted and unique");
    }
  }
  StageSpan span(options.metrics, "rmcl.warm_start");
  if (span.live()) {
    span.Metric("n", n);
    span.Metric("touched_rows", static_cast<int64_t>(touched_rows.size()));
  }
  CsrMatrix mg =
      BuildFlowMatrix(g, options.self_loop_scale, options.num_threads);

  // Seed M0: previous flow rows everywhere, fresh M_G rows on the touched
  // set.
  CsrMatrix m0 = previous_flow.SpliceRows(touched_rows, mg);
  DGC_ASSIGN_OR_RETURN(CsrMatrix flow,
                       RmclIterate(std::move(m0), mg, options, iterations));
  Clustering clustering = FlowToClustering(flow);
  if (span.live()) {
    span.Metric("num_clusters", clustering.NumClusters());
  }
  if (final_flow != nullptr) *final_flow = std::move(flow);
  return clustering;
}

}  // namespace dgc
