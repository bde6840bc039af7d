// IncrementalSymmetrizer: maintains a symmetrized graph under edge-delta
// batches, recomputing only the affected rows of the fused similarity
// product (docs/DYNAMIC.md).
//
// Correctness contract (enforced by tests/incremental_diff_test.cc): after
// every ApplyDelta, symmetrized() is byte-identical — row_ptr, col_idx, and
// value bit patterns — to Symmetrize() run from scratch on the updated
// graph, for all four methods and any thread count. The affected-row sets
// are supersets of the rows that actually change (the property pinned by
// tests/delta_property_test.cc); unlisted rows keep their cached bytes
// because every row kernel is a pure function of (inputs, row, options).
#pragma once

#include <span>
#include <vector>

#include "core/symmetrize.h"
#include "dynamic/delta.h"
#include "dynamic/dynamic_graph.h"
#include "graph/ugraph.h"
#include "util/result.h"

namespace dgc {

/// Per-update accounting, exported through the serve counters
/// (serve.incremental.rows_recomputed / rows_total).
struct IncrementalStats {
  /// Rows of the symmetric product recomputed by the last ApplyDelta (for
  /// the similarity methods, |affected(B) ∪ affected(C)|; n for the
  /// random-walk full recompute; 0 for an empty batch).
  Index rows_recomputed = 0;
  /// Total rows of the symmetrized matrix.
  Index rows_total = 0;
};

/// \brief Stateful incremental engine for one (graph, method, options)
/// stream.
///
/// Affected-row derivation per method (full argument in docs/DYNAMIC.md;
/// S = delta sources, T = delta destinations, both inserts and deletes;
/// in(X)/out(X) = neighborhoods in the UPDATED graph):
///   A+Aᵀ          row r changes iff r ∈ S ∪ T.
///   Bibliometric  coupling rows S ∪ in(T); co-citation rows T ∪ out(S) —
///                 one sparse frontier pass over Aᵀ (resp. A).
///   Degree-disc.  discounts change on S (out-degree) and T (in-degree),
///                 widening each frontier by one hop: coupling rows
///                 P ∪ in(Q), co-citation rows Q ∪ out(P), with
///                 P = S ∪ in(T) and Q = T ∪ out(S).
///   Random walk   the stationary distribution π is global, so every row
///                 can change: honest full recompute (rows_recomputed = n).
///
/// The stored options are normalized to the plain in-memory path
/// (out_of_core kOff) — tiling is bit-identical by the determinism
/// contract, so the maintained result
/// still matches a from-scratch run under the caller's original settings.
/// metrics/cancel are dropped: updates are row-sparse and short-lived, and
/// a per-request token must not dangle into a long-lived session (callers
/// wrap ApplyDelta in their own stage span — dgc_serve's "delta" span).
class IncrementalSymmetrizer {
 public:
  /// Seeds the stream with `g`: the delta in which every row is affected,
  /// run through the same code as ApplyDelta (last_stats() = {n, n}).
  static Result<IncrementalSymmetrizer> Create(
      const Digraph& g, SymmetrizationMethod method,
      const SymmetrizationOptions& options = {});

  /// Applies one batch atomically: validates it, updates (A, Aᵀ), computes
  /// the affected-row sets, recomputes only those rows of the cached upper
  /// triangles, and re-derives the symmetrized graph. On error the graph
  /// and cached result are unchanged. An empty batch is an exact no-op
  /// (rows_recomputed = 0).
  Status ApplyDelta(const EdgeDeltaBatch& batch);

  /// The maintained symmetrized graph (byte-identical to from-scratch).
  const UGraph& symmetrized() const { return result_; }
  const DynamicGraph& graph() const { return graph_; }
  SymmetrizationMethod method() const { return method_; }
  const SymmetrizationOptions& options() const { return options_; }
  const IncrementalStats& last_stats() const { return stats_; }

  /// Sorted union of the affected-row sets of the last ApplyDelta — a
  /// proven superset of the rows whose symmetrized values changed
  /// (tests/delta_property_test.cc). Also the warm-start re-seed set for
  /// RmclWarmStart. Empty after an empty batch.
  std::span<const Index> last_affected_rows() const { return last_affected_; }

 private:
  IncrementalSymmetrizer() = default;

  /// Recomputes the rows `batch` affects (every row when null, which is
  /// what Create runs) and sets stats_ and last_affected_.
  Status Recompute(const EdgeDeltaBatch* batch);
  /// Splices rows `rows` of drop_diag(A + Aᵀ) into result_.
  Status UpdateAPlusAtRows(std::span<const Index> rows);
  /// Similarity methods: derives the affected rows of B and C from `batch`
  /// (every row when null), recomputes and splices them into the cached
  /// triangles, and re-sums the triangles into result_.
  Status UpdateSimilarityRows(const EdgeDeltaBatch* batch);

  DynamicGraph graph_;
  SymmetrizationMethod method_ = SymmetrizationMethod::kAPlusAT;
  SymmetrizationOptions options_;
  UGraph result_;
  /// Similarity methods only: cached upper triangles of the coupling
  /// (B = M Mᵀ) and co-citation (C = Nᵀ N) products, spliced per delta.
  CsrMatrix b_upper_;
  CsrMatrix c_upper_;
  IncrementalStats stats_;
  std::vector<Index> last_affected_;
};

}  // namespace dgc
