#include "dynamic/incremental.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "linalg/spgemm.h"
#include "util/logging.h"

namespace dgc {
namespace {

/// result = base ∪ (∪_{s ∈ seeds} m.RowCols(s)), sorted unique. The sparse
/// frontier pass of the affected-row derivation: with m = Aᵀ this is "base
/// plus every in-neighbor of a seed", with m = A "plus every out-neighbor".
std::vector<Index> UnionWithNeighbors(std::span<const Index> base,
                                      std::span<const Index> seeds,
                                      const CsrMatrix& m,
                                      std::vector<char>& mark) {
  std::vector<Index> out;
  out.reserve(base.size());
  for (Index v : base) {
    if (!mark[static_cast<size_t>(v)]) {
      mark[static_cast<size_t>(v)] = 1;
      out.push_back(v);
    }
  }
  for (Index s : seeds) {
    for (Index c : m.RowCols(s)) {
      if (!mark[static_cast<size_t>(c)]) {
        mark[static_cast<size_t>(c)] = 1;
        out.push_back(c);
      }
    }
  }
  for (Index v : out) mark[static_cast<size_t>(v)] = 0;  // reset for reuse
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Index> SortedUnion(std::span<const Index> a,
                               std::span<const Index> b) {
  std::vector<Index> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Sorted unique sources and destinations of all batch operations (inserts
/// AND deletes — a deleted edge's endpoints are delta endpoints too).
void CollectEndpoints(const EdgeDeltaBatch& batch,
                      std::vector<Index>* sources,
                      std::vector<Index>* dests) {
  sources->clear();
  dests->clear();
  for (const Edge& e : batch.inserts) {
    sources->push_back(e.src);
    dests->push_back(e.dst);
  }
  for (const EdgeKey& e : batch.deletes) {
    sources->push_back(e.src);
    dests->push_back(e.dst);
  }
  std::sort(sources->begin(), sources->end());
  sources->erase(std::unique(sources->begin(), sources->end()),
                 sources->end());
  std::sort(dests->begin(), dests->end());
  dests->erase(std::unique(dests->begin(), dests->end()), dests->end());
}

std::vector<Index> AllRows(Index n) {
  std::vector<Index> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), Index{0});
  return rows;
}

}  // namespace

Result<IncrementalSymmetrizer> IncrementalSymmetrizer::Create(
    const Digraph& g, SymmetrizationMethod method,
    const SymmetrizationOptions& options) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot symmetrize an empty graph");
  }
  IncrementalSymmetrizer s;
  s.method_ = method;
  // Normalize to the plain in-memory path; tiling is bit-identical (the
  // determinism contract), so the maintained result still matches a
  // from-scratch run under any tiling setting. metrics/cancel are per-call
  // concerns that must not outlive a request into this long-lived object.
  s.options_ = options;
  s.options_.out_of_core = OutOfCoreMode::kOff;
  s.options_.metrics = nullptr;
  s.options_.cancel = nullptr;
  s.options_.max_memory_bytes = 0;
  s.options_.tile_rows = 0;
  s.options_.spill_dir.clear();
  DGC_ASSIGN_OR_RETURN(s.graph_, DynamicGraph::FromDigraph(g));
  // Create is the delta in which every row is affected: the result and the
  // cached triangles start empty and every row is recomputed and spliced
  // in, through the same code as ApplyDelta.
  const Index n = s.graph_.NumVertices();
  DGC_ASSIGN_OR_RETURN(s.result_, UGraph::FromSymmetricAdjacency(
                                      CsrMatrix::Zero(n, n),
                                      /*drop_self_loops=*/true));
  s.b_upper_ = CsrMatrix::Zero(n, n);
  s.c_upper_ = CsrMatrix::Zero(n, n);
  DGC_RETURN_IF_ERROR(s.Recompute(nullptr));
  return s;
}

Status IncrementalSymmetrizer::ApplyDelta(const EdgeDeltaBatch& batch) {
  if (batch.empty()) {
    // Exact no-op: nothing validated against the graph changes, nothing is
    // recomputed, the cached result keeps its bytes.
    const Index n = graph_.NumVertices();
    DGC_RETURN_IF_ERROR(batch.Validate(n));
    stats_ = IncrementalStats{0, n};
    last_affected_.clear();
    return Status::OK();
  }
  DGC_RETURN_IF_ERROR(graph_.Apply(batch));
  return Recompute(&batch);
}

Status IncrementalSymmetrizer::Recompute(const EdgeDeltaBatch* batch) {
  const Index n = graph_.NumVertices();
  switch (method_) {
    case SymmetrizationMethod::kAPlusAT: {
      // Row r of U = drop_diag(A + Aᵀ) is a pure function of A row r and
      // Aᵀ row r, so it changes only for r ∈ S ∪ T.
      std::vector<Index> rows;
      if (batch == nullptr) {
        rows = AllRows(n);
      } else {
        std::vector<Index> sources;
        std::vector<Index> dests;
        CollectEndpoints(*batch, &sources, &dests);
        rows = SortedUnion(sources, dests);
      }
      DGC_RETURN_IF_ERROR(UpdateAPlusAtRows(rows));
      last_affected_ = std::move(rows);
      break;
    }
    case SymmetrizationMethod::kRandomWalk: {
      // π couples every row to every edge; claiming locality here would be
      // wrong, so every update is an honest full recompute.
      DGC_ASSIGN_OR_RETURN(Digraph d, graph_.ToDigraph());
      DGC_ASSIGN_OR_RETURN(result_, SymmetrizeRandomWalk(d, options_));
      last_affected_ = AllRows(n);
      break;
    }
    case SymmetrizationMethod::kBibliometric:
    case SymmetrizationMethod::kDegreeDiscounted:
      DGC_RETURN_IF_ERROR(UpdateSimilarityRows(batch));
      break;
  }
  stats_ = IncrementalStats{static_cast<Index>(last_affected_.size()), n};
  return Status::OK();
}

Status IncrementalSymmetrizer::UpdateAPlusAtRows(
    std::span<const Index> rows) {
  const Index n = graph_.NumVertices();
  const CsrMatrix& a = graph_.adjacency();
  const CsrMatrix& at = graph_.transpose();
  SpGemmOptions merge_options;  // threshold 0 keeps every entry
  merge_options.drop_diagonal = true;
  std::vector<Offset> row_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<Index> cols;
  std::vector<Scalar> vals;
  size_t next = 0;
  for (Index r = 0; r < n; ++r) {
    if (next < rows.size() && rows[next] == r) {
      MergeRowSum(a, at, r, r, merge_options, cols, vals);
      ++next;
    }
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(cols.size());
  }
  const CsrMatrix patch = CsrMatrix::FromPartsUnchecked(
      n, n, std::move(row_ptr), std::move(cols), std::move(vals));
  patch.ValidateStructure("IncrementalSymmetrizer::UpdateAPlusAtRows");
  DGC_ASSIGN_OR_RETURN(
      result_, UGraph::FromSymmetricAdjacency(
                   result_.adjacency().SpliceRows(rows, patch),
                   /*drop_self_loops=*/true));
  return Status::OK();
}

Status IncrementalSymmetrizer::UpdateSimilarityRows(
    const EdgeDeltaBatch* batch) {
  const Index n = graph_.NumVertices();
  CsrMatrix a_store;
  CsrMatrix at_store;
  const CsrMatrix* a = &graph_.adjacency();
  const CsrMatrix* at = &graph_.transpose();
  if (options_.add_self_loops) {
    DGC_ASSIGN_OR_RETURN(a_store, graph_.adjacency().PlusIdentity());
    at_store = a_store.Transpose(options_.num_threads);
    a = &a_store;
    at = &at_store;
  }

  std::vector<Index> aff_b;
  std::vector<Index> aff_c;
  if (batch == nullptr) {
    aff_b = AllRows(n);
    aff_c = aff_b;
  } else {
    // Affected-row derivation (docs/DYNAMIC.md). Frontiers run over the
    // UPDATED graph: an old-only neighbor reached through a deleted edge is
    // that edge's endpoint, hence already in S or T. With add_self_loops
    // the frontiers use A+I, whose diagonal adds each seed to its own
    // neighborhood — a harmless superset.
    std::vector<Index> sources;
    std::vector<Index> dests;
    CollectEndpoints(*batch, &sources, &dests);
    std::vector<char> mark(static_cast<size_t>(n), 0);
    // P = S ∪ in(T): coupling rows whose factor row changed. Q = T ∪ out(S):
    // the co-citation mirror image.
    aff_b = UnionWithNeighbors(sources, dests, *at, mark);
    aff_c = UnionWithNeighbors(dests, sources, *a, mark);
    if (method_ == SymmetrizationMethod::kDegreeDiscounted) {
      // Discount factors change on S (out-degree) and T (in-degree), so a
      // coupling row is also affected when any of its product terms
      // crosses a column whose factor row changed — one more frontier hop.
      std::vector<Index> p = std::move(aff_b);
      std::vector<Index> q = std::move(aff_c);
      aff_b = UnionWithNeighbors(p, q, *at, mark);
      aff_c = UnionWithNeighbors(q, p, *a, mark);
    }
  }

  // The static symmetrizer's recipe over the affected rows: the same
  // scales and prune split, the same row kernel, the same merge.
  const SimilarityScales scales =
      ComputeSimilarityScales(*a, method_, options_);
  const ProductSumOptions split =
      SplitProductSumThreshold(options_.prune_threshold, options_.num_threads);
  DGC_ASSIGN_OR_RETURN(
      b_upper_,
      SpGemmAAtSymmetricUpdateRows(*a, scales.so, scales.sqrt_si,
                                   split.product, *at, aff_b, b_upper_));
  DGC_ASSIGN_OR_RETURN(
      c_upper_,
      SpGemmAAtSymmetricUpdateRows(*at, scales.si, scales.sqrt_so,
                                   split.product, *a, aff_c, c_upper_));
  DGC_ASSIGN_OR_RETURN(CsrMatrix u,
                       SpGemmSymmetricSum(b_upper_, c_upper_, split.sum));
  u.ValidateStructure("IncrementalSymmetrizer::UpdateSimilarityRows");
  DGC_ASSIGN_OR_RETURN(result_,
                       UGraph::FromSymmetricAdjacency(
                           std::move(u), /*drop_self_loops=*/true));
  last_affected_ = SortedUnion(aff_b, aff_c);
  return Status::OK();
}

}  // namespace dgc
