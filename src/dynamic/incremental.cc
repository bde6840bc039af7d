#include "dynamic/incremental.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "core/discount.h"
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
  DGC_RETURN_IF_ERROR(s.RecomputeAll());
  const Index n = s.graph_.NumVertices();
  s.stats_ = IncrementalStats{n, n};
  s.last_affected_.resize(static_cast<size_t>(n));
  std::iota(s.last_affected_.begin(), s.last_affected_.end(), Index{0});
  return s;
}

Status IncrementalSymmetrizer::RecomputeAll() {
  DGC_ASSIGN_OR_RETURN(Digraph d, graph_.ToDigraph());
  switch (method_) {
    case SymmetrizationMethod::kAPlusAT: {
      DGC_ASSIGN_OR_RETURN(result_, SymmetrizeAPlusAT(d, options_));
      return Status::OK();
    }
    case SymmetrizationMethod::kRandomWalk: {
      DGC_ASSIGN_OR_RETURN(result_, SymmetrizeRandomWalk(d, options_));
      return Status::OK();
    }
    case SymmetrizationMethod::kBibliometric:
    case SymmetrizationMethod::kDegreeDiscounted:
      break;
  }

  // Similarity methods: replicate the fused recipe while keeping both
  // upper triangles for later splicing. The exact call sequence mirrors
  // SymmetricProductSum's one-tile case, so the triangles — and the
  // summed, mirrored result — are bit-identical to Symmetrize().
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

  SpGemmOptions product_options;
  product_options.threshold = options_.prune_threshold / 2.0;
  product_options.drop_diagonal = true;
  product_options.num_threads = options_.num_threads;

  if (method_ == SymmetrizationMethod::kDegreeDiscounted) {
    const std::vector<Offset> out_deg = a->RowCounts();
    const std::vector<Offset> in_deg = a->ColCounts();
    const std::vector<Scalar> so =
        DiscountFactors(out_deg, options_.out_discount);
    const std::vector<Scalar> si =
        DiscountFactors(in_deg, options_.in_discount);
    const std::vector<Scalar> sqrt_so = Sqrt(so);
    const std::vector<Scalar> sqrt_si = Sqrt(si);
    DGC_ASSIGN_OR_RETURN(
        b_upper_, SpGemmAAtSymmetric(*a, so, sqrt_si, product_options, at));
    DGC_ASSIGN_OR_RETURN(
        c_upper_, SpGemmAAtSymmetric(*at, si, sqrt_so, product_options, a));
  } else {
    DGC_ASSIGN_OR_RETURN(
        b_upper_, SpGemmAAtSymmetric(*a, {}, {}, product_options, at));
    DGC_ASSIGN_OR_RETURN(
        c_upper_, SpGemmAAtSymmetric(*at, {}, {}, product_options, a));
  }

  SpGemmOptions sum_options;
  sum_options.threshold = options_.prune_threshold;
  sum_options.drop_diagonal = true;
  sum_options.num_threads = options_.num_threads;
  DGC_ASSIGN_OR_RETURN(CsrMatrix u,
                       SpGemmSymmetricSum(b_upper_, c_upper_, sum_options));
  u.ValidateStructure("IncrementalSymmetrizer::RecomputeAll");
  DGC_ASSIGN_OR_RETURN(result_,
                       UGraph::FromSymmetricAdjacency(
                           std::move(u), /*drop_self_loops=*/true));
  return Status::OK();
}

Status IncrementalSymmetrizer::ApplyDelta(const EdgeDeltaBatch& batch) {
  const Index n = graph_.NumVertices();
  if (batch.empty()) {
    // Exact no-op: nothing validated against the graph changes, nothing is
    // recomputed, the cached result keeps its bytes.
    DGC_RETURN_IF_ERROR(batch.Validate(n));
    stats_ = IncrementalStats{0, n};
    last_affected_.clear();
    return Status::OK();
  }
  DGC_RETURN_IF_ERROR(graph_.Apply(batch));
  switch (method_) {
    case SymmetrizationMethod::kAPlusAT:
      return ApplyAPlusAtDelta(batch);
    case SymmetrizationMethod::kRandomWalk: {
      // π couples every row to every edge; claiming locality here would be
      // wrong, so the update is an honest full recompute.
      DGC_RETURN_IF_ERROR(RecomputeAll());
      stats_ = IncrementalStats{n, n};
      last_affected_.resize(static_cast<size_t>(n));
      std::iota(last_affected_.begin(), last_affected_.end(), Index{0});
      return Status::OK();
    }
    case SymmetrizationMethod::kBibliometric:
    case SymmetrizationMethod::kDegreeDiscounted:
      return ApplySimilarityDelta(batch);
  }
  return Status::Internal("unreachable symmetrization method");
}

Status IncrementalSymmetrizer::ApplyAPlusAtDelta(const EdgeDeltaBatch& batch) {
  const Index n = graph_.NumVertices();
  std::vector<Index> sources;
  std::vector<Index> dests;
  CollectEndpoints(batch, &sources, &dests);
  const std::vector<Index> touched = SortedUnion(sources, dests);

  // Row r of U = drop_diag(A + Aᵀ) is a pure function of A row r and Aᵀ
  // row r, so it changes only for r ∈ S ∪ T. Recompute those rows with the
  // exact CsrMatrix::Add merge (a-operand first on ties) minus the
  // diagonal, then splice.
  const CsrMatrix& a = graph_.adjacency();
  const CsrMatrix& at = graph_.transpose();
  const CsrMatrix& base = result_.adjacency();
  std::vector<Offset> patch_nnz;
  std::vector<Index> patch_cols;
  std::vector<Scalar> patch_vals;
  patch_nnz.reserve(touched.size());
  for (Index r : touched) {
    const size_t before = patch_cols.size();
    auto ac = a.RowCols(r);
    auto av = a.RowValues(r);
    auto tc = at.RowCols(r);
    auto tv = at.RowValues(r);
    size_t i = 0, j = 0;
    while (i < ac.size() || j < tc.size()) {
      Index col;
      Scalar v;
      if (j >= tc.size() || (i < ac.size() && ac[i] < tc[j])) {
        col = ac[i];
        v = av[i];
        ++i;
      } else if (i >= ac.size() || tc[j] < ac[i]) {
        col = tc[j];
        v = tv[j];
        ++j;
      } else {
        col = ac[i];
        v = av[i] + tv[j];
        ++i;
        ++j;
      }
      if (col == r) continue;  // FromSymmetricAdjacency drops self-loops
      patch_cols.push_back(col);
      patch_vals.push_back(v);
    }
    patch_nnz.push_back(static_cast<Offset>(patch_cols.size() - before));
  }

  // Serial splice of the patched rows into the cached adjacency.
  std::vector<Offset> row_ptr(static_cast<size_t>(n) + 1, 0);
  size_t next = 0;
  for (Index r = 0; r < n; ++r) {
    const bool patched = next < touched.size() && touched[next] == r;
    const Offset nnz_r =
        patched ? patch_nnz[next++] : base.RowNnz(r);
    row_ptr[static_cast<size_t>(r) + 1] = row_ptr[static_cast<size_t>(r)] +
                                          nnz_r;
  }
  std::vector<Index> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<Scalar> values(static_cast<size_t>(row_ptr.back()));
  next = 0;
  Offset patch_at = 0;
  for (Index r = 0; r < n; ++r) {
    const Offset dst = row_ptr[static_cast<size_t>(r)];
    if (next < touched.size() && touched[next] == r) {
      const Offset k = patch_nnz[next];
      std::copy_n(patch_cols.begin() + static_cast<long>(patch_at), k,
                  col_idx.begin() + static_cast<long>(dst));
      std::copy_n(patch_vals.begin() + static_cast<long>(patch_at), k,
                  values.begin() + static_cast<long>(dst));
      patch_at += k;
      ++next;
    } else {
      auto cols = base.RowCols(r);
      auto vals = base.RowValues(r);
      std::copy_n(cols.begin(), cols.size(),
                  col_idx.begin() + static_cast<long>(dst));
      std::copy_n(vals.begin(), vals.size(),
                  values.begin() + static_cast<long>(dst));
    }
  }
  CsrMatrix spliced = CsrMatrix::FromPartsUnchecked(
      n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
  spliced.ValidateStructure("IncrementalSymmetrizer::ApplyAPlusAtDelta");
  DGC_ASSIGN_OR_RETURN(result_,
                       UGraph::FromSymmetricAdjacency(
                           std::move(spliced), /*drop_self_loops=*/true));
  stats_ = IncrementalStats{static_cast<Index>(touched.size()), n};
  last_affected_ = touched;
  return Status::OK();
}

Status IncrementalSymmetrizer::ApplySimilarityDelta(
    const EdgeDeltaBatch& batch) {
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

  // Affected-row derivation (docs/DYNAMIC.md). Frontiers run over the
  // UPDATED graph: an old-only neighbor reached through a deleted edge is
  // that edge's endpoint, hence already in S or T. With add_self_loops the
  // frontiers use A+I, whose diagonal adds each seed to its own
  // neighborhood — a harmless superset.
  std::vector<Index> sources;
  std::vector<Index> dests;
  CollectEndpoints(batch, &sources, &dests);
  std::vector<char> mark(static_cast<size_t>(n), 0);
  // P = S ∪ in(T): coupling rows whose factor row changed. Q = T ∪ out(S):
  // the co-citation mirror image.
  const std::vector<Index> p = UnionWithNeighbors(sources, dests, *at, mark);
  const std::vector<Index> q = UnionWithNeighbors(dests, sources, *a, mark);
  std::vector<Index> aff_b = p;
  std::vector<Index> aff_c = q;
  if (method_ == SymmetrizationMethod::kDegreeDiscounted) {
    // Discount factors change on S (out-degree) and T (in-degree), so a
    // coupling row is also affected when any of its product terms crosses
    // a column whose factor row changed — one more frontier hop.
    aff_b = UnionWithNeighbors(p, q, *at, mark);
    aff_c = UnionWithNeighbors(q, p, *a, mark);
  }

  SpGemmOptions product_options;
  product_options.threshold = options_.prune_threshold / 2.0;
  product_options.drop_diagonal = true;
  product_options.num_threads = options_.num_threads;

  if (method_ == SymmetrizationMethod::kDegreeDiscounted) {
    const std::vector<Offset> out_deg = a->RowCounts();
    const std::vector<Offset> in_deg = a->ColCounts();
    const std::vector<Scalar> so =
        DiscountFactors(out_deg, options_.out_discount);
    const std::vector<Scalar> si =
        DiscountFactors(in_deg, options_.in_discount);
    const std::vector<Scalar> sqrt_so = Sqrt(so);
    const std::vector<Scalar> sqrt_si = Sqrt(si);
    DGC_ASSIGN_OR_RETURN(
        b_upper_, SpGemmAAtSymmetricUpdateRows(*a, so, sqrt_si,
                                               product_options, *at, aff_b,
                                               b_upper_));
    DGC_ASSIGN_OR_RETURN(
        c_upper_, SpGemmAAtSymmetricUpdateRows(*at, si, sqrt_so,
                                               product_options, *a, aff_c,
                                               c_upper_));
  } else {
    DGC_ASSIGN_OR_RETURN(
        b_upper_, SpGemmAAtSymmetricUpdateRows(*a, {}, {}, product_options,
                                               *at, aff_b, b_upper_));
    DGC_ASSIGN_OR_RETURN(
        c_upper_, SpGemmAAtSymmetricUpdateRows(*at, {}, {}, product_options,
                                               *a, aff_c, c_upper_));
  }

  SpGemmOptions sum_options;
  sum_options.threshold = options_.prune_threshold;
  sum_options.drop_diagonal = true;
  sum_options.num_threads = options_.num_threads;
  DGC_ASSIGN_OR_RETURN(CsrMatrix u,
                       SpGemmSymmetricSum(b_upper_, c_upper_, sum_options));
  u.ValidateStructure("IncrementalSymmetrizer::ApplySimilarityDelta");
  DGC_ASSIGN_OR_RETURN(result_,
                       UGraph::FromSymmetricAdjacency(
                           std::move(u), /*drop_self_loops=*/true));
  last_affected_ = SortedUnion(aff_b, aff_c);
  stats_ = IncrementalStats{static_cast<Index>(last_affected_.size()), n};
  return Status::OK();
}

}  // namespace dgc
