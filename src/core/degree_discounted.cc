#include <algorithm>
#include <vector>

#include "core/out_of_core.h"
#include "core/symmetrize.h"
#include "linalg/spgemm.h"
#include "linalg/spgemm_tiled.h"
#include "linalg/vector_ops.h"
#include "obs/span.h"

namespace dgc {

namespace {

/// The reference Degree-discounted path, kept as the correctness oracle for
/// the fused kernels: materialize the scaled factor copies, run two full
/// SpGEMMs, then separate Add and Pruned passes (six full-size
/// intermediates).
Result<CsrMatrix> DegreeDiscountedReference(
    const Digraph& g, const SymmetrizationOptions& options) {
  DGC_ASSIGN_OR_RETURN(
      SimilarityFactors factors,
      BuildSimilarityFactors(g, SymmetrizationMethod::kDegreeDiscounted,
                             options));

  SpGemmOptions product_options;
  product_options.threshold = options.prune_threshold / 2.0;
  product_options.drop_diagonal = true;
  product_options.num_threads = options.num_threads;
  product_options.metrics = options.metrics;
  product_options.cancel = options.cancel;

  DGC_ASSIGN_OR_RETURN(CsrMatrix bd, SpGemmAAt(factors.m, product_options));
  DGC_ASSIGN_OR_RETURN(CsrMatrix cd, SpGemmAtA(factors.n, product_options));

  DGC_ASSIGN_OR_RETURN(CsrMatrix u, CsrMatrix::Add(bd, cd));
  if (options.prune_threshold > 0.0) {
    StageSpan prune_span(options.metrics, "prune");
    const Offset before = u.nnz();
    u = u.Pruned(options.prune_threshold, /*drop_diagonal=*/true);
    prune_span.Metric("pruned_entries", before - u.nnz());
  }
  return u;
}

/// The fused symmetry-exploiting path (the default): one shared transpose
/// of A, upper-triangle products with the discounts applied on the fly, and
/// a fused add + prune + mirror. B_d = So A Si Aᵀ So is the AAt pattern on
/// A; C_d = Si Aᵀ So A Si is the same pattern on Aᵀ (whose inverted index
/// is A itself), so the single transpose serves both products.
Result<CsrMatrix> DegreeDiscountedFused(const Digraph& g,
                                        const SymmetrizationOptions& options) {
  CsrMatrix a = g.adjacency();
  if (options.add_self_loops) {
    DGC_ASSIGN_OR_RETURN(a, a.PlusIdentity());
  }
  CsrMatrix at;
  {
    StageSpan transpose_span(options.metrics, "transpose");
    at = a.Transpose(options.num_threads);
    transpose_span.Metric("nnz", at.nnz());
  }
  const std::vector<Offset> out_deg = a.RowCounts();
  const std::vector<Offset> in_deg = a.ColCounts();
  const std::vector<Scalar> so = DiscountFactors(out_deg, options.out_discount);
  const std::vector<Scalar> si = DiscountFactors(in_deg, options.in_discount);
  const std::vector<Scalar> sqrt_so = Sqrt(so);
  const std::vector<Scalar> sqrt_si = Sqrt(si);

  // Out-of-core: when the budget (or kForce) asks for it, the whole
  // product-sum runs tiled with a disk spool. Tiles reuse the per-row
  // kernels below with unchanged inner k-order, so the result is
  // bit-identical to the in-memory branch.
  if (core_internal::ShouldTileSimilarity(a, at, options)) {
    return TiledSymmetricProductSum(
        a, at, so, sqrt_si, si, sqrt_so,
        core_internal::MakeTiledSimilarityOptions(options));
  }

  SpGemmOptions product_options;
  product_options.threshold = options.prune_threshold / 2.0;
  product_options.drop_diagonal = true;
  product_options.num_threads = options.num_threads;
  product_options.metrics = options.metrics;
  product_options.cancel = options.cancel;

  // Upper triangles of B_d (out-link similarity, factor (a·so_i)·√si_k) and
  // C_d (in-link similarity, factor (aᵀ·si_i)·√so_k) — the same per-entry
  // multiplication order BuildSimilarityFactors bakes into M and N, so both
  // triangles are bit-identical to the reference products.
  DGC_ASSIGN_OR_RETURN(
      CsrMatrix bd_upper,
      SpGemmAAtSymmetric(a, so, sqrt_si, product_options, &at));
  DGC_ASSIGN_OR_RETURN(
      CsrMatrix cd_upper,
      SpGemmAAtSymmetric(at, si, sqrt_so, product_options, &a));

  SpGemmOptions sum_options;
  sum_options.threshold = options.prune_threshold;
  sum_options.drop_diagonal = true;
  sum_options.num_threads = options.num_threads;
  sum_options.metrics = options.metrics;
  sum_options.cancel = options.cancel;
  return SpGemmSymmetricSum(bd_upper, cd_upper, sum_options);
}

}  // namespace

Result<UGraph> SymmetrizeDegreeDiscounted(
    const Digraph& g, const SymmetrizationOptions& options) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot symmetrize an empty graph");
  }
  StageSpan span(options.metrics, "symmetrize");
  span.Metric("method", SymmetrizationMethodName(
                            SymmetrizationMethod::kDegreeDiscounted));
  span.Metric("input_vertices", g.NumVertices());
  span.Metric("input_arcs", g.NumEdges());
  span.Metric("prune_threshold", options.prune_threshold);
  span.Metric("engine", options.engine == SimilarityEngine::kFused
                            ? "fused"
                            : "reference");
  DGC_ASSIGN_OR_RETURN(CsrMatrix u,
                       options.engine == SimilarityEngine::kFused
                           ? DegreeDiscountedFused(g, options)
                           : DegreeDiscountedReference(g, options));
  u.ValidateStructure("SymmetrizeDegreeDiscounted");
  DGC_ASSIGN_OR_RETURN(
      UGraph ug, UGraph::FromSymmetricAdjacency(std::move(u),
                                                /*drop_self_loops=*/true));
  span.Metric("output_nnz", ug.adjacency().nnz());
  span.Metric("output_edges", ug.NumEdges());
  return ug;
}

Result<SimilarityFactors> BuildSimilarityFactors(
    const Digraph& g, SymmetrizationMethod method,
    const SymmetrizationOptions& options) {
  if (method != SymmetrizationMethod::kBibliometric &&
      method != SymmetrizationMethod::kDegreeDiscounted) {
    return Status::InvalidArgument(
        "similarity factors exist only for Bibliometric and "
        "Degree-discounted symmetrizations");
  }
  CsrMatrix a = g.adjacency();
  if (options.add_self_loops) {
    DGC_ASSIGN_OR_RETURN(a, a.PlusIdentity());
  }
  if (method == SymmetrizationMethod::kBibliometric) {
    return SimilarityFactors{a, a};
  }
  // Discounts are functions of the *unweighted* in/out degrees, per the
  // paper's D_o / D_i diagonal degree matrices.
  const std::vector<Offset> out_deg = a.RowCounts();
  const std::vector<Offset> in_deg = a.ColCounts();
  const std::vector<Scalar> so = DiscountFactors(out_deg, options.out_discount);
  const std::vector<Scalar> si = DiscountFactors(in_deg, options.in_discount);

  // B_d = So A Si Aᵀ So = M Mᵀ with M = So A sqrt(Si): the inner discount
  // splits across the two A factors, the outer applies per row.
  CsrMatrix m = a;
  m.ScaleRows(so);
  m.ScaleCols(Sqrt(si));
  // C_d = Si Aᵀ So A Si = Nᵀ N with N = sqrt(So) A Si. The column scaling
  // is applied first so that every entry of N carries the multiplication
  // order (a·si_j)·√so_k — the order the fused kernel evaluates on the fly
  // (its "row" factor in Aᵀ coordinates is si) — keeping the reference and
  // fused paths bit-identical.
  CsrMatrix n = std::move(a);
  n.ScaleCols(si);
  n.ScaleRows(Sqrt(so));
  return SimilarityFactors{std::move(m), std::move(n)};
}

Scalar DegreeDiscountedSimilarity(const Digraph& g,
                                  const CsrMatrix& a_transpose, Index i,
                                  Index j, const DiscountSpec& out_discount,
                                  const DiscountSpec& in_discount) {
  const CsrMatrix& a = g.adjacency();
  const std::vector<Offset> out_deg = a.RowCounts();
  const std::vector<Offset> in_deg = a.ColCounts();
  const std::vector<Scalar> so = DiscountFactors(out_deg, out_discount);
  const std::vector<Scalar> si = DiscountFactors(in_deg, in_discount);

  // Out-link similarity: sum over common out-neighbors k, discounted by the
  // in-degree of k and the out-degrees of i and j (Figure 3 intuition).
  auto intersect_sum = [](std::span<const Index> c1,
                          std::span<const Scalar> v1,
                          std::span<const Index> c2,
                          std::span<const Scalar> v2,
                          const std::vector<Scalar>& mid_scale) {
    Scalar acc = 0.0;
    size_t p = 0, q = 0;
    while (p < c1.size() && q < c2.size()) {
      if (c1[p] < c2[q]) {
        ++p;
      } else if (c2[q] < c1[p]) {
        ++q;
      } else {
        acc += v1[p] * v2[q] * mid_scale[static_cast<size_t>(c1[p])];
        ++p;
        ++q;
      }
    }
    return acc;
  };

  const Scalar bd = so[static_cast<size_t>(i)] * so[static_cast<size_t>(j)] *
                    intersect_sum(a.RowCols(i), a.RowValues(i), a.RowCols(j),
                                  a.RowValues(j), si);
  const Scalar cd =
      si[static_cast<size_t>(i)] * si[static_cast<size_t>(j)] *
      intersect_sum(a_transpose.RowCols(i), a_transpose.RowValues(i),
                    a_transpose.RowCols(j), a_transpose.RowValues(j), so);
  return bd + cd;
}

Scalar DegreeDiscountedSimilarity(const Digraph& g, Index i, Index j,
                                  const DiscountSpec& out_discount,
                                  const DiscountSpec& in_discount) {
  return DegreeDiscountedSimilarity(g, g.adjacency().Transpose(), i, j,
                                    out_discount, in_discount);
}

}  // namespace dgc
