// The similarity symmetrizations (Sections 3.3-3.5): U = M Mᵀ + Nᵀ N,
// with Bibliometric the undiscounted case of Degree-discounted. Both run
// through one driver: one shared transpose, the scale vectors, then
// SymmetricProductSum (linalg/spgemm_tiled.h), which runs the in-memory
// kernels for a one-tile plan and the spooled tile loop otherwise.
#include <span>
#include <vector>

#include "core/symmetrize.h"
#include "linalg/spgemm_tiled.h"
#include "obs/span.h"

namespace dgc {

namespace {

/// True when the similarity products should run tiled. kAuto tiles exactly
/// when a budget is set and the conservative in-memory estimate exceeds it
/// — the "degrade to tiling instead of kResourceExhausted" contract
/// (docs/OUT_OF_CORE.md). The choice never changes the output, only the
/// peak footprint.
bool ShouldTile(const CsrMatrix& a, const CsrMatrix& at,
                const SymmetrizationOptions& options) {
  switch (options.out_of_core) {
    case OutOfCoreMode::kOff:
      return false;
    case OutOfCoreMode::kForce:
      return true;
    case OutOfCoreMode::kAuto:
      return options.max_memory_bytes > 0 &&
             EstimateInMemorySymmetricSumBytes(a, at, options.num_threads) >
                 options.max_memory_bytes;
  }
  return false;
}

/// The one similarity symmetrizer. B = So A Si Aᵀ So is the AAᵀ pattern on
/// A; C = Si Aᵀ So A Si is the same pattern on Aᵀ (whose inverted index is
/// A itself), so the single transpose serves both products. Bibliometric
/// passes no scales (factor 1). Pruning each product at threshold / 2 and
/// the sum at the full threshold loses only entries whose exact value is
/// already below the threshold plus an addend-level epsilon — how the paper
/// keeps the intermediates tractable (Section 3.5).
Result<UGraph> SymmetrizeSimilarity(const Digraph& g,
                                    SymmetrizationMethod method,
                                    const SymmetrizationOptions& options) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot symmetrize an empty graph");
  }
  StageSpan span(options.metrics, "symmetrize");
  span.Metric("method", SymmetrizationMethodName(method));
  span.Metric("input_vertices", g.NumVertices());
  span.Metric("input_arcs", g.NumEdges());
  span.Metric("prune_threshold", options.prune_threshold);
  // A, Aᵀ and the scales are freed before FromSymmetricAdjacency makes its
  // pruned copy of U, so they never share that memory peak.
  CsrMatrix u;
  {
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
    const SimilarityScales scales =
        ComputeSimilarityScales(a, method, options);
    TiledSymmetricSumOptions sum_options;
    sum_options.threshold = options.prune_threshold;
    sum_options.num_threads = options.num_threads;
    // Not tiling pins a one-tile plan: the in-memory kernels.
    sum_options.tile_rows = ShouldTile(a, at, options) ? options.tile_rows
                                                       : a.rows();
    sum_options.max_memory_bytes = options.max_memory_bytes;
    sum_options.spill_dir = options.spill_dir;
    sum_options.metrics = options.metrics;
    sum_options.cancel = options.cancel;
    DGC_ASSIGN_OR_RETURN(
        u, SymmetricProductSum(a, at, scales.so, scales.sqrt_si, scales.si,
                               scales.sqrt_so, sum_options));
  }
  u.ValidateStructure("SymmetrizeSimilarity");
  DGC_ASSIGN_OR_RETURN(
      UGraph ug, UGraph::FromSymmetricAdjacency(std::move(u),
                                                /*drop_self_loops=*/true));
  span.Metric("output_nnz", ug.adjacency().nnz());
  span.Metric("output_edges", ug.NumEdges());
  return ug;
}

}  // namespace

SimilarityScales ComputeSimilarityScales(const CsrMatrix& a,
                                         SymmetrizationMethod method,
                                         const SymmetrizationOptions& options) {
  SimilarityScales scales;
  if (method != SymmetrizationMethod::kDegreeDiscounted) return scales;
  // Per-entry factors (a·so_i)·√si_k for B and (aᵀ·si_i)·√so_k for C: the
  // multiplication order BuildSimilarityFactors bakes into M and N.
  scales.so = DiscountFactors(a.RowCounts(), options.out_discount);
  scales.si = DiscountFactors(a.ColCounts(), options.in_discount);
  scales.sqrt_so = Sqrt(scales.so);
  scales.sqrt_si = Sqrt(scales.si);
  return scales;
}

Result<UGraph> SymmetrizeBibliometric(const Digraph& g,
                                      const SymmetrizationOptions& options) {
  return SymmetrizeSimilarity(g, SymmetrizationMethod::kBibliometric,
                              options);
}

Result<UGraph> SymmetrizeDegreeDiscounted(
    const Digraph& g, const SymmetrizationOptions& options) {
  return SymmetrizeSimilarity(g, SymmetrizationMethod::kDegreeDiscounted,
                              options);
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
  // (its "row" factor in Aᵀ coordinates is si) — so the literal formula
  // over these factors is bit-identical to the fused symmetrization.
  CsrMatrix n = std::move(a);
  n.ScaleCols(si);
  n.ScaleRows(Sqrt(so));
  return SimilarityFactors{std::move(m), std::move(n)};
}

Scalar DegreeDiscountedSimilarity(const Digraph& g,
                                  const CsrMatrix& a_transpose, Index i,
                                  Index j, const DiscountSpec& out_discount,
                                  const DiscountSpec& in_discount) {
  // Only the factors the pair touches: the out/in-degree of a vertex is its
  // row length in A / Aᵀ.
  const CsrMatrix& a = g.adjacency();
  auto so = [&](Index v) { return DiscountFactor(a.RowNnz(v), out_discount); };
  auto si = [&](Index v) {
    return DiscountFactor(a_transpose.RowNnz(v), in_discount);
  };

  // Out-link similarity: sum over common out-neighbors k, discounted by the
  // in-degree of k and the out-degrees of i and j (Figure 3 intuition).
  auto intersect_sum = [](std::span<const Index> c1,
                          std::span<const Scalar> v1,
                          std::span<const Index> c2,
                          std::span<const Scalar> v2, auto mid_scale) {
    Scalar acc = 0.0;
    size_t p = 0, q = 0;
    while (p < c1.size() && q < c2.size()) {
      if (c1[p] < c2[q]) {
        ++p;
      } else if (c2[q] < c1[p]) {
        ++q;
      } else {
        acc += v1[p] * v2[q] * mid_scale(c1[p]);
        ++p;
        ++q;
      }
    }
    return acc;
  };

  const Scalar bd = so(i) * so(j) *
                    intersect_sum(a.RowCols(i), a.RowValues(i), a.RowCols(j),
                                  a.RowValues(j), si);
  const Scalar cd =
      si(i) * si(j) *
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
