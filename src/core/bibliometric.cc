#include "core/symmetrize.h"

#include "core/out_of_core.h"
#include "linalg/spgemm.h"
#include "linalg/spgemm_tiled.h"
#include "obs/span.h"

namespace dgc {

namespace {

/// Reference Bibliometric path (correctness oracle for the fused kernels):
/// two full SpGEMMs against freshly materialized transposes, then separate
/// Add and Pruned passes.
Result<CsrMatrix> BibliometricReference(const CsrMatrix& a,
                                        const SymmetrizationOptions& options,
                                        const SpGemmOptions& product_options) {
  DGC_ASSIGN_OR_RETURN(CsrMatrix coupling, SpGemmAAt(a, product_options));
  DGC_ASSIGN_OR_RETURN(CsrMatrix cocitation, SpGemmAtA(a, product_options));
  DGC_ASSIGN_OR_RETURN(CsrMatrix u, CsrMatrix::Add(coupling, cocitation));
  if (options.prune_threshold > 0.0) {
    StageSpan prune_span(options.metrics, "prune");
    const Offset before = u.nnz();
    u = u.Pruned(options.prune_threshold, /*drop_diagonal=*/true);
    prune_span.Metric("pruned_entries", before - u.nnz());
  }
  return u;
}

/// Fused Bibliometric path (the default): AAᵀ and AᵀA are both symmetric,
/// so only their upper triangles are computed (no scaling needed —
/// Bibliometric's factors are A itself), against one shared transpose: the
/// coupling product AAᵀ indexes into Aᵀ, and the co-citation product AᵀA is
/// the AAt pattern on Aᵀ whose inverted index is A. The sum, final prune
/// and mirror happen in one fused pass.
Result<CsrMatrix> BibliometricFused(const CsrMatrix& a,
                                    const SymmetrizationOptions& options,
                                    const SpGemmOptions& product_options) {
  CsrMatrix at;
  {
    StageSpan transpose_span(options.metrics, "transpose");
    at = a.Transpose(options.num_threads);
    transpose_span.Metric("nnz", at.nnz());
  }
  // Out-of-core: budget-driven (or forced) tiled execution of both
  // triangles + the fused sum, bit-identical to the in-memory branch
  // (docs/OUT_OF_CORE.md).
  if (core_internal::ShouldTileSimilarity(a, at, options)) {
    return TiledSymmetricProductSum(
        a, at, {}, {}, {}, {},
        core_internal::MakeTiledSimilarityOptions(options));
  }
  DGC_ASSIGN_OR_RETURN(CsrMatrix coupling_upper,
                       SpGemmAAtSymmetric(a, {}, {}, product_options, &at));
  DGC_ASSIGN_OR_RETURN(CsrMatrix cocitation_upper,
                       SpGemmAAtSymmetric(at, {}, {}, product_options, &a));
  SpGemmOptions sum_options;
  sum_options.threshold = options.prune_threshold;
  sum_options.drop_diagonal = true;
  sum_options.num_threads = options.num_threads;
  sum_options.metrics = options.metrics;
  sum_options.cancel = options.cancel;
  return SpGemmSymmetricSum(coupling_upper, cocitation_upper, sum_options);
}

}  // namespace

Result<UGraph> SymmetrizeBibliometric(const Digraph& g,
                                      const SymmetrizationOptions& options) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot symmetrize an empty graph");
  }
  StageSpan span(options.metrics, "symmetrize");
  span.Metric("method",
              SymmetrizationMethodName(SymmetrizationMethod::kBibliometric));
  span.Metric("input_vertices", g.NumVertices());
  span.Metric("input_arcs", g.NumEdges());
  span.Metric("prune_threshold", options.prune_threshold);
  span.Metric("engine", options.engine == SimilarityEngine::kFused
                            ? "fused"
                            : "reference");
  CsrMatrix a = g.adjacency();
  if (options.add_self_loops) {
    DGC_ASSIGN_OR_RETURN(a, a.PlusIdentity());
  }
  // Pruning note: an entry of U = AAᵀ + AᵀA can only reach the threshold if
  // at least one of its two addends reaches threshold/2, so pruning each
  // product at threshold/2 and the sum at the full threshold loses only
  // entries whose exact value is already below the threshold plus an
  // addend-level epsilon. This mirrors how the paper keeps the intermediate
  // matrices tractable (Section 3.5).
  SpGemmOptions product_options;
  product_options.threshold = options.prune_threshold / 2.0;
  product_options.drop_diagonal = true;
  product_options.num_threads = options.num_threads;
  product_options.metrics = options.metrics;
  product_options.cancel = options.cancel;

  DGC_ASSIGN_OR_RETURN(
      CsrMatrix u, options.engine == SimilarityEngine::kFused
                       ? BibliometricFused(a, options, product_options)
                       : BibliometricReference(a, options, product_options));
  u.ValidateStructure("SymmetrizeBibliometric");
  DGC_ASSIGN_OR_RETURN(
      UGraph ug, UGraph::FromSymmetricAdjacency(std::move(u),
                                                /*drop_self_loops=*/true));
  span.Metric("output_nnz", ug.adjacency().nnz());
  span.Metric("output_edges", ug.NumEdges());
  return ug;
}

}  // namespace dgc
