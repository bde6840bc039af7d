// The paper's contribution: transformations from a directed graph G to a
// weighted undirected graph G_U suitable for off-the-shelf clustering
// (Section 3). Four methods:
//
//   A + Aᵀ              (Section 3.1)  drop directionality, sum reciprocal
//                                       edge weights
//   Random walk         (Section 3.2)  U = (ΠP + PᵀΠ)/2; Ncut-preserving
//                                       per Gleich 2006
//   Bibliometric        (Section 3.3)  U = AAᵀ + AᵀA; common out-links +
//                                       common in-links
//   Degree-discounted   (Section 3.4)  U = Do^{-α} A Di^{-β} Aᵀ Do^{-α}
//                                         + Di^{-β} Aᵀ Do^{-α} A Di^{-β}
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/discount.h"
#include "graph/digraph.h"
#include "graph/ugraph.h"
#include "linalg/power_iteration.h"
#include "util/budget.h"
#include "util/result.h"

namespace dgc {

class MetricsRegistry;

/// Identifies a symmetrization method.
enum class SymmetrizationMethod {
  kAPlusAT,
  kRandomWalk,
  kBibliometric,
  kDegreeDiscounted,
};

/// Display name matching the paper's figure legends ("A+A'", "Random Walk",
/// "Bibliometric", "Degree-discounted").
std::string_view SymmetrizationMethodName(SymmetrizationMethod method);

/// Parses a name (case-insensitive; accepts "a+at", "rw", "biblio", "dd",
/// and the full names). NotFound on unknown input.
Result<SymmetrizationMethod> ParseSymmetrizationMethod(std::string_view name);

/// All four methods, in the paper's presentation order.
inline constexpr SymmetrizationMethod kAllSymmetrizations[] = {
    SymmetrizationMethod::kAPlusAT,
    SymmetrizationMethod::kRandomWalk,
    SymmetrizationMethod::kBibliometric,
    SymmetrizationMethod::kDegreeDiscounted,
};

/// When the similarity products run out of core (docs/OUT_OF_CORE.md):
/// row-block tiles through the same row kernels with a disk spool instead
/// of full in-memory intermediates. The tiled path produces bit-identical
/// graphs at any thread count and tile size — the mode only changes the
/// peak memory footprint, never the result.
enum class OutOfCoreMode {
  /// Tile when `max_memory_bytes` is set and the conservative in-memory
  /// estimate exceeds it (the budget *adapts* instead of aborting). The
  /// default; without a budget this never tiles.
  kAuto,
  /// Never tile. A set budget falls back to PR 5 semantics: the in-memory
  /// kernels abort with kResourceExhausted when the estimate trips at
  /// charge time.
  kOff,
  /// Always plan tiles for the similarity products (tests/benches); a plan
  /// that comes out as one tile still runs in memory.
  kForce,
};

/// Options shared by the symmetrizations.
struct SymmetrizationOptions {
  /// Entries of the symmetrized matrix with value < prune_threshold are
  /// dropped (Section 3.5 / Table 2). Applies to the similarity-based
  /// methods (Bibliometric, Degree-discounted); A+Aᵀ and Random walk keep
  /// the input edge set by construction.
  Scalar prune_threshold = 0.0;

  /// Set A := A + I before the product (Section 3.3: "ensures that edges in
  /// the input graph will not be removed from the symmetrized version").
  bool add_self_loops = false;

  /// Out-degree discount (the paper's alpha); kPower 0.5 is the headline
  /// configuration. Used by Degree-discounted only.
  DiscountSpec out_discount = DiscountSpec::Power(0.5);
  /// In-degree discount (the paper's beta). Used by Degree-discounted only.
  DiscountSpec in_discount = DiscountSpec::Power(0.5);

  /// Teleport/tolerance for the stationary distribution. Used by Random
  /// walk only; the paper uses teleport 0.05 (Section 4.2).
  PageRankOptions pagerank;

  /// Row-parallelism for the similarity products; 1 (the default) matches
  /// the paper's single-threaded setup, 0 uses one thread per hardware
  /// core. The symmetrized graph is bit-identical for every setting.
  int num_threads = 1;

  /// Optional observability sink (obs/metrics.h). When non-null each
  /// symmetrization records a stage span with input/output nnz, the prune
  /// threshold and pruned-entry counts; when null — the
  /// default — no instrumentation runs at all.
  MetricsRegistry* metrics = nullptr;

  /// Optional cooperative cancellation (util/budget.h), propagated into
  /// every similarity-product kernel so a tripped deadline/memory budget
  /// aborts the symmetrization within one ParallelFor chunk with the
  /// token's status. Null — the default — adds no overhead. Cancellation is
  /// all-or-nothing: completed runs are bit-identical with or without a
  /// token.
  CancelToken* cancel = nullptr;

  /// Out-of-core control for the similarity products (Bibliometric and
  /// Degree-discounted). See OutOfCoreMode; kAuto + a budget degrades
  /// to tiling instead of aborting. The output is bit-identical either
  /// way.
  OutOfCoreMode out_of_core = OutOfCoreMode::kAuto;
  /// Directory for spill files (empty = system temp directory).
  std::string spill_dir;
  /// Fixed tile height in rows for the tiled path (0 = derive from
  /// `max_memory_bytes`). Tests and benches pin this to force tiling
  /// geometry; kForce with 0 derives from the budget or a default.
  Index tile_rows = 0;
  /// Memory budget in bytes that drives the kAuto decision and the
  /// budget→tile-size derivation. The pipeline copies
  /// ResourceBudget::max_memory_bytes here; standalone callers may set it
  /// directly. 0 = no budget (kAuto never tiles).
  int64_t max_memory_bytes = 0;
};

/// U = A + Aᵀ. Reciprocal edge pairs sum their weights (Section 3.1).
/// Options are accepted for the shared `metrics` sink; the method itself
/// has no tuning knobs (it keeps the input edge set by construction).
Result<UGraph> SymmetrizeAPlusAT(const Digraph& g,
                                 const SymmetrizationOptions& options = {});

/// U = (ΠP + PᵀΠ)/2 with P the row-stochastic walk matrix and Π = diag(π)
/// its stationary distribution (Section 3.2). Undirected Ncut on U equals
/// directed Ncut on G for every vertex subset (Gleich 2006).
Result<UGraph> SymmetrizeRandomWalk(const Digraph& g,
                                    const SymmetrizationOptions& options = {});

/// U = AAᵀ + AᵀA, the sum of bibliographic coupling (Kessler 1963) and
/// co-citation (Small 1973) matrices (Section 3.3).
Result<UGraph> SymmetrizeBibliometric(
    const Digraph& g, const SymmetrizationOptions& options = {});

/// The degree-discounted similarity U_d = B_d + C_d of Section 3.4, with
///   B_d = So A Si Aᵀ So   (out-link similarity; So, Si from the discounts)
///   C_d = Si Aᵀ So A Si   (in-link similarity)
/// where So = diag(discount(out-degree)) and Si = diag(discount(in-degree)).
/// With power discounts this is Eq. 6-8 of the paper.
Result<UGraph> SymmetrizeDegreeDiscounted(
    const Digraph& g, const SymmetrizationOptions& options = {});

/// Dispatches on `method`.
Result<UGraph> Symmetrize(const Digraph& g, SymmetrizationMethod method,
                          const SymmetrizationOptions& options = {});

/// The two scaled factor matrices of a similarity symmetrization, such that
/// U = M Mᵀ + Nᵀ N. For Degree-discounted, M = So A sqrt(Si) and
/// N = sqrt(So) A Si; for Bibliometric both equal A. Exposed so that
/// sampling-based threshold selection (Section 5.3.1) can compute individual
/// similarity rows without materializing U.
struct SimilarityFactors {
  CsrMatrix m;  ///< out-link factor: out-similarity = M Mᵀ
  CsrMatrix n;  ///< in-link factor: in-similarity = Nᵀ N
};

/// The per-vertex scales of the fused similarity product over A (A + I
/// with add_self_loops): B = upper(So A Si Aᵀ So) runs over (A, Aᵀ) with
/// row scale `so` and column scale `sqrt_si`, C = upper(Si Aᵀ So A Si)
/// over (Aᵀ, A) with `si` and `sqrt_so`. All four are empty (factor 1) for
/// Bibliometric. The one recipe behind the static symmetrizer and the
/// incremental engine (dynamic/incremental.h).
struct SimilarityScales {
  std::vector<Scalar> so;
  std::vector<Scalar> sqrt_si;
  std::vector<Scalar> si;
  std::vector<Scalar> sqrt_so;
};
SimilarityScales ComputeSimilarityScales(const CsrMatrix& a,
                                         SymmetrizationMethod method,
                                         const SymmetrizationOptions& options);

/// Builds the factor matrices for `method` (kBibliometric or
/// kDegreeDiscounted only; InvalidArgument otherwise).
Result<SimilarityFactors> BuildSimilarityFactors(
    const Digraph& g, SymmetrizationMethod method,
    const SymmetrizationOptions& options = {});

/// \brief The degree-discounted similarity of a single node pair, computed
/// directly from the definition (Section 3.4). O(dout(i)+dout(j)+din(i)+
/// din(j)) given the precomputed transpose (only the discount factors of
/// i, j and their common neighbours are evaluated); used for spot queries
/// and as a test oracle for the matrix path. `a_transpose` must equal
/// g.adjacency().Transpose() — batch callers compute it once instead of
/// paying an O(nnz) transpose per query.
Scalar DegreeDiscountedSimilarity(const Digraph& g,
                                  const CsrMatrix& a_transpose, Index i,
                                  Index j, const DiscountSpec& out_discount,
                                  const DiscountSpec& in_discount);

/// Convenience overload for one-off queries: materializes the transpose
/// internally (O(nnz) per call — prefer the overload above in loops).
Scalar DegreeDiscountedSimilarity(const Digraph& g, Index i, Index j,
                                  const DiscountSpec& out_discount,
                                  const DiscountSpec& in_discount);

}  // namespace dgc
