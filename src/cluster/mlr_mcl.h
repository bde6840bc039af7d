// MLR-MCL: Multi-Level Regularized Markov CLustering
// (Satuluri-Parthasarathy, KDD 2009) — the paper's main stage-2 clusterer.
// The graph is coarsened by heavy-edge matching; R-MCL runs to convergence
// on the coarsest graph; the flow matrix is then projected level by level
// to the finer graphs, with a curtailed number of R-MCL iterations at each,
// which both speeds up convergence and regularizes the flow.
#pragma once

#include <cstdint>

#include "cluster/coarsen.h"
#include "cluster/mcl.h"
#include "cluster/merge_small.h"
#include "graph/clustering.h"
#include "graph/ugraph.h"
#include "util/result.h"

namespace dgc {

struct MlrMclOptions {
  RmclOptions rmcl;
  /// Coarsening schedule.
  CoarsenOptions coarsen;
  /// R-MCL iterations on the coarsest graph.
  int coarsest_iterations = 40;
  /// Curtailed R-MCL iterations at each finer level.
  int iterations_per_level = 12;
  /// Extra iterations at the finest level (on top of iterations_per_level).
  int finest_extra_iterations = 8;
  /// Merge clusters smaller than this into their strongest neighbor after
  /// extraction (0 disables). Flow clustering of sparse graphs fragments
  /// into tiny attractor basins; this approximates MLR-MCL's balance
  /// mechanism.
  Index min_cluster_size = 0;
  uint64_t seed = 23;

  /// Optional observability sink (obs/metrics.h), propagated into the
  /// coarsening and R-MCL stages (overriding rmcl.metrics/coarsen.metrics,
  /// the way `seed` is propagated). When non-null MlrMcl records spans for
  /// coarsening, the coarsest solve and each refinement level; when null —
  /// the default — no instrumentation runs at all.
  MetricsRegistry* metrics = nullptr;

  /// Optional cooperative cancellation (util/budget.h), propagated into the
  /// R-MCL stage (overriding rmcl.cancel, like `metrics`) and polled
  /// between coarsening, projection and refinement stages; a tripped
  /// deadline/memory budget aborts with the token's status. Null — the
  /// default — adds no overhead.
  CancelToken* cancel = nullptr;
};

/// \brief Clusters g with MLR-MCL. The number of output clusters is
/// controlled indirectly via options.rmcl.inflation (Section 4.2 of the
/// paper): sweep the inflation to sweep cluster granularity.
///
/// Flow rows are shared through refinement (see ProjectFlow), so all
/// descendants of one coarsest vertex keep one row and one attractor. The
/// clusters are therefore unions of coarsest-level vertices (before
/// `min_cluster_size` merging), and the finest level holds at most as many
/// distinct flow rows as the coarsest graph has vertices.
///
/// When `final_flow` is non-null the converged finest-level flow matrix is
/// moved into it after label extraction, so callers can warm-start a later
/// run (RmclWarmStart) after an edge delta without redoing the multilevel
/// solve. Passing nullptr — the default — changes nothing.
Result<Clustering> MlrMcl(const UGraph& g, const MlrMclOptions& options = {},
                          CsrMatrix* final_flow = nullptr);

/// \brief Projects a coarse flow matrix to the finer level: fine vertex i
/// inherits its parent's flow row, with each coarse column's mass split
/// equally among that supernode's children. Rows remain stochastic.
/// Row-parallel (num_threads follows the 0 = hardware-concurrency
/// convention); output is bit-identical for every thread count.
///
/// Siblings (children of one supernode) get identical rows, and R-MCL
/// keeps identical rows identical (mcl.h), so they never separate again
/// unless every inflated value of their row underflows.
Result<CsrMatrix> ProjectFlow(const CsrMatrix& coarse_flow,
                              const std::vector<Index>& to_coarser,
                              Index num_fine, int num_threads = 1);

}  // namespace dgc
