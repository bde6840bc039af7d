// The paper's two-stage framework (Figure 2): symmetrize the directed
// graph, then cluster the resulting undirected graph with a pluggable
// algorithm. This is the top-level convenience API most examples and
// benchmark harnesses use.
#pragma once

#include <string_view>

#include "cluster/graclus.h"
#include "cluster/mlr_mcl.h"
#include "cluster/partition_metis.h"
#include "core/symmetrize.h"
#include "graph/clustering.h"
#include "graph/digraph.h"
#include "graph/ugraph.h"
#include "util/budget.h"
#include "util/result.h"

namespace dgc {

class MetricsRegistry;

/// Stage-2 clustering algorithm selector.
enum class ClusterAlgorithm {
  kMlrMcl,
  kMetis,
  kGraclus,
};

std::string_view ClusterAlgorithmName(ClusterAlgorithm algorithm);

struct PipelineOptions {
  SymmetrizationMethod method = SymmetrizationMethod::kDegreeDiscounted;
  SymmetrizationOptions symmetrization;
  ClusterAlgorithm algorithm = ClusterAlgorithm::kMlrMcl;
  /// Options for whichever stage-2 algorithm is selected.
  MlrMclOptions mlr_mcl;
  MetisOptions metis;
  GraclusOptions graclus;
  /// Convenience thread count for the whole pipeline. When != 1 it
  /// overrides symmetrization.num_threads and mlr_mcl.rmcl.num_threads
  /// (0 = one thread per hardware core). The default 1 leaves the
  /// per-stage settings untouched and preserves the paper's
  /// single-threaded timing semantics. Clustering results are
  /// bit-identical for every setting.
  int num_threads = 1;

  /// Optional observability sink (obs/metrics.h). When non-null the
  /// pipeline records a span tree covering both stages — symmetrization
  /// nnz/prune counters, kernel spans, per-iteration MLR-MCL stats — which
  /// obs/report.h can serialize to JSON. The pointer is propagated to every
  /// per-stage options struct (overriding their own `metrics` fields, like
  /// num_threads). Null — the default — disables all instrumentation at
  /// zero cost.
  MetricsRegistry* metrics = nullptr;

  /// Resource limits for the whole run (util/budget.h). When any limit is
  /// set and `cancel` is null, the pipeline arms an internal CancelToken
  /// with this budget at entry and threads it through both stages; an
  /// exceeded budget aborts within one ParallelFor chunk and the pipeline
  /// returns Status(kDeadlineExceeded / kResourceExhausted). When `metrics`
  /// is attached, the spans recorded up to the abort remain in the registry,
  /// so the run report still shows where time went (the partial span tree).
  /// An unlimited budget — the default — adds zero overhead.
  ///
  /// Memory semantics since the out-of-core path (docs/OUT_OF_CORE.md):
  /// `max_memory_bytes` is copied into the symmetrization stage, whose
  /// fused similarity products *adapt* — they degrade to budget-sized
  /// row tiles with a disk spool instead of aborting — while every other
  /// charge keeps the abort semantics above. Tiled runs are bit-identical
  /// to unbudgeted runs.
  ResourceBudget budget;

  /// Directory for out-of-core spill files (empty = system temp
  /// directory). Copied into symmetrization.spill_dir, mirroring
  /// num_threads/metrics.
  std::string spill_dir;

  /// Optional caller-owned cancellation token. When non-null it is used
  /// as-is (the caller is responsible for arming it; `budget` is ignored)
  /// and propagated to every stage, which allows one token to govern
  /// several pipeline runs or to be tripped externally via Cancel().
  CancelToken* cancel = nullptr;
};

struct PipelineResult {
  UGraph symmetrized;
  Clustering clustering;
  Index num_clusters = 0;
  double symmetrize_seconds = 0.0;
  double cluster_seconds = 0.0;
};

/// Runs stage 1 + stage 2 and reports per-stage wall-clock times (the
/// quantities plotted in Figures 6b, 8 and 9).
Result<PipelineResult> SymmetrizeAndCluster(const Digraph& g,
                                            const PipelineOptions& options);

/// Stage 2 only: clusters an already-symmetrized graph.
Result<Clustering> ClusterUGraph(const UGraph& g,
                                 const PipelineOptions& options);

/// \brief Stage 2 over a symmetrized graph produced earlier (and possibly
/// elsewhere): the cache-hit entry point used by `dgc_serve`
/// (docs/SERVING.md) when a content-addressed cache lookup supplies the
/// stage-1 output.
///
/// Records the same top-level "pipeline" span as SymmetrizeAndCluster so
/// run reports from cold and cached runs share one shape, but with
/// symmetrize="cached" stamped on it instead of a "symmetrize" child span
/// — the absence of that child is how reports (and the serve tests) prove
/// the SpGEMM was skipped. Budget/cancellation semantics are identical to
/// SymmetrizeAndCluster.
///
/// The returned result's `symmetrized` member is left empty and
/// `symmetrize_seconds` is 0: callers on this path already hold the graph
/// (typically via a shared cache entry), and copying it per request would
/// defeat the cache.
Result<PipelineResult> ClusterPresymmetrized(const UGraph& g,
                                             const PipelineOptions& options);

}  // namespace dgc
