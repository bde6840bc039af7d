#include "cluster/pipeline.h"

#include "obs/span.h"
#include "util/timer.h"

namespace dgc {

std::string_view ClusterAlgorithmName(ClusterAlgorithm algorithm) {
  switch (algorithm) {
    case ClusterAlgorithm::kMlrMcl:
      return "MLR-MCL";
    case ClusterAlgorithm::kMetis:
      return "Metis";
    case ClusterAlgorithm::kGraclus:
      return "Graclus";
  }
  return "?";
}

namespace {

/// Applies the pipeline-wide num_threads and metrics overrides to the
/// per-stage options (num_threads is a no-op at the default of 1, so
/// explicit per-stage settings survive; a non-null pipeline metrics sink
/// always wins, so one registry collects the whole run).
PipelineOptions ResolveOverrides(const PipelineOptions& options) {
  PipelineOptions resolved = options;
  if (options.num_threads != 1) {
    resolved.symmetrization.num_threads = options.num_threads;
    resolved.mlr_mcl.rmcl.num_threads = options.num_threads;
  }
  if (options.metrics != nullptr) {
    resolved.symmetrization.metrics = options.metrics;
    resolved.mlr_mcl.metrics = options.metrics;
  }
  if (resolved.cancel != nullptr) {
    resolved.symmetrization.cancel = resolved.cancel;
    resolved.mlr_mcl.cancel = resolved.cancel;
  }
  // Out-of-core plumbing: the budget's memory cap drives the
  // symmetrization's auto-tiling decision (and its budget→tile-size
  // derivation); the spill directory rides along. Explicit per-stage
  // settings survive, mirroring num_threads.
  if (options.budget.max_memory_bytes > 0 &&
      resolved.symmetrization.max_memory_bytes == 0) {
    resolved.symmetrization.max_memory_bytes = options.budget.max_memory_bytes;
  }
  if (!options.spill_dir.empty() &&
      resolved.symmetrization.spill_dir.empty()) {
    resolved.symmetrization.spill_dir = options.spill_dir;
  }
  return resolved;
}

/// Picks the token governing this run: the caller's token when provided
/// (used as-is), else `local` armed with the pipeline budget when one is
/// set, else none. `local` must outlive the run.
CancelToken* ResolveCancel(const PipelineOptions& options,
                           CancelToken* local) {
  if (options.cancel != nullptr) return options.cancel;
  if (options.budget.unlimited()) return nullptr;
  local->Arm(options.budget);
  return local;
}

/// Stamps the terminal status onto the stage span so a budget-aborted run's
/// partial span tree records why it ended.
void RecordStatus(StageSpan& span, const Status& status) {
  if (!span.live()) return;
  span.Metric("status", StatusCodeToString(status.code()));
}

Result<Clustering> ClusterResolved(const UGraph& g,
                                   const PipelineOptions& resolved) {
  StageSpan span(resolved.metrics, "cluster");
  span.Metric("algorithm", ClusterAlgorithmName(resolved.algorithm));
  span.Metric("input_vertices", g.NumVertices());
  span.Metric("input_nnz", g.adjacency().nnz());
  Result<Clustering> clustering = [&]() -> Result<Clustering> {
    switch (resolved.algorithm) {
      case ClusterAlgorithm::kMlrMcl:
        return MlrMcl(g, resolved.mlr_mcl);
      case ClusterAlgorithm::kMetis:
        return MetisPartition(g, resolved.metis);
      case ClusterAlgorithm::kGraclus:
        return GraclusCluster(g, resolved.graclus);
    }
    return Status::InvalidArgument("unknown clustering algorithm");
  }();
  if (clustering.ok()) {
    span.Metric("num_clusters", clustering->NumClusters());
  }
  return clustering;
}

}  // namespace

Result<Clustering> ClusterUGraph(const UGraph& g,
                                 const PipelineOptions& options) {
  CancelToken local_token;
  PipelineOptions armed = options;
  armed.cancel = ResolveCancel(options, &local_token);
  return ClusterResolved(g, ResolveOverrides(armed));
}

Result<PipelineResult> ClusterPresymmetrized(const UGraph& g,
                                             const PipelineOptions& options) {
  CancelToken local_token;
  PipelineOptions armed = options;
  armed.cancel = ResolveCancel(options, &local_token);
  const PipelineOptions resolved = ResolveOverrides(armed);

  StageSpan pipeline_span(resolved.metrics, "pipeline");
  pipeline_span.Metric("method", SymmetrizationMethodName(resolved.method));
  pipeline_span.Metric("algorithm",
                       ClusterAlgorithmName(resolved.algorithm));
  pipeline_span.Metric("input_vertices", g.NumVertices());
  pipeline_span.Metric("input_arcs", g.NumArcs());
  // The cold path gets a "symmetrize" child span from stage 1; this path
  // deliberately has none — the annotation says why, and reports prove the
  // SpGEMM never ran.
  pipeline_span.Metric("symmetrize", "cached");

  PipelineResult result;
  WallTimer timer;
  Result<Clustering> clustering = ClusterResolved(g, resolved);
  if (!clustering.ok()) {
    RecordStatus(pipeline_span, clustering.status());
    return clustering.status();
  }
  result.clustering = std::move(*clustering);
  result.cluster_seconds = timer.ElapsedSeconds();
  result.num_clusters = result.clustering.NumClusters();
  pipeline_span.Metric("num_clusters", result.num_clusters);
  RecordStatus(pipeline_span, Status::OK());
  return result;
}

Result<PipelineResult> SymmetrizeAndCluster(const Digraph& g,
                                            const PipelineOptions& options) {
  // Budget governance: arm a run-local token unless the caller supplied
  // one. The token pointer rides the same override path as metrics, so
  // every stage down to the SpGEMM row loops polls the same trip state.
  CancelToken local_token;
  PipelineOptions armed = options;
  armed.cancel = ResolveCancel(options, &local_token);
  const PipelineOptions resolved = ResolveOverrides(armed);

  StageSpan pipeline_span(resolved.metrics, "pipeline");
  pipeline_span.Metric("method", SymmetrizationMethodName(resolved.method));
  pipeline_span.Metric("algorithm",
                       ClusterAlgorithmName(resolved.algorithm));
  pipeline_span.Metric("input_vertices", g.NumVertices());
  pipeline_span.Metric("input_arcs", g.NumEdges());

  PipelineResult result;
  WallTimer timer;
  Result<UGraph> symmetrized =
      Symmetrize(g, resolved.method, resolved.symmetrization);
  if (!symmetrized.ok()) {
    // The spans already recorded under `metrics` stay in the registry: a
    // deadline/memory abort still yields the partial span tree in the run
    // report, with the terminal status stamped on the pipeline span.
    RecordStatus(pipeline_span, symmetrized.status());
    return symmetrized.status();
  }
  result.symmetrized = std::move(*symmetrized);
  result.symmetrize_seconds = timer.ElapsedSeconds();

  timer.Restart();
  Result<Clustering> clustering = ClusterResolved(result.symmetrized,
                                                  resolved);
  if (!clustering.ok()) {
    RecordStatus(pipeline_span, clustering.status());
    return clustering.status();
  }
  result.clustering = std::move(*clustering);
  result.cluster_seconds = timer.ElapsedSeconds();
  result.num_clusters = result.clustering.NumClusters();
  pipeline_span.Metric("num_clusters", result.num_clusters);
  RecordStatus(pipeline_span, Status::OK());
  return result;
}

}  // namespace dgc
