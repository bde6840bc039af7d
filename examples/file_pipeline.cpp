// Command-line pipeline over files: read a directed edge list, symmetrize,
// optionally write the symmetrized graph in METIS format, cluster, and
// write the cluster labels — the workflow a practitioner would run on
// their own data.
//
//   $ ./file_pipeline --input=graph.txt --method=dd --algorithm=metis
//         --clusters=64 --output=labels.txt [--metis-out=sym.graph]
//         [--threshold=auto|<value>] [--target-degree=100]
//         [--threads=1] [--report=run_report.json]
//         [--max-edges=N] [--deadline-ms=N] [--max-memory-mb=N]
//         [--spill-dir=DIR]
//
// --max-edges bounds the input scan (rejecting oversized files at the
// parse stage); --deadline-ms / --max-memory-mb arm a ResourceBudget for
// the symmetrize+cluster stages. A memory budget no longer simply aborts
// the similarity products: the symmetrization degrades to out-of-core row
// tiles (spilling to --spill-dir, default system temp) when its in-memory
// estimate exceeds the budget, bit-identical to the unbudgeted run
// (docs/OUT_OF_CORE.md). Other stages keep abort semantics; a
// budget-exceeded run exits non-zero but still writes the partial run
// report when --report= is given.
#include <cstdio>
#include <string>

#include "cluster/pipeline.h"
#include "core/threshold_select.h"
#include "eval/record.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "util/options.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace dgc;
  auto opts = Options::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return 1;
  }
  const std::string input = opts->GetString("input", "");
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: file_pipeline --input=<edge-list> [--method=dd] "
                 "[--algorithm=metis|graclus|mlrmcl] [--clusters=64] "
                 "[--threshold=auto] [--target-degree=100] "
                 "[--output=labels.txt] [--metis-out=sym.graph] "
                 "[--threads=1] [--report=run_report.json] "
                 "[--max-edges=N] [--deadline-ms=N] [--max-memory-mb=N] "
                 "[--spill-dir=DIR]\n");
    return 2;
  }

  IoLimits limits;
  const int64_t max_edges = opts->GetInt("max-edges", 0);
  if (max_edges > 0) limits.max_edges = max_edges;

  auto method = ParseSymmetrizationMethod(opts->GetString("method", "dd"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 2;
  }

  PipelineOptions pipeline;
  pipeline.method = *method;
  const std::string algorithm = opts->GetString("algorithm", "metis");
  const Index k = static_cast<Index>(opts->GetInt("clusters", 64));
  if (algorithm == "metis") {
    pipeline.algorithm = ClusterAlgorithm::kMetis;
    pipeline.metis.k = k;
  } else if (algorithm == "graclus") {
    pipeline.algorithm = ClusterAlgorithm::kGraclus;
    pipeline.graclus.k = k;
  } else if (algorithm == "mlrmcl") {
    pipeline.algorithm = ClusterAlgorithm::kMlrMcl;
    pipeline.mlr_mcl.rmcl.inflation = opts->GetDouble("inflation", 2.0);
  } else {
    std::fprintf(stderr, "unknown --algorithm=%s\n", algorithm.c_str());
    return 2;
  }

  // Only the similarity methods have a threshold to select.
  const std::string threshold = opts->GetString("threshold", "auto");
  const bool auto_threshold =
      threshold == "auto" &&
      (*method == SymmetrizationMethod::kBibliometric ||
       *method == SymmetrizationMethod::kDegreeDiscounted);
  ThresholdSelectOptions select;
  if (auto_threshold) {
    select.target_avg_degree =
        static_cast<Index>(opts->GetInt("target-degree", 100));
  } else if (threshold != "auto") {
    pipeline.symmetrization.prune_threshold =
        opts->GetDouble("threshold", 0.0);
  }

  pipeline.num_threads = static_cast<int>(opts->GetInt("threads", 1));
  pipeline.budget.deadline_ms = opts->GetInt("deadline-ms", 0);
  pipeline.budget.max_memory_bytes =
      opts->GetInt("max-memory-mb", 0) * (int64_t{1} << 20);
  pipeline.spill_dir = opts->GetString("spill-dir", "");
  // With --report= every stage records into the registry; without it the
  // null sink keeps the run instrumentation-free.
  const std::string report_path = opts->GetString("report", "");
  MetricsRegistry registry;
  if (!report_path.empty()) pipeline.metrics = &registry;
  const std::string metis_out = opts->GetString("metis-out", "");
  const double metis_scale =
      metis_out.empty() ? 1000.0 : opts->GetDouble("metis-scale", 1000.0);
  const std::string output = opts->GetString("output", "");
  // Every flag is read by now: a misspelled one (--outptu=) fails here,
  // before the input is read, instead of silently dropping its step.
  const Status flags = opts->CheckAllRead();
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.ToString().c_str());
    return 2;
  }

  auto graph = ReadEdgeList(input, /*num_vertices=*/0, limits);
  if (!graph.ok()) {
    std::fprintf(stderr, "reading %s: %s\n", input.c_str(),
                 graph.status().ToString().c_str());
    return 1;
  }
  std::printf("read %s: %d vertices, %lld edges, %.1f%% symmetric\n",
              input.c_str(), graph->NumVertices(),
              static_cast<long long>(graph->NumEdges()),
              100.0 * graph->FractionSymmetricEdges());

  if (auto_threshold) {
    auto selection = SelectPruneThreshold(*graph, *method,
                                          pipeline.symmetrization, select);
    if (!selection.ok()) {
      std::fprintf(stderr, "threshold selection: %s\n",
                   selection.status().ToString().c_str());
      return 1;
    }
    pipeline.symmetrization.prune_threshold = selection->threshold;
    std::printf("auto-selected prune threshold: %.6f (sampled avg degree "
                "%.1f)\n",
                selection->threshold, selection->sampled_avg_degree);
  }

  WallTimer timer;
  auto result = SymmetrizeAndCluster(*graph, pipeline);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 result.status().ToString().c_str());
    // A budget abort still leaves the partial span tree in the registry;
    // write it out so the report shows how far the run got.
    if (!report_path.empty() &&
        (result.status().IsDeadlineExceeded() ||
         result.status().IsResourceExhausted())) {
      auto status = WriteRunReport(registry, report_path);
      if (status.ok()) {
        std::printf("wrote partial run report to %s\n", report_path.c_str());
      } else {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
      }
    }
    return 1;
  }
  std::printf(
      "symmetrize: %.2fs (%lld undirected edges)   cluster: %.2fs "
      "(%d clusters)   total %.2fs\n",
      result->symmetrize_seconds,
      static_cast<long long>(result->symmetrized.NumEdges()),
      result->cluster_seconds, result->num_clusters,
      timer.ElapsedSeconds());

  if (!metis_out.empty()) {
    auto status =
        WriteMetisGraph(result->symmetrized, metis_out, metis_scale);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote symmetrized graph to %s\n", metis_out.c_str());
  }
  if (!output.empty()) {
    auto status = WriteClustering(result->clustering, output);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote cluster labels to %s\n", output.c_str());
  }
  if (!report_path.empty()) {
    RecordClusteringMetrics(result->symmetrized, result->clustering,
                            &registry);
    auto status = WriteRunReport(registry, report_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote run report to %s\n", report_path.c_str());
  }
  return 0;
}
