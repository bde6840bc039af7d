// dgc_symmetrize: stage 1 of the framework as a standalone tool. Reads a
// directed edge list, applies the chosen symmetrization (auto-selecting the
// prune threshold if asked), and writes the undirected result as a weighted
// edge list and/or METIS file for consumption by any external clusterer.
//
//   $ ./dgc_symmetrize --input=graph.txt --method=dd --target-degree=100
//         --out=sym.txt [--metis-out=sym.graph [--metis-scale=1000]]
//         [--alpha=0.5] [--beta=0.5] [--report-top=10]
//         [--max-edges=N] [--deadline-ms=N] [--max-memory-mb=N]
//         [--spill-dir=DIR]
//
// --threshold=auto (the default for dd and bibliometric) samples a prune
// threshold for --target-degree; --threshold=0.01 fixes it instead, and
// then --target-degree is an unused flag, which is an error like any
// misspelled one.
//
// --max-memory-mb arms a soft memory budget for the symmetrization: the
// fused similarity kernels degrade to out-of-core row tiles (spilling to
// --spill-dir, default system temp) when the in-memory estimate exceeds
// the budget, instead of aborting (docs/OUT_OF_CORE.md).
#include <cstdio>
#include <string>

#include "core/symmetrize.h"
#include "core/threshold_select.h"
#include "core/top_edges.h"
#include "graph/graph_stats.h"
#include "graph/io.h"
#include "util/budget.h"
#include "util/options.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace dgc;
  auto opts = Options::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return 2;
  }
  const std::string input = opts->GetString("input", "");
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: dgc_symmetrize --input=<edge-list> [--method=dd] "
                 "[--threshold=auto] [--target-degree=100] [--alpha=0.5] "
                 "[--beta=0.5] [--out=sym.txt] [--metis-out=sym.graph] "
                 "[--report-top=0] [--max-edges=N] [--deadline-ms=N] "
                 "[--max-memory-mb=N] [--spill-dir=DIR]\n");
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
  SymmetrizationOptions sym;
  sym.out_discount = DiscountSpec::Power(opts->GetDouble("alpha", 0.5));
  sym.in_discount = DiscountSpec::Power(opts->GetDouble("beta", 0.5));
  sym.add_self_loops = opts->GetBool("self-loops", false);
  // --deadline-ms bounds the symmetrization kernels; the token trips
  // cooperatively inside the SpGEMM row loops. --max-memory-mb feeds both
  // the token's ledger and the out-of-core auto-tiling decision, so a
  // tight budget tiles instead of tripping.
  CancelToken cancel;
  ResourceBudget budget;
  budget.deadline_ms = opts->GetInt("deadline-ms", 0);
  budget.max_memory_bytes =
      opts->GetInt("max-memory-mb", 0) * (int64_t{1} << 20);
  sym.max_memory_bytes = budget.max_memory_bytes;
  sym.spill_dir = opts->GetString("spill-dir", "");

  const std::string threshold = opts->GetString("threshold", "auto");
  const bool prunable = *method == SymmetrizationMethod::kBibliometric ||
                        *method == SymmetrizationMethod::kDegreeDiscounted;
  const bool auto_threshold = prunable && threshold == "auto";
  ThresholdSelectOptions select;
  if (auto_threshold) {
    select.target_avg_degree =
        static_cast<Index>(opts->GetInt("target-degree", 100));
  } else if (prunable) {
    sym.prune_threshold = opts->GetDouble("threshold", 0.0);
  }
  const Index report_top = static_cast<Index>(opts->GetInt("report-top", 0));
  const std::string out = opts->GetString("out", "");
  const std::string metis_out = opts->GetString("metis-out", "");
  const double metis_scale =
      metis_out.empty() ? 0.0 : opts->GetDouble("metis-scale", 1000.0);
  const Status flags = opts->CheckAllRead();
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.ToString().c_str());
    return 1;
  }

  auto graph = ReadEdgeList(input, /*num_vertices=*/0, limits);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  if (!budget.unlimited()) {
    cancel.Arm(budget);
    sym.cancel = &cancel;
  }
  if (auto_threshold) {
    auto selection = SelectPruneThreshold(*graph, *method, sym, select);
    if (!selection.ok()) {
      std::fprintf(stderr, "%s\n", selection.status().ToString().c_str());
      return 1;
    }
    sym.prune_threshold = selection->threshold;
    std::printf("auto threshold: %.6f (sampled avg degree %.1f)\n",
                selection->threshold, selection->sampled_avg_degree);
  }

  WallTimer timer;
  auto u = Symmetrize(*graph, *method, sym);
  if (!u.ok()) {
    std::fprintf(stderr, "%s\n", u.status().ToString().c_str());
    return 1;
  }
  DegreeHistogram histogram = ComputeDegreeHistogram(*u);
  std::printf(
      "%s: %lld undirected edges in %.2fs; mean degree %.1f, max %lld, "
      "%lld isolated\n",
      SymmetrizationMethodName(*method).data(),
      static_cast<long long>(u->NumEdges()), timer.ElapsedSeconds(),
      histogram.mean_degree, static_cast<long long>(histogram.max_degree),
      static_cast<long long>(histogram.zero_count));

  if (report_top > 0) {
    std::printf("top-%d edges by weight:\n", report_top);
    for (const WeightedEdge& e : TopWeightedEdgesNormalized(*u, report_top)) {
      std::printf("  %d -- %d  %.2f\n", e.u, e.v, e.weight);
    }
  }

  if (!out.empty()) {
    auto status = WriteUndirectedEdgeList(*u, out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote undirected edge list to %s\n", out.c_str());
  }
  if (!metis_out.empty()) {
    auto status = WriteMetisGraph(*u, metis_out, metis_scale);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote METIS graph to %s\n", metis_out.c_str());
  }
  return 0;
}
