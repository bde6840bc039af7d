// dgc_score: evaluates a clustering file against ground truth with the
// paper's micro-averaged best-match F-measure (Section 4.3), plus NMI/ARI
// when the truth is a partition, plus normalized cuts when a graph is
// supplied. Also runs the paired sign test between two clusterings
// (Section 5.6).
//
//   $ ./dgc_score --labels=c.txt --truth=truth.txt --n=6000
//         [--graph=graph.txt [--spill-dir=DIR]] [--labels-b=other.txt]
//         [--max-edges=N] [--deadline-ms=N] [--max-memory-mb=N]
//
// --max-edges bounds the --graph edge-list scan; --deadline-ms is checked
// at stage granularity (between metric computations) and inside the
// symmetrization kernels. --max-memory-mb arms the token's memory ledger
// and lets the ncut symmetrization degrade to out-of-core row tiles
// (spilled to --spill-dir) instead of aborting (docs/OUT_OF_CORE.md).
#include <cstdio>
#include <string>

#include "core/symmetrize.h"
#include "eval/fscore.h"
#include "eval/ncut.h"
#include "eval/partition_metrics.h"
#include "eval/sign_test.h"
#include "graph/io.h"
#include "linalg/power_iteration.h"
#include "util/budget.h"
#include "util/options.h"

namespace {

/// Reports a failed call's status on stderr; returns the tool's exit code.
int Fail(const dgc::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dgc;
  auto opts = Options::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return 2;
  }
  const std::string labels_path = opts->GetString("labels", "");
  const std::string truth_path = opts->GetString("truth", "");
  if (labels_path.empty() || truth_path.empty()) {
    std::fprintf(stderr,
                 "usage: dgc_score --labels=<file> --truth=<file> "
                 "[--n=<vertices>] [--graph=<edge-list>] "
                 "[--labels-b=<file>] [--max-edges=N] [--deadline-ms=N] "
                 "[--max-memory-mb=N] [--spill-dir=DIR]\n");
    return 2;
  }
  IoLimits limits;
  const int64_t max_edges = opts->GetInt("max-edges", 0);
  if (max_edges > 0) limits.max_edges = max_edges;
  CancelToken cancel;
  ResourceBudget budget;
  budget.deadline_ms = opts->GetInt("deadline-ms", 0);
  budget.max_memory_bytes =
      opts->GetInt("max-memory-mb", 0) * (int64_t{1} << 20);
  // --n defaults to the size of the --labels clustering.
  const bool has_n = opts->Has("n");
  const int64_t n_flag = opts->GetInt("n", 0);
  const std::string graph_path = opts->GetString("graph", "");
  const std::string spill_dir =
      graph_path.empty() ? "" : opts->GetString("spill-dir", "");
  const std::string labels_b = opts->GetString("labels-b", "");
  const Status flags = opts->CheckAllRead();
  if (!flags.ok()) return Fail(flags);

  cancel.Arm(budget);
  auto clustering = ReadClustering(labels_path, limits);
  if (!clustering.ok()) return Fail(clustering.status());
  const Index n =
      static_cast<Index>(has_n ? n_flag : clustering->NumVertices());
  auto truth = ReadGroundTruth(truth_path, n, limits);
  if (!truth.ok()) return Fail(truth.status());
  if (cancel.Expired()) return Fail(cancel.status());

  auto f = EvaluateFScore(*clustering, *truth);
  if (!f.ok()) return Fail(f.status());
  std::printf("clusters:   %d\n", clustering->NumClusters());
  std::printf("avg F:      %.4f\n", f->avg_f);
  std::printf("precision:  %.4f\n", f->avg_precision);
  std::printf("recall:     %.4f\n", f->avg_recall);

  // NMI/ARI only make sense when the truth is a partition.
  auto truth_clustering = TruthToClustering(*truth, n);
  if (truth_clustering.ok()) {
    auto cmp = ComparePartitions(*clustering, *truth_clustering);
    if (!cmp.ok()) return Fail(cmp.status());
    std::printf("NMI:        %.4f\n", cmp->nmi);
    std::printf("ARI:        %.4f\n", cmp->ari);
  } else {
    std::printf("NMI/ARI:    skipped (%s)\n",
                truth_clustering.status().message().c_str());
  }

  if (!graph_path.empty()) {
    auto graph = ReadEdgeList(graph_path, n, limits);
    if (!graph.ok()) return Fail(graph.status());
    if (cancel.Expired()) return Fail(cancel.status());
    SymmetrizationOptions ncut_sym;
    ncut_sym.cancel = &cancel;
    ncut_sym.max_memory_bytes = budget.max_memory_bytes;
    ncut_sym.spill_dir = spill_dir;
    auto u = Symmetrize(*graph, SymmetrizationMethod::kAPlusAT, ncut_sym);
    if (!u.ok()) return Fail(u.status());
    auto pr = PageRank(graph->adjacency());
    if (!pr.ok()) return Fail(pr.status());
    std::printf("ncut(A+A'): %.4f\n", NormalizedCut(*u, *clustering));
    std::printf("ncut_dir:   %.4f\n",
                DirectedNormalizedCut(*graph, pr->pi, *clustering));
  }

  if (!labels_b.empty()) {
    auto other = ReadClustering(labels_b, limits);
    if (!other.ok()) return Fail(other.status());
    auto mask_a = CorrectlyClusteredMask(*clustering, *truth);
    if (!mask_a.ok()) return Fail(mask_a.status());
    auto mask_b = CorrectlyClusteredMask(*other, *truth);
    if (!mask_b.ok()) return Fail(mask_b.status());
    auto sign = PairedSignTest(*mask_a, *mask_b);
    if (!sign.ok()) return Fail(sign.status());
    std::printf(
        "sign test (A = --labels, B = --labels-b): A-only %lld, "
        "B-only %lld, log10(p) = %.2f\n",
        static_cast<long long>(sign->a_only),
        static_cast<long long>(sign->b_only), sign->log10_p_value);
  }
  return 0;
}
