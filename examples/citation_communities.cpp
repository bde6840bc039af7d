// Research-field discovery in a citation network (the paper's Cora
// scenario, Section 4.1): generate a synthetic citation graph with known
// subfields, run every symmetrization through Metis, and report
// micro-averaged F-scores plus a paired sign test of the best method
// against the A+Aᵀ baseline (Section 5.6).
//
//   $ ./citation_communities [--papers=6000] [--clusters=70]
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/partition_metis.h"
#include "core/symmetrize.h"
#include "core/threshold_select.h"
#include "eval/fscore.h"
#include "eval/sign_test.h"
#include "gen/citation.h"
#include "util/options.h"

int main(int argc, char** argv) {
  using namespace dgc;
  auto opts = Options::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return 1;
  }
  CitationOptions gen_options;
  gen_options.num_papers =
      static_cast<Index>(opts->GetInt("papers", 6000));
  const Index k = static_cast<Index>(opts->GetInt("clusters", 70));
  const Status flags = opts->CheckAllRead();
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.ToString().c_str());
    return 2;
  }

  auto dataset = GenerateCitation(gen_options);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("citation graph: %d papers, %lld citations, %d subfields\n\n",
              dataset->graph.NumVertices(),
              static_cast<long long>(dataset->graph.NumEdges()),
              dataset->truth.NumCategories());

  std::printf("%-18s %10s %8s %8s %8s\n", "symmetrization", "edges", "AvgF",
              "prec", "recall");
  std::vector<bool> best_mask, baseline_mask;
  double best_f = -1.0;
  std::string best_name;
  for (SymmetrizationMethod method : kAllSymmetrizations) {
    SymmetrizationOptions sym;
    if (method == SymmetrizationMethod::kBibliometric ||
        method == SymmetrizationMethod::kDegreeDiscounted) {
      ThresholdSelectOptions select;
      select.target_avg_degree = 60;
      auto threshold = SelectPruneThreshold(dataset->graph, method, sym,
                                            select);
      if (!threshold.ok()) continue;
      sym.prune_threshold = threshold->threshold;
    }
    auto u = Symmetrize(dataset->graph, method, sym);
    if (!u.ok()) continue;
    MetisOptions metis;
    metis.k = k;
    auto clustering = MetisPartition(*u, metis);
    if (!clustering.ok()) continue;
    auto f = EvaluateFScore(*clustering, dataset->truth);
    if (!f.ok()) continue;
    std::printf("%-18s %10lld %8.2f %8.2f %8.2f\n",
                SymmetrizationMethodName(method).data(),
                static_cast<long long>(u->NumEdges()), 100.0 * f->avg_f,
                100.0 * f->avg_precision, 100.0 * f->avg_recall);
    auto mask = CorrectlyClusteredMask(*clustering, dataset->truth);
    if (!mask.ok()) continue;
    if (method == SymmetrizationMethod::kAPlusAT) {
      baseline_mask = *mask;
    }
    if (f->avg_f > best_f) {
      best_f = f->avg_f;
      best_name = SymmetrizationMethodName(method);
      best_mask = *mask;
    }
  }

  if (!best_mask.empty() && !baseline_mask.empty()) {
    auto sign = PairedSignTest(best_mask, baseline_mask);
    if (sign.ok()) {
      std::printf(
          "\nsign test, %s vs A+A': %lld nodes correct only under %s,\n"
          "%lld only under A+A'; log10(p) = %.1f\n",
          best_name.c_str(), static_cast<long long>(sign->a_only),
          best_name.c_str(), static_cast<long long>(sign->b_only),
          sign->log10_p_value);
    }
  }
  return 0;
}
