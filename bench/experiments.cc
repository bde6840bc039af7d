// The paper's evaluation (Satuluri & Parthasarathy, EDBT 2011: Tables 1-5,
// Figs. 4-9, the Section 5.6 sign tests), the Section 3.6 all-pairs
// ablation and the Section 6 LFR validation as one registry of
// experiments. Each experiment is a function returning a Record: dataset
// sizes, parameters and tables whose rows are named cells. The driver runs
// the experiments --only= names (all of them by default) and writes their
// records to --json= as one "dgc.experiments.v1" document, which
// tools/docs/experiments_tables.py renders into EXPERIMENTS.md.
//
//   dgc_experiments [--only=<id,...>] [--scale=<f>] [--json=<path>]
//
// The paper's datasets are not redistributable, so every experiment runs on
// synthetic stand-ins (DESIGN.md section 3). --scale multiplies each
// experiment's default stand-in size; the defaults keep the hubs,
// reciprocity and overlapping categories each experiment measures.
//
// Every timed cell runs kRepeats times and records min/median/max seconds.
// The repeats must return identical output, so they double as a
// determinism check.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "bench/stand_ins.h"
#include "cluster/bestwcut.h"
#include "cluster/pipeline.h"
#include "core/all_pairs.h"
#include "core/symmetrize.h"
#include "core/threshold_select.h"
#include "core/top_edges.h"
#include "eval/fscore.h"
#include "eval/partition_metrics.h"
#include "eval/sign_test.h"
#include "gen/lfr.h"
#include "gen/rmat.h"
#include "graph/graph_stats.h"
#include "graph/text_scan.h"
#include "linalg/spgemm.h"
#include "obs/json_writer.h"
#include "util/logging.h"
#include "util/options.h"
#include "util/timer.h"

#ifndef DGC_BUILD_TYPE
#define DGC_BUILD_TYPE "unknown"
#endif

namespace dgc {
namespace {

constexpr int kRepeats = 3;

// ---------------------------------------------------------------------------
// Records

/// Three order statistics of one quantity: seconds over the repeats of a
/// timed cell, or the range of a time ratio those spreads allow.
struct Spread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;

  bool operator==(const Spread&) const = default;
};

using Cell = std::variant<int64_t, double, std::string, Spread>;
using Row = std::vector<std::pair<std::string, Cell>>;

struct Table {
  std::string name;
  std::vector<Row> rows;
};

struct Record {
  std::string id;
  std::string paper_ref;
  std::vector<Row> datasets;
  Row params;
  std::vector<Table> tables;
};

const Cell& Get(const Row& row, std::string_view key) {
  for (const auto& [name, cell] : row) {
    if (name == key) return cell;
  }
  DGC_LOG(Fatal) << "row has no cell " << key;
  return row.front().second;
}

std::string Name(SymmetrizationMethod method) {
  return std::string(SymmetrizationMethodName(method));
}

void AddDataset(Record* record, const Dataset& dataset) {
  record->datasets.push_back(
      {{"name", dataset.name},
       {"vertices", int64_t{dataset.graph.NumVertices()}},
       {"edges", int64_t{dataset.graph.NumEdges()}},
       {"categories", int64_t{dataset.truth.NumCategories()}}});
}

// ---------------------------------------------------------------------------
// Shared helpers

/// Symmetrizes with the prune threshold that the Section 5.3.1 sampler
/// picks for an average degree of `target_degree`, floored for
/// Bibliometric, whose entries are integer counts (the paper's Table 2
/// thresholds are integers). A+Aᵀ and Random walk are not pruned. `options`
/// carries any other setting (Table 4's discounts).
UGraph SymmetrizeAuto(const Digraph& g, SymmetrizationMethod method,
                      Index target_degree, double* threshold_out = nullptr,
                      SymmetrizationOptions options = {}) {
  if (method == SymmetrizationMethod::kBibliometric ||
      method == SymmetrizationMethod::kDegreeDiscounted) {
    ThresholdSelectOptions select;
    select.target_avg_degree = target_degree;
    auto selection = SelectPruneThreshold(g, method, options, select);
    DGC_CHECK(selection.ok()) << selection.status();
    options.prune_threshold =
        method == SymmetrizationMethod::kBibliometric
            ? std::max(0.0, std::floor(selection->threshold))
            : selection->threshold;
  }
  if (threshold_out != nullptr) *threshold_out = options.prune_threshold;
  auto u = Symmetrize(g, method, options);
  DGC_CHECK(u.ok()) << u.status();
  return std::move(u).ValueOrDie();
}

/// Stage 2 through the pipeline: `param` is the inflation for MLR-MCL and
/// the cluster count k for Metis and Graclus.
Clustering Cluster(const UGraph& u, ClusterAlgorithm algorithm,
                   double param) {
  PipelineOptions options;
  options.algorithm = algorithm;
  if (algorithm == ClusterAlgorithm::kMlrMcl) {
    options.mlr_mcl.rmcl.inflation = param;
  } else {
    options.metis.k = options.graclus.k = static_cast<Index>(param);
  }
  auto clustering = ClusterUGraph(u, options);
  DGC_CHECK(clustering.ok()) << clustering.status();
  return std::move(clustering).ValueOrDie();
}

bool SameOutput(const Clustering& a, const Clustering& b) {
  return a.labels() == b.labels();
}
bool SameOutput(const BestWCutResult& a, const BestWCutResult& b) {
  return SameOutput(a.clustering, b.clustering) && a.chosen == b.chosen;
}
bool SameOutput(const CsrMatrix& a, const CsrMatrix& b) {
  return std::ranges::equal(a.row_ptr(), b.row_ptr()) &&
         std::ranges::equal(a.col_idx(), b.col_idx()) &&
         std::ranges::equal(a.values(), b.values());
}

/// Runs `run` kRepeats times and returns the first output, its seconds
/// spread in `*seconds`. Every repeat must equal the first.
template <typename Fn>
auto Timed(Fn&& run, Spread* seconds) {
  std::array<double, kRepeats> elapsed{};
  WallTimer timer;
  auto first = run();
  elapsed[0] = timer.ElapsedSeconds();
  for (int r = 1; r < kRepeats; ++r) {
    WallTimer repeat_timer;
    const auto again = run();
    elapsed[r] = repeat_timer.ElapsedSeconds();
    DGC_CHECK(SameOutput(first, again))
        << "repeat " << r << " differs from the first run";
  }
  std::sort(elapsed.begin(), elapsed.end());
  *seconds = {elapsed.front(), elapsed[kRepeats / 2], elapsed.back()};
  return first;
}

/// Scores clusterings against a dataset's ground truth: avg F x100 (the
/// paper's Section 4.3 metric) always, and NMI when the categories are
/// disjoint (NMI compares partitions; Wikipedia's categories overlap).
class Scorer {
 public:
  explicit Scorer(const Dataset& dataset) : truth_(dataset.truth) {
    auto partition =
        TruthToClustering(dataset.truth, dataset.graph.NumVertices());
    if (partition.ok()) partition_ = std::move(partition).ValueOrDie();
  }

  void AddTo(Row* row, const Clustering& c, const std::string& prefix = "")
      const {
    auto f = EvaluateFScore(c, truth_);
    DGC_CHECK(f.ok()) << f.status();
    row->emplace_back(prefix + "avg_f", 100.0 * f->avg_f);
    if (!partition_) return;
    auto cmp = ComparePartitions(c, *partition_);
    DGC_CHECK(cmp.ok()) << cmp.status();
    row->emplace_back(prefix + "nmi", cmp->nmi);
  }

  std::vector<bool> Mask(const Clustering& c) const {
    auto mask = CorrectlyClusteredMask(c, truth_);
    DGC_CHECK(mask.ok()) << mask.status();
    return std::move(mask).ValueOrDie();
  }

 private:
  const GroundTruth& truth_;
  std::optional<Clustering> partition_;
};

/// A symmetrized graph to cluster; `label` leads each of its rows.
struct Input {
  Row label;
  UGraph graph;
};

std::vector<Input> SymmetrizeEach(
    const Digraph& g, std::initializer_list<SymmetrizationMethod> methods,
    Index target_degree) {
  std::vector<Input> inputs;
  for (SymmetrizationMethod method : methods) {
    inputs.push_back({{{"symmetrization", Name(method)}},
                      SymmetrizeAuto(g, method, target_degree)});
  }
  return inputs;
}

/// Clusters every input at every value of `algorithm`'s parameter and
/// appends one timed row per clustering (quality columns when `scorer`).
void Sweep(std::span<const Input> inputs, ClusterAlgorithm algorithm,
           std::initializer_list<double> params, const Scorer* scorer,
           Table* table) {
  for (const Input& input : inputs) {
    for (double param : params) {
      Spread seconds;
      const Clustering c = Timed(
          [&] { return Cluster(input.graph, algorithm, param); }, &seconds);
      Row row = input.label;
      row.emplace_back("edges", int64_t{input.graph.NumEdges()});
      row.emplace_back("clusterer",
                       std::string(ClusterAlgorithmName(algorithm)));
      row.emplace_back("param", param);
      row.emplace_back("clusters", int64_t{c.NumClusters()});
      if (scorer != nullptr) scorer->AddTo(&row, c);
      row.emplace_back("seconds", seconds);
      table->rows.push_back(std::move(row));
    }
  }
}

/// Time ratios of `fast`'s sweep rows to every other symmetrization's row
/// at the same clusterer and parameter: the ratio of medians, the range
/// the min-max spreads allow, and the resolved ordering ("unresolved" when
/// the spreads overlap).
Table TimeRatios(const Table& sweep, const std::string& fast) {
  Table ratios{sweep.name + " time ratios", {}};
  for (const Row& a : sweep.rows) {
    if (std::get<std::string>(Get(a, "symmetrization")) != fast) continue;
    for (const Row& b : sweep.rows) {
      const auto& other = std::get<std::string>(Get(b, "symmetrization"));
      if (other == fast || Get(b, "clusterer") != Get(a, "clusterer") ||
          Get(b, "param") != Get(a, "param")) {
        continue;
      }
      const Spread& ta = std::get<Spread>(Get(a, "seconds"));
      const Spread& tb = std::get<Spread>(Get(b, "seconds"));
      const Spread ratio{ta.min / tb.max, ta.median / tb.median,
                         ta.max / tb.min};
      const std::string ordering = ratio.max < 1.0   ? fast + " faster"
                                   : ratio.min > 1.0 ? other + " faster"
                                                     : "unresolved";
      ratios.rows.push_back({{"versus", other},
                             {"clusterer", Get(a, "clusterer")},
                             {"param", Get(a, "param")},
                             {"time_ratio", ratio},
                             {"ordering", ordering}});
    }
  }
  return ratios;
}

// ---------------------------------------------------------------------------
// Experiments

Record Table1(double scale) {
  Record record{"table1", "Table 1: dataset details", {}, {}, {{"", {}}}};
  for (const Dataset& d :
       {bench::MakeWiki(scale), bench::MakeCora(scale),
        bench::MakeFlickr(scale), bench::MakeLivejournal(scale)}) {
    AddDataset(&record, d);
    const DatasetStats stats = ComputeDatasetStats(d.name, d.graph, &d.truth);
    Row row = {{"dataset", d.name},
               {"vertices", int64_t{stats.vertices}},
               {"edges", int64_t{stats.edges}},
               {"pct_symmetric", stats.percent_symmetric}};
    if (stats.num_categories > 0) {
      row.emplace_back("categories", int64_t{stats.num_categories});
    }
    record.tables[0].rows.push_back(std::move(row));
  }
  return record;
}

Record Table2(double scale) {
  Record record{"table2", "Table 2: edges per symmetrization and pruning "
                "thresholds (arc counts)", {}, {}, {{"", {}}}};
  const std::pair<Dataset, Index> runs[] = {
      {bench::MakeCora(scale), 60},
      {bench::MakeWiki(scale), 80},
      {bench::MakeFlickr(0.5 * scale), 60},
      {bench::MakeLivejournal(0.5 * scale), 60}};
  for (const auto& [d, target] : runs) {
    AddDataset(&record, d);
    double biblio_threshold = 0.0;
    double dd_threshold = 0.0;
    const UGraph sum =
        SymmetrizeAuto(d.graph, SymmetrizationMethod::kAPlusAT, target);
    const UGraph biblio =
        SymmetrizeAuto(d.graph, SymmetrizationMethod::kBibliometric, target,
                       &biblio_threshold);
    const UGraph dd = SymmetrizeAuto(
        d.graph, SymmetrizationMethod::kDegreeDiscounted, target,
        &dd_threshold);
    const double n = d.graph.NumVertices();
    record.tables[0].rows.push_back(
        {{"dataset", d.name},
         {"target_degree", int64_t{target}},
         {"aat_arcs", int64_t{sum.NumArcs()}},
         {"biblio_arcs", int64_t{biblio.NumArcs()}},
         {"biblio_threshold", biblio_threshold},
         {"dd_arcs", int64_t{dd.NumArcs()}},
         {"dd_threshold", dd_threshold},
         {"biblio_singletons_pct", 100.0 * biblio.NumSingletons() / n},
         {"dd_singletons_pct", 100.0 * dd.NumSingletons() / n}});
  }
  return record;
}

Record Fig4(double scale) {
  Record record{"fig4", "Figure 4: degree distributions of symmetrized "
                "Wikipedia", {}, {{"target_degree", int64_t{80}}},
                {{"summary", {}}, {"histogram", {}}}};
  const Dataset wiki = bench::MakeWiki(scale);
  AddDataset(&record, wiki);
  std::vector<std::pair<std::string, DegreeHistogram>> histograms;
  for (SymmetrizationMethod method :
       {SymmetrizationMethod::kAPlusAT, SymmetrizationMethod::kBibliometric,
        SymmetrizationMethod::kDegreeDiscounted}) {
    double threshold = 0.0;
    const DegreeHistogram h = ComputeDegreeHistogram(
        SymmetrizeAuto(wiki.graph, method, 80, &threshold));
    record.tables[0].rows.push_back({{"symmetrization", Name(method)},
                                     {"threshold", threshold},
                                     {"mean_degree", h.mean_degree},
                                     {"max_degree", int64_t{h.max_degree}},
                                     {"isolated", int64_t{h.zero_count}}});
    histograms.emplace_back(Name(method), h);
  }
  size_t buckets = 0;
  for (const auto& [name, h] : histograms) {
    buckets = std::max(buckets, h.bucket_counts.size());
  }
  for (size_t b = 0; b <= buckets; ++b) {
    // Row 0 counts isolated vertices; row b covers [2^(b-1), 2^b).
    const std::string range =
        b == 0 ? "0"
               : std::to_string(int64_t{1} << (b - 1)) + "-" +
                     std::to_string((int64_t{1} << b) - 1);
    Row row = {{"degree", range}};
    for (const auto& [name, h] : histograms) {
      const Offset count = b == 0 ? h.zero_count
                           : b - 1 < h.bucket_counts.size()
                               ? h.bucket_counts[b - 1]
                               : 0;
      row.emplace_back(name, int64_t{count});
    }
    record.tables[1].rows.push_back(std::move(row));
  }
  return record;
}

Record Fig5(double scale) {
  Record record{"fig5", "Figure 5(a,b): symmetrization effectiveness on Cora",
                {}, {{"target_degree", int64_t{100}}}, {{"", {}}}};
  const Dataset cora = bench::MakeCora(scale);
  AddDataset(&record, cora);
  const Scorer scorer(cora);
  const std::vector<Input> inputs = SymmetrizeEach(
      cora.graph, {SymmetrizationMethod::kDegreeDiscounted,
                   SymmetrizationMethod::kBibliometric,
                   SymmetrizationMethod::kAPlusAT,
                   SymmetrizationMethod::kRandomWalk}, 100);
  Sweep(inputs, ClusterAlgorithm::kMlrMcl, {1.4, 1.7, 2.0, 2.5, 3.0}, &scorer,
        &record.tables[0]);
  Sweep(inputs, ClusterAlgorithm::kGraclus, {20, 50, 70, 90, 110, 140},
        &scorer, &record.tables[0]);
  return record;
}

/// BestWCut (Meila & Pentney) on the directed graph, with the eigen
/// subspace capped to keep the k sweep tractable.
BestWCutResult RunBestWCut(const Digraph& g, Index k) {
  BestWCutOptions options;
  options.k = k;
  options.spectral.max_subspace = static_cast<int>(2 * k + 50);
  options.spectral.kmeans_restarts = 1;
  auto result = BestWCut(g, options);
  DGC_CHECK(result.ok()) << result.status();
  return std::move(result).ValueOrDie();
}

Record Fig6(double scale) {
  Record record{"fig6", "Figure 6(a,b): Degree-discounted + multilevel "
                "clusterers vs BestWCut on Cora",
                {}, {{"target_degree", int64_t{100}}}, {{"", {}}}};
  const Dataset cora = bench::MakeCora(scale);
  AddDataset(&record, cora);
  const Scorer scorer(cora);
  const std::vector<Input> dd = SymmetrizeEach(
      cora.graph, {SymmetrizationMethod::kDegreeDiscounted}, 100);
  Table& table = record.tables[0];
  Sweep(dd, ClusterAlgorithm::kMlrMcl, {1.4, 1.8, 2.2, 2.8}, &scorer, &table);
  Sweep(dd, ClusterAlgorithm::kGraclus, {20, 50, 70, 110, 140}, &scorer,
        &table);
  Sweep(dd, ClusterAlgorithm::kMetis, {20, 50, 70, 110, 140}, &scorer,
        &table);
  for (Index k : {20, 50, 70, 110, 140}) {
    Spread seconds;
    const BestWCutResult best =
        Timed([&] { return RunBestWCut(cora.graph, k); }, &seconds);
    Row row = {{"symmetrization", "none (directed)"},
               {"edges", int64_t{cora.graph.NumEdges()}},
               {"clusterer", "BestWCut/" +
                                 std::string(WCutWeightingName(best.chosen))},
               {"param", static_cast<double>(k)},
               {"clusters", int64_t{best.clustering.NumClusters()}}};
    scorer.AddTo(&row, best.clustering);
    row.emplace_back("seconds", seconds);
    table.rows.push_back(std::move(row));
  }
  return record;
}

// Figs. 7 and 8 plot quality and time of the same clusterings, so one
// sweep records both.
Record Fig7And8(double scale) {
  Record record{"fig7_8", "Figures 7(a,b) and 8(a,b): symmetrization "
                "effectiveness and clustering time on Wikipedia",
                {}, {{"target_degree", int64_t{80}}}, {}};
  const Dataset wiki = bench::MakeWiki(0.6 * scale);
  AddDataset(&record, wiki);
  const Scorer scorer(wiki);
  // The paper's k range, 5,000-20,000 clusters on 1.13M nodes, is an
  // average cluster size of 57-226; scaled to the stand-in's size.
  const double n = wiki.graph.NumVertices();
  // Random walk last: the paper's Metis panel omits it.
  const std::vector<Input> inputs = SymmetrizeEach(
      wiki.graph, {SymmetrizationMethod::kDegreeDiscounted,
                   SymmetrizationMethod::kAPlusAT,
                   SymmetrizationMethod::kBibliometric,
                   SymmetrizationMethod::kRandomWalk}, 80);
  Table sweep{wiki.name, {}};
  Sweep(inputs, ClusterAlgorithm::kMlrMcl, {1.5, 2.0, 2.6}, &scorer, &sweep);
  Sweep(std::span(inputs).first(3), ClusterAlgorithm::kMetis,
        {std::floor(n / 220), std::floor(n / 140), std::floor(n / 90),
         std::floor(n / 60)},
        &scorer, &sweep);
  Table ratios =
      TimeRatios(sweep, Name(SymmetrizationMethod::kDegreeDiscounted));
  record.tables.push_back(std::move(sweep));
  record.tables.push_back(std::move(ratios));
  return record;
}

Record Fig9(double scale) {
  Record record{"fig9", "Figure 9(a,b): MLR-MCL clustering time on Flickr "
                "and LiveJournal (Bibliometric omitted, as in the paper)",
                {}, {{"target_degree", int64_t{30}}}, {}};
  for (const Dataset& d :
       {bench::MakeFlickr(0.35 * scale),
        bench::MakeLivejournal(0.35 * scale)}) {
    AddDataset(&record, d);
    Table sweep{d.name, {}};
    Sweep(SymmetrizeEach(d.graph, {SymmetrizationMethod::kDegreeDiscounted,
                                   SymmetrizationMethod::kAPlusAT,
                                   SymmetrizationMethod::kRandomWalk}, 30),
          ClusterAlgorithm::kMlrMcl, {1.6, 2.2}, nullptr, &sweep);
    Table ratios =
        TimeRatios(sweep, Name(SymmetrizationMethod::kDegreeDiscounted));
    record.tables.push_back(std::move(sweep));
    record.tables.push_back(std::move(ratios));
  }
  return record;
}

Record Table3(double scale) {
  Record record{"table3", "Table 3: effect of the Degree-discounted pruning "
                "threshold on Wikipedia", {}, {}, {{"", {}}}};
  const Dataset wiki = bench::MakeWiki(0.75 * scale);
  AddDataset(&record, wiki);
  const Scorer scorer(wiki);
  // The threshold ladder starts at the sampler's pick for degree 100.
  double base = 0.0;
  SymmetrizeAuto(wiki.graph, SymmetrizationMethod::kDegreeDiscounted, 100,
                 &base);
  if (base <= 0.0) base = 0.01;
  std::vector<Input> inputs;
  for (double threshold : {base, base * 1.5, base * 2.0, base * 2.5}) {
    SymmetrizationOptions options;
    options.prune_threshold = threshold;
    auto u = Symmetrize(wiki.graph, SymmetrizationMethod::kDegreeDiscounted,
                        options);
    DGC_CHECK(u.ok()) << u.status();
    inputs.push_back({{{"threshold", threshold}}, std::move(u).ValueOrDie()});
  }
  Sweep(inputs, ClusterAlgorithm::kMlrMcl, {2.0}, &scorer, &record.tables[0]);
  Sweep(inputs, ClusterAlgorithm::kMetis,
        {std::floor(wiki.graph.NumVertices() / 100.0)}, &scorer,
        &record.tables[0]);
  return record;
}

Record Table4(double scale) {
  Record record{"table4", "Table 4: effect of alpha and beta (Metis, fixed k)",
                {}, {}, {{"", {}}}};
  const Dataset cora = bench::MakeCora(scale);
  const Dataset wiki = bench::MakeWiki(0.75 * scale);
  AddDataset(&record, cora);
  AddDataset(&record, wiki);
  // The paper fixes 70 clusters for Cora and 10,000 for Wikipedia (one per
  // ~100 pages, scaled here).
  struct Target {
    const Dataset& dataset;
    Index k;
    Index target_degree;
    Scorer scorer;
  };
  const Target targets[] = {
      {cora, 70, 60, Scorer(cora)},
      {wiki, wiki.graph.NumVertices() / 100, 80, Scorer(wiki)}};
  const std::pair<DiscountSpec, DiscountSpec> configs[] = {
      {DiscountSpec::Power(0.0), DiscountSpec::Power(0.0)},
      {DiscountSpec::Log(), DiscountSpec::Log()},
      {DiscountSpec::Power(0.25), DiscountSpec::Power(0.25)},
      {DiscountSpec::Power(0.5), DiscountSpec::Power(0.5)},
      {DiscountSpec::Power(0.75), DiscountSpec::Power(0.75)},
      {DiscountSpec::Power(1.0), DiscountSpec::Power(1.0)},
      {DiscountSpec::Power(0.25), DiscountSpec::Power(0.5)},
      {DiscountSpec::Power(0.25), DiscountSpec::Power(0.75)},
      {DiscountSpec::Power(0.5), DiscountSpec::Power(0.25)},
      {DiscountSpec::Power(0.5), DiscountSpec::Power(0.75)},
      {DiscountSpec::Power(0.75), DiscountSpec::Power(0.25)},
      {DiscountSpec::Power(0.75), DiscountSpec::Power(0.5)},
  };
  for (const auto& [alpha, beta] : configs) {
    Row row = {{"alpha", alpha.ToString()}, {"beta", beta.ToString()}};
    for (const Target& t : targets) {
      SymmetrizationOptions options;
      options.out_discount = alpha;
      options.in_discount = beta;
      const UGraph u =
          SymmetrizeAuto(t.dataset.graph,
                         SymmetrizationMethod::kDegreeDiscounted,
                         t.target_degree, nullptr, options);
      t.scorer.AddTo(&row, Cluster(u, ClusterAlgorithm::kMetis, t.k),
                     t.dataset.name + " ");
    }
    record.tables[0].rows.push_back(std::move(row));
  }
  return record;
}

Record Table5(double scale) {
  Record record{"table5", "Table 5: top-weight edges per symmetrization of "
                "Wikipedia (weights normalized by the smallest edge weight)",
                {}, {{"target_degree", int64_t{80}}}, {{"", {}}}};
  const Dataset wiki = bench::MakeWiki(scale);
  AddDataset(&record, wiki);
  for (SymmetrizationMethod method :
       {SymmetrizationMethod::kRandomWalk, SymmetrizationMethod::kBibliometric,
        SymmetrizationMethod::kDegreeDiscounted}) {
    const UGraph u = SymmetrizeAuto(wiki.graph, method, 80);
    int64_t rank = 0;
    for (const WeightedEdge& e : TopWeightedEdgesNormalized(u, 5)) {
      record.tables[0].rows.push_back({{"symmetrization", Name(method)},
                                       {"rank", ++rank},
                                       {"node_1", wiki.NameOf(e.u)},
                                       {"node_2", wiki.NameOf(e.v)},
                                       {"weight", e.weight}});
    }
  }
  return record;
}

Record Sec56(double scale) {
  Record record{"sec56", "Section 5.6: paired binomial sign tests", {}, {},
                {{"", {}}}};
  Table& table = record.tables[0];
  const auto compare = [&](const std::string& label, const Scorer& scorer,
                           const Clustering& a, const Clustering& b) {
    auto sign = PairedSignTest(scorer.Mask(a), scorer.Mask(b));
    DGC_CHECK(sign.ok()) << sign.status();
    table.rows.push_back({{"comparison", label},
                          {"a_only", sign->a_only},
                          {"b_only", sign->b_only},
                          {"log10_p", sign->log10_p_value}});
  };
  const auto run = [&](const Dataset& d, Index target_degree, Index k,
                       bool with_bestwcut) {
    AddDataset(&record, d);
    const Scorer scorer(d);
    const UGraph dd = SymmetrizeAuto(
        d.graph, SymmetrizationMethod::kDegreeDiscounted, target_degree);
    const UGraph sum =
        SymmetrizeAuto(d.graph, SymmetrizationMethod::kAPlusAT, target_degree);
    const Clustering dd_mcl = Cluster(dd, ClusterAlgorithm::kMlrMcl, 2.0);
    const Clustering dd_metis = Cluster(dd, ClusterAlgorithm::kMetis, k);
    const std::string name = d.name + ": ";
    compare(name + "DD+MLR-MCL vs A+A'+MLR-MCL", scorer, dd_mcl,
            Cluster(sum, ClusterAlgorithm::kMlrMcl, 2.0));
    compare(name + "DD+Metis vs A+A'+Metis", scorer, dd_metis,
            Cluster(sum, ClusterAlgorithm::kMetis, k));
    if (!with_bestwcut) return;
    const BestWCutResult best = RunBestWCut(d.graph, k);
    compare(name + "DD+MLR-MCL vs BestWCut", scorer, dd_mcl, best.clustering);
    compare(name + "DD+Metis vs BestWCut", scorer, dd_metis, best.clustering);
  };
  run(bench::MakeCora(scale), 100, 70, /*with_bestwcut=*/true);
  const Dataset wiki = bench::MakeWiki(0.5 * scale);
  run(wiki, 80, wiki.graph.NumVertices() / 100, /*with_bestwcut=*/false);
  return record;
}

// The paper's conclusion asks for synthetic digraphs with known clusters;
// directed LFR graphs at rising mixing mu, in two community styles: dense
// (members cite each other) and co-citation with authority overlap 0.5
// (the Figure-1 regime, where only link similarity carries the signal).
Record Lfr(double scale) {
  Record record{"lfr", "Section 6 (future work): directed LFR validation, "
                "Graclus at the true community count",
                {}, {{"target_degree", int64_t{80}}}, {{"", {}}}};
  const Index n = static_cast<Index>(4000 * scale);
  const std::tuple<const char*, LfrCommunityStyle, double, uint64_t>
      styles[] = {
      {"dense", LfrCommunityStyle::kDense, 0.0, 101},
      {"cocitation", LfrCommunityStyle::kCocitation, 0.5, 102}};
  for (const auto& [style_name, style, overlap, seed] : styles) {
    for (double mu : {0.1, 0.2, 0.3, 0.4, 0.5}) {
      LfrOptions options;
      options.num_vertices = n;
      options.mixing = mu;
      options.style = style;
      options.authority_overlap = overlap;
      options.seed = seed;
      auto dataset = GenerateLfr(options);
      DGC_CHECK(dataset.ok()) << dataset.status();
      const Scorer scorer(*dataset);
      Row row = {{"style", style_name}, {"mu", mu}};
      for (SymmetrizationMethod method : kAllSymmetrizations) {
        const UGraph u = SymmetrizeAuto(dataset->graph, method, 80);
        scorer.AddTo(&row,
                     Cluster(u, ClusterAlgorithm::kGraclus,
                             dataset->truth.NumCategories()),
                     Name(method) + " ");
      }
      record.tables[0].rows.push_back(std::move(row));
    }
  }
  return record;
}

// Section 3.6 points to all-pairs candidate pruning (its reference [2]) for
// skipping similarities that provably fall under the threshold. Both
// backends must give the same matrix: identical structure and values within
// the unit test's 1e-10.
Record AblationAllPairs(double scale) {
  Record record{"ablation_allpairs", "Section 3.6 / ref. [2]: thresholded "
                "SpGEMM vs all-pairs candidate pruning on the "
                "Degree-discounted factor matrix", {}, {}, {{"", {}}}};
  RmatOptions rmat;
  rmat.scale = scale >= 1.0 ? 14 : 12;
  auto rmat_data = GenerateRmat(rmat);
  DGC_CHECK(rmat_data.ok()) << rmat_data.status();
  for (const Dataset& d :
       {std::move(rmat_data).ValueOrDie(), bench::MakeCora(scale)}) {
    AddDataset(&record, d);
    auto factors =
        BuildSimilarityFactors(d.graph,
                               SymmetrizationMethod::kDegreeDiscounted);
    DGC_CHECK(factors.ok()) << factors.status();
    for (Scalar threshold : {0.02, 0.05, 0.1, 0.2}) {
      SpGemmOptions reference;
      reference.threshold = threshold;
      reference.drop_diagonal = true;
      AllPairsOptions pruned;
      pruned.threshold = threshold;
      AllPairsStats stats;
      Spread spgemm_seconds;
      Spread allpairs_seconds;
      const CsrMatrix dense = Timed(
          [&] { return SpGemmAAt(factors->m, reference).ValueOrDie(); },
          &spgemm_seconds);
      const CsrMatrix sparse = Timed(
          [&] {
            stats = {};
            return AllPairsSimilarity(factors->m, pruned, &stats).ValueOrDie();
          },
          &allpairs_seconds);
      DGC_CHECK(std::ranges::equal(dense.row_ptr(), sparse.row_ptr()) &&
                std::ranges::equal(dense.col_idx(), sparse.col_idx()))
          << "backends disagree on the structure at threshold " << threshold;
      double max_abs_diff = 0.0;
      for (size_t e = 0; e < dense.values().size(); ++e) {
        max_abs_diff = std::max(
            max_abs_diff, std::abs(dense.values()[e] - sparse.values()[e]));
      }
      DGC_CHECK_LE(max_abs_diff, 1e-10)
          << "backends disagree on a value at threshold " << threshold;
      record.tables[0].rows.push_back(
          {{"graph", d.name},
           {"threshold", threshold},
           {"spgemm_seconds", spgemm_seconds},
           {"allpairs_seconds", allpairs_seconds},
           {"output_pairs", stats.output_pairs},
           {"candidate_pairs", stats.candidate_pairs},
           {"rows_skipped", stats.skipped_rows},
           {"max_abs_diff", max_abs_diff}});
    }
  }
  return record;
}

struct Experiment {
  std::string_view id;
  Record (*run)(double scale);
};

constexpr Experiment kExperiments[] = {
    {"table1", Table1}, {"table2", Table2},
    {"fig4", Fig4},     {"fig5", Fig5},
    {"fig6", Fig6},     {"fig7_8", Fig7And8},
    {"fig9", Fig9},     {"table3", Table3},
    {"table4", Table4}, {"table5", Table5},
    {"sec56", Sec56},   {"lfr", Lfr},
    {"ablation_allpairs", AblationAllPairs},
};

// ---------------------------------------------------------------------------
// JSON

void WriteCell(JsonWriter& w, const Cell& cell) {
  if (const auto* s = std::get_if<Spread>(&cell)) {
    w.Raw("{\"min\": ");
    w.Double(s->min);
    w.Raw(", \"median\": ");
    w.Double(s->median);
    w.Raw(", \"max\": ");
    w.Double(s->max);
    w.Raw("}");
  } else if (const auto* i = std::get_if<int64_t>(&cell)) {
    w.Int(*i);
  } else if (const auto* d = std::get_if<double>(&cell)) {
    w.Double(*d);
  } else {
    w.String(std::get<std::string>(cell));
  }
}

/// One object per line, so a re-run's diff shows which cells moved.
void WriteRow(JsonWriter& w, const Row& row) {
  w.Raw("{");
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) w.Raw(", ");
    w.String(row[i].first);
    w.Raw(": ");
    WriteCell(w, row[i].second);
  }
  w.Raw("}");
}

void WriteRows(JsonWriter& w, const std::vector<Row>& rows, int indent) {
  w.Raw("[");
  for (size_t i = 0; i < rows.size(); ++i) {
    w.Raw(i > 0 ? "," : "");
    w.Newline(indent + 1);
    WriteRow(w, rows[i]);
  }
  w.Newline(indent);
  w.Raw("]");
}

/// Starts the object member `key` on a new line at `indent`.
void Key(JsonWriter& w, int indent, std::string_view key) {
  w.Newline(indent);
  w.String(key);
  w.Raw(": ");
}

std::string ToJson(const std::vector<Record>& records, double scale) {
  JsonWriter w;
  w.Raw("{");
  Key(w, 1, "schema");
  w.String("dgc.experiments.v1");
  w.Raw(",");
  Key(w, 1, "scale");
  w.Double(scale);
  w.Raw(",");
  Key(w, 1, "repeats");
  w.Int(kRepeats);
  w.Raw(",");
  Key(w, 1, "build_type");
  w.String(DGC_BUILD_TYPE);
  w.Raw(",");
  Key(w, 1, "experiments");
  w.Raw("[");
  for (size_t r = 0; r < records.size(); ++r) {
    const Record& record = records[r];
    w.Raw(r > 0 ? "," : "");
    w.Newline(2);
    w.Raw("{");
    Key(w, 3, "id");
    w.String(record.id);
    w.Raw(",");
    Key(w, 3, "paper_ref");
    w.String(record.paper_ref);
    w.Raw(",");
    Key(w, 3, "datasets");
    WriteRows(w, record.datasets, 3);
    w.Raw(",");
    Key(w, 3, "params");
    WriteRow(w, record.params);
    w.Raw(",");
    Key(w, 3, "tables");
    w.Raw("[");
    for (size_t t = 0; t < record.tables.size(); ++t) {
      w.Raw(t > 0 ? "," : "");
      w.Newline(4);
      w.Raw("{\"name\": ");
      w.String(record.tables[t].name);
      w.Raw(", \"rows\": ");
      WriteRows(w, record.tables[t].rows, 4);
      w.Raw("}");
    }
    w.Newline(3);
    w.Raw("]");
    w.Newline(2);
    w.Raw("}");
  }
  w.Newline(1);
  w.Raw("]");
  w.Newline(0);
  w.Raw("}\n");
  return std::move(w).Take();
}

// ---------------------------------------------------------------------------
// Driver

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

int Run(int argc, const char* const* argv) {
  auto options = Options::Parse(argc, argv);
  if (!options.ok()) return Fail(options.status());
  const std::string only = options->GetString("only", "");
  const double scale = options->GetDouble("scale", 1.0);
  const std::string json_path =
      options->GetString("json", "EXPERIMENTS.json");
  if (Status flags = options->CheckAllRead(); !flags.ok()) return Fail(flags);
  if (!(scale > 0.0)) {
    return Fail(Status::InvalidArgument("--scale must be positive"));
  }

  std::vector<const Experiment*> selected;
  for (size_t begin = 0; begin < only.size();) {
    const size_t end = std::min(only.find(',', begin), only.size());
    const std::string_view id =
        std::string_view(only).substr(begin, end - begin);
    const auto it = std::ranges::find(kExperiments, id, &Experiment::id);
    if (it == std::end(kExperiments)) {
      return Fail(Status::InvalidArgument("unknown experiment id '" +
                                          std::string(id) + "'"));
    }
    selected.push_back(&*it);
    begin = end + 1;
  }
  if (only.empty()) {
    for (const Experiment& e : kExperiments) selected.push_back(&e);
  }

  std::vector<Record> records;
  for (const Experiment* e : selected) {
    WallTimer timer;
    records.push_back(e->run(scale));
    std::fprintf(stderr, "%s: %.1f s\n", std::string(e->id).c_str(),
                 timer.ElapsedSeconds());
  }
  text_scan::TextWriter out(json_path);
  if (!out.is_open()) {
    return Fail(Status::IOError("cannot open " + json_path + " for writing"));
  }
  out << ToJson(records, scale);
  if (Status closed = out.Close(); !closed.ok()) return Fail(closed);
  return 0;
}

}  // namespace
}  // namespace dgc

int main(int argc, char** argv) { return dgc::Run(argc, argv); }
