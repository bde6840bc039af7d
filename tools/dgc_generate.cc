// dgc_generate: writes one of the synthetic dataset families to disk as a
// directed edge list plus (when available) a ground-truth category file —
// so the rest of the toolchain (dgc_symmetrize, dgc_score, file_pipeline)
// can be exercised on reproducible data, and so users can inspect the
// stand-in workloads outside the benchmark binaries.
//
//   $ ./dgc_generate --family=citation --out=graph.txt --truth=truth.txt
//         [--n=6000] [--seed=2]
//         [--max-edges=N] [--deadline-ms=N] [--max-memory-mb=N]
//
// Families: planted | citation | hyperlink | social | rmat | lfr. Each
// reads only its own flags (lfr: --n, --mixing, --style=cocitation,
// --authority-overlap; rmat: --rmat-scale, --edge-factor), and a flag the
// chosen family does not read is an error.
//
// --max-edges rejects a generated graph larger than the cap before any
// file is written; --deadline-ms bounds the whole generate+write run,
// checked at stage granularity. --max-memory-mb arms the token's memory
// ledger so budget-aware stages trip kResourceExhausted instead of
// over-allocating.
#include <cstdio>
#include <functional>
#include <string>

#include "gen/citation.h"
#include "gen/hyperlink.h"
#include "gen/lfr.h"
#include "gen/planted.h"
#include "gen/rmat.h"
#include "gen/social.h"
#include "graph/io.h"
#include "util/budget.h"
#include "util/options.h"

namespace {

using namespace dgc;

using Generator = std::function<Result<Dataset>()>;

/// Reads the chosen family's flags; the returned generator runs it.
Result<Generator> FamilyGenerator(const Options& opts) {
  const std::string family = opts.GetString("family", "citation");
  const uint64_t seed = static_cast<uint64_t>(opts.GetInt("seed", 1));
  if (family == "planted") {
    PlantedOptions o;
    o.num_clusters = static_cast<Index>(opts.GetInt("clusters", 20));
    o.cluster_size = static_cast<Index>(opts.GetInt("cluster-size", 40));
    o.target_pool = static_cast<Index>(opts.GetInt("target-pool", 0));
    o.source_pool = static_cast<Index>(opts.GetInt("source-pool", 0));
    o.p_intra = opts.GetDouble("p-intra", 0.0);
    o.seed = seed;
    return Generator([o] { return GeneratePlanted(o); });
  }
  if (family == "citation") {
    CitationOptions o;
    o.num_papers = static_cast<Index>(opts.GetInt("n", 6000));
    o.seed = seed;
    return Generator([o] { return GenerateCitation(o); });
  }
  if (family == "hyperlink") {
    HyperlinkOptions o;
    o.num_articles = static_cast<Index>(opts.GetInt("n", 20000));
    o.num_categories = static_cast<Index>(opts.GetInt("categories", 250));
    o.seed = seed;
    return Generator([o] { return GenerateHyperlink(o); });
  }
  if (family == "social") {
    SocialOptions o;
    o.num_users = static_cast<Index>(opts.GetInt("n", 60000));
    o.p_reciprocal = opts.GetDouble("reciprocal", 0.55);
    o.seed = seed;
    return Generator([o] { return GenerateSocial(o); });
  }
  if (family == "rmat") {
    RmatOptions o;
    o.scale = static_cast<int>(opts.GetInt("rmat-scale", 14));
    o.edge_factor = opts.GetDouble("edge-factor", 8.0);
    o.seed = seed;
    return Generator([o] { return GenerateRmat(o); });
  }
  if (family == "lfr") {
    LfrOptions o;
    o.num_vertices = static_cast<Index>(opts.GetInt("n", 5000));
    o.mixing = opts.GetDouble("mixing", 0.2);
    o.style = opts.GetString("style", "dense") == "cocitation"
                  ? LfrCommunityStyle::kCocitation
                  : LfrCommunityStyle::kDense;
    o.authority_overlap = opts.GetDouble("authority-overlap", 0.0);
    o.seed = seed;
    return Generator([o] { return GenerateLfr(o); });
  }
  return Status::InvalidArgument("unknown --family=" + family);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dgc;
  auto opts = Options::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return 2;
  }
  CancelToken cancel;
  ResourceBudget budget;
  budget.deadline_ms = opts->GetInt("deadline-ms", 0);
  budget.max_memory_bytes =
      opts->GetInt("max-memory-mb", 0) * (int64_t{1} << 20);
  const int64_t max_edges = opts->GetInt("max-edges", 0);
  const std::string out = opts->GetString("out", "");
  const std::string truth = opts->GetString("truth", "");
  auto generate = FamilyGenerator(*opts);
  if (!generate.ok()) {
    std::fprintf(stderr, "%s\n", generate.status().ToString().c_str());
    return 1;
  }
  const Status flags = opts->CheckAllRead();
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.ToString().c_str());
    return 1;
  }
  cancel.Arm(budget);
  auto dataset = (*generate)();
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  if (max_edges > 0 && dataset->graph.NumEdges() > max_edges) {
    std::fprintf(stderr,
                 "generated graph has %lld edges, over --max-edges=%lld\n",
                 static_cast<long long>(dataset->graph.NumEdges()),
                 static_cast<long long>(max_edges));
    return 1;
  }
  if (cancel.Expired()) {
    std::fprintf(stderr, "%s\n", cancel.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %d vertices, %lld edges, %d categories, %.1f%% symmetric\n",
              dataset->name.c_str(), dataset->graph.NumVertices(),
              static_cast<long long>(dataset->graph.NumEdges()),
              dataset->truth.NumCategories(),
              100.0 * dataset->graph.FractionSymmetricEdges());
  if (!out.empty()) {
    auto status = WriteEdgeList(dataset->graph, out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote edges to %s\n", out.c_str());
  }
  if (!truth.empty() && cancel.Expired()) {
    std::fprintf(stderr, "%s\n", cancel.status().ToString().c_str());
    return 1;
  }
  if (!truth.empty() && dataset->truth.NumCategories() > 0) {
    auto status = WriteGroundTruth(dataset->truth, truth);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote ground truth to %s\n", truth.c_str());
  }
  return 0;
}
