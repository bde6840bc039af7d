// perfbench_driver: the in-process half of the end-to-end benchmark
// (perfbench/README.md). run.py drives it; every subcommand talks to the
// library only through its public headers and to its caller through files.
//
//   prepare --workload=W --seed=N --scale=F --dir=D
//       Generates the workload's inputs from the seed and writes them as
//       plain files (edge lists, ground truth, manifest.txt) under D.
//   batch --workload=W --dir=D --seconds=S --threads=T --trace=0|1
//         --scaling-threads=U --out=result.json
//       Warms up, then repeats the workload's fixed job list for S
//       seconds. Every job is a file-to-file pipeline run timed by the
//       benchmark's own clock. With --trace=1 it runs three phases: an
//       untraced half, a traced half (a live MetricsRegistry plus the
//       benchmark's own spans around each public call), and one list at
//       U threads (for the speedup of 4 threads over 1).
//   verify --workload=W --dir=D --out=verify.json
//       Checks the outputs a batch run left in D (runs in its own process,
//       after the timed region): content hashes, repeat determinism, the
//       in-memory vs tiled cross-check, and F-scores against ground truth.
//   check --requests=F --out=check.json --threads=T
//       For serve: runs each dgc.serve.request.v1 line of F in process with
//       SymmetrizeAndCluster and reports the label hash of each.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/mlr_mcl.h"
#include "cluster/pipeline.h"
#include "core/symmetrize.h"
#include "core/threshold_select.h"
#include "eval/fscore.h"
#include "gen/citation.h"
#include "gen/hyperlink.h"
#include "gen/lfr.h"
#include "gen/social.h"
#include "graph/io.h"
#include "graph/serialize.h"
#include "linalg/spgemm.h"
#include "linalg/spgemm_tiled.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "serve/cache.h"
#include "serve/request.h"
#include "util/options.h"
#include "util/thread_pool.h"

namespace {

using namespace dgc;
namespace fs = std::filesystem;

// ---------------------------------------------------------------- helpers

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// FNV-1a 64 over the labels rendered one per line ("3\n0\n..."), i.e. over
// the bytes WriteClustering writes. run.py computes the same hash for the
// labels a serve response carries.
uint64_t LabelsHash(const std::vector<Index>& labels) {
  uint64_t h = 14695981039346656037ull;
  for (Index label : labels) {
    const std::string text = std::to_string(label) + "\n";
    for (unsigned char c : text) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(values[i]);
  }
  return out + "]";
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench_driver: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).ValueOrDie();
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

// Reads "key value" lines written by prepare (manifest.txt).
double ManifestValue(const std::string& dir, const std::string& key) {
  std::ifstream in(dir + "/manifest.txt");
  std::string k;
  double v = 0.0;
  while (in >> k >> v) {
    if (k == key) return v;
  }
  std::fprintf(stderr, "perfbench_driver: manifest lacks %s\n", key.c_str());
  std::exit(1);
}

// Selects the degree-discounted prune threshold the way the paper's
// Section 5.3.1 sampling does (bench_common.h's SymmetrizeAuto).
Scalar SampledDdThreshold(const Digraph& g, const SymmetrizationOptions& sym,
                          Index target) {
  ThresholdSelectOptions select;
  select.target_avg_degree = target;
  return Must(SelectPruneThreshold(g, SymmetrizationMethod::kDegreeDiscounted,
                                   sym, select),
              "threshold")
      .threshold;
}

// ---------------------------------------------------------------- prepare

// Workload sizes at --scale=1 (the benchmark's size); the self-test runs at
// a small fraction. Sizing rationale lives in perfbench/README.md.
constexpr double kWikiArticles = 1200;
constexpr double kSocialUsers = 30000;
constexpr double kCitationPapers = 800;
constexpr double kLfrVertices = 2000;

// MLR-MCL coarsens the flow workload's graph down to this many vertices,
// so every job runs the full multilevel schedule (coarsest solve plus a
// refinement per level) on a graph small enough to repeat within a run.
constexpr Index kFlowCoarsestVertices = 150;

Index Scaled(double base, double scale, Index floor) {
  return std::max(floor, static_cast<Index>(std::lround(base * scale)));
}

void WriteDataset(const Dataset& d, const std::string& dir,
                  const std::string& name) {
  MustOk(WriteEdgeList(d.graph, dir + "/" + name + ".txt"), "write " + name);
  // ReadEdgeList sizes a graph by the largest vertex id in the file, so a
  // trailing vertex without edges does not exist for readers of the edge
  // list. Keep the ground truth to the same vertex range.
  const CsrMatrix& a = d.graph.adjacency();
  Index n = 0;
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index c : a.RowCols(r)) n = std::max({n, r + 1, c + 1});
  }
  GroundTruth truth = d.truth;
  for (std::vector<Index>& members : truth.categories) {
    std::erase_if(members, [n](Index v) { return v >= n; });
  }
  MustOk(WriteGroundTruth(truth, dir + "/" + name + ".truth"),
         "write " + name + " truth");
}

int Prepare(const Options& opts) {
  const std::string workload = opts.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(opts.GetInt("seed", 1));
  const double scale = opts.GetDouble("scale", 1.0);
  const std::string dir = opts.GetString("dir", "");
  fs::create_directories(dir);
  std::ostringstream manifest;
  manifest.precision(17);
  if (workload == "flow") {
    HyperlinkOptions o;
    o.num_articles = Scaled(kWikiArticles, scale, 300);
    o.num_categories = std::max<Index>(6, o.num_articles / 80);
    o.num_hubs = std::max<Index>(4, o.num_articles / 400);
    o.seed = seed * 7919 + 3;
    const Dataset d = Must(GenerateHyperlink(o), "generate wiki");
    WriteDataset(d, dir, "wiki");
    manifest << "vertices " << d.graph.NumVertices() << "\n";
  } else if (workload == "similarity" || workload == "out-of-core") {
    SocialOptions o;
    o.num_users = Scaled(kSocialUsers, scale, 1000);
    o.avg_out_degree = 12.0;
    o.p_reciprocal = 0.65;
    o.num_communities = std::max<Index>(10, o.num_users / 300);
    o.seed = seed * 7919 + 4;
    const Dataset d = Must(GenerateSocial(o), "generate social");
    WriteDataset(d, dir, "social");
    // The out-of-core workload's budget: a quarter of the in-memory fused
    // path's own estimate for this input, so kAuto always tiles. The
    // estimate depends on the sparsity pattern only, which both similarity
    // methods share with A.
    const CsrMatrix& a = d.graph.adjacency();
    const int64_t estimate =
        EstimateInMemorySymmetricSumBytes(a, a.Transpose(), 4);
    manifest << "vertices " << d.graph.NumVertices() << "\n";
    manifest << "in_memory_estimate_bytes " << estimate << "\n";
    manifest << "max_memory_bytes " << estimate / 4 << "\n";
  } else if (workload == "serve") {
    // Two instances of each graph: the request mix spreads over both, so a
    // seed's work averages over two random instances. Stage-1 thresholds
    // come from the Section 5.3.1 sampled selection, so every instance gets
    // a comparable symmetrized density.
    const SymmetrizationOptions sym;
    for (int i = 0; i < 2; ++i) {
      const std::string id = std::to_string(i);
      CitationOptions c;
      c.num_papers = Scaled(kCitationPapers, scale, 200);
      c.seed = seed * 7919 + 2 + 100 * i;
      const Dataset cite = Must(GenerateCitation(c), "generate citation");
      WriteDataset(cite, dir, "cite" + id);
      // Narrow degree and community-size ranges: graphs from different
      // seeds then cost the partitioners about the same, so seeds vary the
      // instance but not the amount of work.
      LfrOptions l;
      l.num_vertices = Scaled(kLfrVertices, scale, 300);
      l.min_degree = 8;
      l.max_degree = 24;
      l.min_community = 40;
      l.max_community = 80;
      l.seed = seed * 7919 + 6 + 100 * i;
      const Dataset lfr = Must(GenerateLfr(l), "generate lfr");
      WriteDataset(lfr, dir, "lfr" + id);
      manifest << "cite" << id << "_threshold "
               << SampledDdThreshold(cite.graph, sym, 30)
               << "\n";
      manifest << "lfr" << id << "_threshold "
               << SampledDdThreshold(lfr.graph, sym, 30)
               << "\n";
    }
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  WriteText(dir + "/manifest.txt", manifest.str());
  return 0;
}

// ---------------------------------------------------------------- batch

// One job = one file-to-file pipeline run, the unit a batch user submits.
struct Job {
  std::string name;
  SymmetrizationMethod method;
  double inflation = 0.0;  // flow only
};

std::vector<Job> JobsFor(const std::string& workload) {
  if (workload == "flow") {
    // The Fig. 8a comparison: MLR-MCL on the degree-discounted graph
    // against A+Aᵀ, at two inflations.
    return {{"dd_i2.0", SymmetrizationMethod::kDegreeDiscounted, 2.0},
            {"dd_i2.6", SymmetrizationMethod::kDegreeDiscounted, 2.6},
            {"aat_i2.0", SymmetrizationMethod::kAPlusAT, 2.0},
            {"aat_i2.6", SymmetrizationMethod::kAPlusAT, 2.6}};
  }
  return {{"dd", SymmetrizationMethod::kDegreeDiscounted},
          {"biblio", SymmetrizationMethod::kBibliometric}};
}

// The bibliometric jobs prune at a fixed count. The sampled selection
// returns an integer count that flips between 4 and 5 across seeds of the
// social stand-in, and at 4 the output is three times larger, so a sampled
// threshold would make the work depend on the seed.
constexpr Scalar kBibliometricThreshold = 5.0;

// The prune threshold of a job: sampled for degree-discounted (target
// average degree 80 on the wiki stand-in, 50 on the social one), fixed for
// bibliometric, none for A+Aᵀ.
Scalar JobThreshold(const std::string& workload, const Digraph& g,
                    const Job& job, const SymmetrizationOptions& sym) {
  switch (job.method) {
    case SymmetrizationMethod::kDegreeDiscounted:
      return SampledDdThreshold(g, sym, workload == "flow" ? 80 : 50);
    case SymmetrizationMethod::kBibliometric:
      return kBibliometricThreshold;
    default:
      return 0.0;
  }
}

struct BatchConfig {
  std::string workload;
  std::string dir;
  int threads = 4;
  int64_t max_memory_bytes = 0;  // out-of-core only
};

// A span from the benchmark's own code around one public call; a no-op
// without a registry, so untraced runs pay nothing.
template <typename F>
auto Timed(MetricsRegistry* reg, const char* name, F&& call) {
  StageSpan span(reg, name);
  return call();
}

std::string InputOf(const BatchConfig& cfg) {
  return cfg.dir + (cfg.workload == "flow" ? "/wiki.txt" : "/social.txt");
}

SymmetrizationOptions SymOptions(const BatchConfig& cfg, MetricsRegistry* reg,
                                 int threads) {
  SymmetrizationOptions sym;
  sym.num_threads = threads;
  sym.metrics = reg;
  if (cfg.workload == "out-of-core") {
    // Tiling is driven through the options field, not a pipeline budget:
    // a ResourceBudget also arms abort-on-charge for every other
    // allocation, which is not what this workload measures.
    sym.max_memory_bytes = cfg.max_memory_bytes;
    sym.spill_dir = cfg.dir + "/spill";
  }
  return sym;
}

// Runs one job end to end; returns the symmetrized graph for batch
// workloads that persist it (so the caller can save it untimed).
UGraph RunJob(const BatchConfig& cfg, const Job& job, int threads,
              MetricsRegistry* reg) {
  const bool flow = cfg.workload == "flow";
  StageSpan job_span(reg, "bench.job");
  job_span.Metric("job", job.name);
  const std::string input = InputOf(cfg);
  const std::string out = cfg.dir + "/out/" + job.name;
  const Digraph g = Timed(reg, "bench.graph.read", [&] {
    return Must(ReadEdgeList(input), "read " + input);
  });
  SymmetrizationOptions sym = SymOptions(cfg, reg, threads);
  sym.prune_threshold = Timed(reg, "bench.core.threshold_select", [&] {
    return JobThreshold(cfg.workload, g, job, sym);
  });
  UGraph u = Timed(reg, "bench.core.symmetrize", [&] {
    return Must(Symmetrize(g, job.method, sym), "symmetrize " + job.name);
  });
  if (flow) {
    MlrMclOptions mlr;
    mlr.rmcl.inflation = job.inflation;
    mlr.rmcl.num_threads = threads;
    mlr.coarsen.target_vertices = kFlowCoarsestVertices;
    mlr.metrics = reg;
    mlr.rmcl.metrics = reg;
    const Clustering c = Timed(reg, "bench.cluster.mlr_mcl", [&] {
      return Must(MlrMcl(u, mlr), "mlr-mcl " + job.name);
    });
    Timed(reg, "bench.graph.write", [&] {
      MustOk(WriteClustering(c, out + ".labels"), "write labels");
      return 0;
    });
  } else {
    // Every kept weight is >= the threshold, so scaling by its inverse
    // keeps METIS's integer weights >= 1.
    const double scale =
        sym.prune_threshold > 0 && job.method ==
                                       SymmetrizationMethod::kDegreeDiscounted
            ? 1.0 / sym.prune_threshold
            : 1.0;
    Timed(reg, "bench.graph.write", [&] {
      MustOk(WriteMetisGraph(u, out + ".metis", scale), "write metis");
      return 0;
    });
  }
  return u;
}

struct ListSample {
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<double> job_wall;
};

// Runs the job list once. Outputs of the warm-up list are kept aside (copied
// untimed) so verify can check that repeats are byte-identical.
ListSample RunList(const BatchConfig& cfg, int threads, MetricsRegistry* reg,
                   bool first) {
  ListSample sample;
  for (const Job& job : JobsFor(cfg.workload)) {
    const double w0 = WallNow();
    const double c0 = CpuNow();
    UGraph u = RunJob(cfg, job, threads, reg);
    const double wall = WallNow() - w0;
    sample.cpu += CpuNow() - c0;
    sample.wall += wall;
    sample.job_wall.push_back(wall);
    // Untimed: persist the exact symmetrized graph for the verifier.
    if (cfg.workload != "flow") {
      const std::string base = cfg.dir + "/out/" + job.name;
      MustOk(SaveUGraph(u, base + (first ? ".first.csr" : ".last.csr")),
             "save graph");
    } else if (first) {
      const std::string base = cfg.dir + "/out/" + job.name;
      fs::copy_file(base + ".labels", base + ".first.labels",
                    fs::copy_options::overwrite_existing);
    }
  }
  return sample;
}

// Grows the thread pool and runs the job list once, untimed: the timed
// lists then never pay first-call costs (pool growth, allocator arenas,
// page cache). Its outputs are the "first" ones verify compares against.
double WarmUp(const BatchConfig& cfg) {
  const double t0 = WallNow();
  GlobalThreadPool().EnsureWorkers(cfg.threads);
  (void)RunList(cfg, cfg.threads, nullptr, /*first=*/true);
  return WallNow() - t0;
}

struct Phase {
  std::vector<ListSample> lists;
  std::vector<std::string> reports;  // traced phase: one run report per list
};

Phase RunPhase(const BatchConfig& cfg, int threads, double seconds,
               bool traced) {
  Phase phase;
  const double start = WallNow();
  do {
    if (traced) {
      MetricsRegistry reg;
      phase.lists.push_back(RunList(cfg, threads, &reg, /*first=*/false));
      RunReportOptions ro;
      ro.compact = true;
      phase.reports.push_back(RunReportToJson(reg, ro));
    } else {
      phase.lists.push_back(RunList(cfg, threads, nullptr, /*first=*/false));
    }
  } while (WallNow() - start < seconds);
  return phase;
}

std::string PhaseJson(const Phase& phase) {
  std::vector<double> wall, cpu, jobs;
  for (const ListSample& s : phase.lists) {
    wall.push_back(s.wall);
    cpu.push_back(s.cpu);
    jobs.insert(jobs.end(), s.job_wall.begin(), s.job_wall.end());
  }
  std::string out = "{\"list_wall_s\": " + NumList(wall) +
                    ", \"list_cpu_s\": " + NumList(cpu) +
                    ", \"job_wall_s\": " + NumList(jobs);
  if (!phase.reports.empty()) {
    out += ", \"reports\": [";
    for (size_t i = 0; i < phase.reports.size(); ++i) {
      out += (i > 0 ? ", " : "") + phase.reports[i];
    }
    out += "]";
  }
  return out + "}";
}

int Batch(const Options& opts) {
  BatchConfig cfg;
  cfg.workload = opts.GetString("workload", "");
  cfg.dir = opts.GetString("dir", "");
  cfg.threads = static_cast<int>(opts.GetInt("threads", 4));
  const double seconds = opts.GetDouble("seconds", 10.0);
  const bool trace = opts.GetBool("trace", false);
  if (cfg.workload == "out-of-core") {
    cfg.max_memory_bytes =
        static_cast<int64_t>(ManifestValue(cfg.dir, "max_memory_bytes"));
  }
  fs::create_directories(cfg.dir + "/out");
  fs::create_directories(cfg.dir + "/spill");

  const double warmup_s = WarmUp(cfg);
  std::string json = "{\"warmup_s\": " + Num(warmup_s);
  if (!trace) {
    const Phase p = RunPhase(cfg, cfg.threads, seconds, false);
    json += ", \"untraced\": " + PhaseJson(p);
  } else {
    const Phase untraced = RunPhase(cfg, cfg.threads, seconds / 2, false);
    const Phase traced = RunPhase(cfg, cfg.threads, seconds / 2, true);
    const int scaling_threads =
        static_cast<int>(opts.GetInt("scaling-threads", 1));
    GlobalThreadPool().EnsureWorkers(scaling_threads);
    const Phase scaling = RunPhase(cfg, scaling_threads, 0.0, false);
    json += ", \"untraced\": " + PhaseJson(untraced) +
            ", \"traced\": " + PhaseJson(traced) +
            ", \"scaling\": " + PhaseJson(scaling);
    // Computed, not measured: the multiply-adds of both similarity
    // products of every job, from the factor matrices via SpGemmFlops.
    const Digraph g = Must(ReadEdgeList(InputOf(cfg)), "read");
    double flops = 0.0;
    for (const Job& job : JobsFor(cfg.workload)) {
      if (job.method == SymmetrizationMethod::kAPlusAT) continue;
      const SimilarityFactors f =
          Must(BuildSimilarityFactors(g, job.method), "factors");
      flops += static_cast<double>(SpGemmFlops(f.m, f.m.Transpose()));
      flops += static_cast<double>(SpGemmFlops(f.n.Transpose(), f.n));
    }
    json += ", \"spgemm_flops_per_list\": " + Num(flops);
  }
  json += ", \"peak_rss_mb\": " + Num(PeakRssMb()) + "}\n";
  WriteText(opts.GetString("out", cfg.dir + "/result.json"), json);
  return 0;
}

// ---------------------------------------------------------------- verify

uint64_t FileLabelsHash(const std::string& path) {
  const Clustering c = Must(ReadClustering(path), "read " + path);
  return LabelsHash(c.labels());
}

int Verify(const Options& opts) {
  const std::string workload = opts.GetString("workload", "");
  const std::string dir = opts.GetString("dir", "");
  const int threads = static_cast<int>(opts.GetInt("threads", 4));
  std::string json = "{\"jobs\": [";
  bool first_job = true;
  const bool flow = workload == "flow";
  const std::string name = flow ? "wiki" : "social";
  const Digraph g = Must(ReadEdgeList(dir + "/" + name + ".txt"), "read");
  const GroundTruth truth = Must(
      ReadGroundTruth(dir + "/" + name + ".truth", g.NumVertices()), "truth");
  for (const Job& job : JobsFor(workload)) {
    const std::string base = dir + "/out/" + job.name;
    std::string entry = "{\"job\": " + Quote(job.name);
    if (flow) {
      const Clustering c =
          Must(ReadClustering(base + ".labels"), "read labels");
      const double f = Must(EvaluateFScore(c, truth), "fscore").avg_f;
      const bool valid = c.NumVertices() == g.NumVertices() &&
                         c.NumClusters() > 1;
      entry += ", \"hash\": " + Quote(Hex(LabelsHash(c.labels()))) +
               ", \"first_hash\": " +
               Quote(Hex(FileLabelsHash(base + ".first.labels"))) +
               ", \"clusters\": " + std::to_string(c.NumClusters()) +
               ", \"valid\": " + (valid ? "true" : "false") +
               ", \"avg_f\": " + Num(f);
    } else {
      const UGraph first = Must(LoadUGraph(base + ".first.csr"), "load");
      const UGraph last = Must(LoadUGraph(base + ".last.csr"), "load");
      const UGraph metis = Must(ReadMetisGraph(base + ".metis"), "metis");
      // The other path: tiled for similarity, in memory for out-of-core.
      // Same threshold (the selection is seeded and thread-independent).
      SymmetrizationOptions sym;
      sym.num_threads = threads;
      sym.prune_threshold = JobThreshold(workload, g, job, sym);
      sym.spill_dir = dir + "/spill";
      sym.out_of_core = workload == "out-of-core" ? OutOfCoreMode::kOff
                                                  : OutOfCoreMode::kForce;
      const UGraph other = Must(Symmetrize(g, job.method, sym), "cross");
      // Quality of the degree-discounted graph as a downstream clusterer
      // sees it: Metis at the planted community count. (Metis on the
      // hub-heavy bibliometric graph costs ~5x more; its output is covered
      // by the hash checks alone.)
      double f = -1.0;
      if (job.method == SymmetrizationMethod::kDegreeDiscounted) {
        MetisOptions mo;
        mo.k = truth.NumCategories();
        const Clustering c = Must(MetisPartition(last, mo), "metis");
        f = Must(EvaluateFScore(c, truth), "fscore").avg_f;
      }
      const bool valid = metis.NumVertices() == last.NumVertices() &&
                         metis.NumEdges() == last.NumEdges();
      entry += ", \"hash\": " + Quote(Hex(GraphContentHash(last.adjacency()))) +
               ", \"first_hash\": " +
               Quote(Hex(GraphContentHash(first.adjacency()))) +
               ", \"cross_hash\": " +
               Quote(Hex(GraphContentHash(other.adjacency()))) +
               ", \"edges\": " + std::to_string(last.NumEdges()) +
               ", \"valid\": " + (valid ? "true" : "false") +
               ", \"avg_f\": " + Num(f);
    }
    json += (first_job ? "" : ", ") + entry + "}";
    first_job = false;
  }
  json += "]}\n";
  WriteText(opts.GetString("out", dir + "/verify.json"), json);
  return 0;
}

// ---------------------------------------------------------------- check

// In-process reference for sampled serve requests: the same request line,
// parsed by the server's own parser, run through SymmetrizeAndCluster.
int Check(const Options& opts) {
  std::ifstream in(opts.GetString("requests", ""));
  const int threads = static_cast<int>(opts.GetInt("threads", 4));
  std::string line;
  std::vector<std::string> hashes;
  std::vector<double> fscores;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const ServeRequest req = Must(ParseServeRequest(line), "parse request");
    PipelineOptions options = PipelineOptionsForRequest(req);
    options.num_threads = threads;
    const Digraph g = Must(ReadEdgeList(req.graph_path), "read");
    const PipelineResult r =
        Must(SymmetrizeAndCluster(g, options), "pipeline");
    hashes.push_back(Quote(Hex(LabelsHash(r.clustering.labels()))));
    // F-score against the input's ground truth (x.txt -> x.truth), 0 when
    // the input has none.
    const std::string truth_path =
        fs::path(req.graph_path).replace_extension(".truth").string();
    double f = 0.0;
    if (fs::exists(truth_path)) {
      const GroundTruth truth =
          Must(ReadGroundTruth(truth_path, g.NumVertices()), "truth");
      f = Must(EvaluateFScore(r.clustering, truth), "fscore").avg_f;
    }
    fscores.push_back(f);
  }
  std::string json = "{\"hashes\": [";
  for (size_t i = 0; i < hashes.size(); ++i) {
    json += (i > 0 ? ", " : "") + hashes[i];
  }
  json += "], \"avg_f\": " + NumList(fscores) + "}\n";
  WriteText(opts.GetString("out", "check.json"), json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver (prepare|batch|verify|check) "
                 "--flag=value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const Options opts = Must(Options::Parse(argc - 1, argv + 1), "flags");
  if (command == "prepare") return Prepare(opts);
  if (command == "batch") return Batch(opts);
  if (command == "verify") return Verify(opts);
  if (command == "check") return Check(opts);
  std::fprintf(stderr, "perfbench_driver: unknown command '%s'\n",
               command.c_str());
  return 2;
}
