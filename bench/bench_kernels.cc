// Micro-benchmarks (google-benchmark) for the computational kernels the
// symmetrization framework is built on: sparse transpose, SpGEMM with and
// without pruning, PageRank power iteration, the four symmetrizations, the
// similarity symmetrizations on the paper's four stand-in datasets, and
// the edge-list reader and METIS writer.
// Complements the per-table experiment binaries.
//
// Flags (consumed before google-benchmark sees the command line):
//   --json=<path>   write the google-benchmark JSON report to <path>
//                   (shorthand for --benchmark_out=<path>
//                   --benchmark_out_format=json). Refused in non-Release
//                   builds so a debug binary cannot silently overwrite the
//                   committed baseline; --allow-debug-json overrides and
//                   tags the report context with dgc_build_type=debug.
//   --scale=<f>     scale factor for the stand-in datasets (default 1;
//                   CI smoke runs use a small fraction)
//   --tile-rows=<n> pin the tiled SpGEMM benches to one tile height
//                   instead of their registered sweep
//   --roofline=<path>  skip google-benchmark entirely: measure per-kernel
//                   arithmetic intensity and achieved GFLOP/s / GB/s for
//                   the SpGEMM / R-MCL hot-path kernels against ceilings
//                   probed from this machine (bench/hw_probe.h), write a
//                   dgc.roofline.v2 JSON document to <path> and exit.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/hw_probe.h"
#include "bench/stand_ins.h"
#include "cluster/mcl.h"
#include "core/all_pairs.h"
#include "core/symmetrize.h"
#include "gen/rmat.h"
#include "graph/io.h"
#include "util/logging.h"
#include "linalg/power_iteration.h"
#include "linalg/spgemm.h"
#include "linalg/spgemm_tiled.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

// Stand-in dataset scale, settable via --scale= (file-scope so the custom
// main below can write it before benchmark registration runs).
static double g_dataset_scale = 1.0;

// Tile height override for the tiled SpGEMM benches, settable via
// --tile-rows=. 0 (the default) keeps the registered sweep; a positive
// value pins every tiled bench to that height (the benches read it at run
// time, so no re-registration is needed).
static long g_tile_rows = 0;

namespace dgc {
namespace {

Dataset MakeGraph(int scale) {
  RmatOptions options;
  options.scale = scale;
  options.edge_factor = 8.0;
  auto dataset = GenerateRmat(options);
  DGC_CHECK(dataset.ok());
  return std::move(dataset).ValueOrDie();
}

/// The paper's four stand-in datasets (Section 4.1), generated lazily and
/// cached: benchmark registration enumerates them by index 0..3.
const Dataset& StandIn(int64_t index) {
  static std::array<std::unique_ptr<Dataset>, 4> cache;
  auto& slot = cache[static_cast<size_t>(index)];
  if (slot == nullptr) {
    switch (index) {
      case 0:
        slot = std::make_unique<Dataset>(bench::MakeCora(g_dataset_scale));
        break;
      case 1:
        slot = std::make_unique<Dataset>(bench::MakeWiki(g_dataset_scale));
        break;
      case 2:
        slot = std::make_unique<Dataset>(bench::MakeFlickr(g_dataset_scale));
        break;
      default:
        slot = std::make_unique<Dataset>(
            bench::MakeLivejournal(g_dataset_scale));
        break;
    }
  }
  return *slot;
}

void BM_Transpose(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  const CsrMatrix& a = d.graph.adjacency();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Transpose());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Transpose)->Arg(12)->Arg(14);

void BM_SpGemmAAt(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  const CsrMatrix& a = d.graph.adjacency();
  SpGemmOptions options;
  options.threshold = 0.5;  // keep counts >= 1
  for (auto _ : state) {
    auto c = SpGemmAAt(a, options);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() *
                          SpGemmFlops(a, a.Transpose()));
}
BENCHMARK(BM_SpGemmAAt)->Arg(10)->Arg(12);

void BM_PageRank(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  PageRankOptions options;
  options.teleport = 0.05;
  for (auto _ : state) {
    auto pr = PageRank(d.graph.adjacency(), options);
    benchmark::DoNotOptimize(pr);
  }
  state.SetItemsProcessed(state.iterations() * d.graph.NumEdges());
}
BENCHMARK(BM_PageRank)->Arg(12)->Arg(14);

void BM_SymmetrizeAPlusAT(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto u = SymmetrizeAPlusAT(d.graph);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_SymmetrizeAPlusAT)->Arg(12)->Arg(14);

void BM_SymmetrizeRandomWalk(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto u = SymmetrizeRandomWalk(d.graph);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_SymmetrizeRandomWalk)->Arg(12)->Arg(14);

void BM_SymmetrizeBibliometric(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  SymmetrizationOptions options;
  options.prune_threshold = 2.0;
  for (auto _ : state) {
    auto u = SymmetrizeBibliometric(d.graph, options);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_SymmetrizeBibliometric)->Arg(10)->Arg(12);

void BM_SymmetrizeDegreeDiscounted(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  SymmetrizationOptions options;
  options.prune_threshold = 0.05;
  for (auto _ : state) {
    auto u = SymmetrizeDegreeDiscounted(d.graph, options);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_SymmetrizeDegreeDiscounted)->Arg(10)->Arg(12);

void BM_DegreeDiscountedParallel(benchmark::State& state) {
  Dataset d = MakeGraph(12);
  SymmetrizationOptions options;
  options.prune_threshold = 0.05;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto u = SymmetrizeDegreeDiscounted(d.graph, options);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_DegreeDiscountedParallel)->Arg(1)->Arg(2)->Arg(4);

// Threaded kernel variants — ArgPair(scale, threads). These measure the
// speedup curve of the row-parallel hot path (the ISSUE-1 acceptance
// criterion compares threads = 8 against threads = 1 at scale 14).

void BM_TransposeThreads(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  const CsrMatrix& a = d.graph.adjacency();
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Transpose(threads));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_TransposeThreads)
    ->ArgPair(14, 1)
    ->ArgPair(14, 2)
    ->ArgPair(14, 4)
    ->ArgPair(14, 8)
    ->UseRealTime();

void BM_SpGemmAAtThreads(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  const CsrMatrix& a = d.graph.adjacency();
  SpGemmOptions options;
  options.threshold = 0.5;  // keep counts >= 1
  options.num_threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto c = SpGemmAAt(a, options);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() *
                          SpGemmFlops(a, a.Transpose()));
}
BENCHMARK(BM_SpGemmAAtThreads)
    ->ArgPair(14, 1)
    ->ArgPair(14, 2)
    ->ArgPair(14, 4)
    ->ArgPair(14, 8)
    ->UseRealTime();

void BM_RmclIterateThreads(benchmark::State& state) {
  Dataset d = MakeGraph(static_cast<int>(state.range(0)));
  auto u = SymmetrizeAPlusAT(d.graph);
  DGC_CHECK(u.ok());
  RmclOptions options;
  options.num_threads = static_cast<int>(state.range(1));
  options.convergence_tol = 0.0;  // fixed work: never early-exit
  const CsrMatrix mg =
      BuildFlowMatrix(*u, options.self_loop_scale, options.num_threads);
  for (auto _ : state) {
    auto flow = RmclIterate(mg, mg, options, /*iterations=*/4);
    benchmark::DoNotOptimize(flow);
  }
  state.SetItemsProcessed(state.iterations() * 4 * mg.nnz());
}
BENCHMARK(BM_RmclIterateThreads)
    ->ArgPair(14, 1)
    ->ArgPair(14, 2)
    ->ArgPair(14, 4)
    ->ArgPair(14, 8)
    ->UseRealTime();

// The similarity symmetrizations on the four stand-in datasets (Arg =
// dataset index).

void BM_DegreeDiscountedFused(benchmark::State& state) {
  const Dataset& d = StandIn(state.range(0));
  SymmetrizationOptions options;
  options.prune_threshold = 0.05;
  for (auto _ : state) {
    auto u = SymmetrizeDegreeDiscounted(d.graph, options);
    benchmark::DoNotOptimize(u);
  }
  state.SetLabel(d.name);
}
BENCHMARK(BM_DegreeDiscountedFused)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_BibliometricFused(benchmark::State& state) {
  const Dataset& d = StandIn(state.range(0));
  SymmetrizationOptions options;
  options.prune_threshold = 2.0;
  for (auto _ : state) {
    auto u = SymmetrizeBibliometric(d.graph, options);
    benchmark::DoNotOptimize(u);
  }
  state.SetLabel(d.name);
}
BENCHMARK(BM_BibliometricFused)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

// Observability overhead — the same Degree-discounted run with the null
// sink (no --report=, the library default) vs a live MetricsRegistry.
// Interleaved by Arg so both variants see the same machine state; the
// acceptance criterion is no measurable regression for the null sink
// relative to the pre-instrumentation baseline, and the live sink shows
// the true cost of recording.

void RunSinkOverhead(benchmark::State& state, bool live_sink) {
  const Dataset& d = StandIn(state.range(0));
  SymmetrizationOptions options;
  options.prune_threshold = 0.05;
  for (auto _ : state) {
    MetricsRegistry registry;
    options.metrics = live_sink ? &registry : nullptr;
    auto u = SymmetrizeDegreeDiscounted(d.graph, options);
    benchmark::DoNotOptimize(u);
  }
  state.SetLabel(d.name);
}

void BM_DegreeDiscountedNullSink(benchmark::State& state) {
  RunSinkOverhead(state, /*live_sink=*/false);
}
BENCHMARK(BM_DegreeDiscountedNullSink)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_DegreeDiscountedLiveSink(benchmark::State& state) {
  RunSinkOverhead(state, /*live_sink=*/true);
}
BENCHMARK(BM_DegreeDiscountedLiveSink)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

// Tiled vs in-memory fused similarity sum (docs/OUT_OF_CORE.md) on the
// four stand-in datasets. BM_SymmetricProductSumInMemory is the in-memory
// oracle (two upper-triangle products + fused merge); the tiled variant
// runs the identical math through row-block tiles and the disk spool —
// ArgsProduct(dataset, tile_rows), overridable with --tile-rows=N. A tile
// height of at least the row count is a one-tile plan, which runs the
// in-memory kernels. The outputs are bit-identical
// (tests/spgemm_tiled_test.cc pins that), so cpu_time ratios directly
// price the spool + stitch overhead per tile geometry.

void BM_SymmetricProductSumInMemory(benchmark::State& state) {
  const Dataset& d = StandIn(state.range(0));
  const CsrMatrix& a = d.graph.adjacency();
  const CsrMatrix at = a.Transpose();
  SpGemmOptions product;
  product.threshold = 0.025;
  product.drop_diagonal = true;
  SpGemmOptions sum;
  sum.threshold = 0.05;
  sum.drop_diagonal = true;
  for (auto _ : state) {
    auto b = SpGemmAAtSymmetric(a, {}, {}, product, &at);
    DGC_CHECK(b.ok());
    auto c = SpGemmAAtSymmetric(at, {}, {}, product, &a);
    DGC_CHECK(c.ok());
    auto u = SpGemmSymmetricSum(*b, *c, sum);
    DGC_CHECK(u.ok());
    benchmark::DoNotOptimize(u);
  }
  state.SetLabel(d.name);
}
BENCHMARK(BM_SymmetricProductSumInMemory)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_SymmetricProductSumTiled(benchmark::State& state) {
  const Dataset& d = StandIn(state.range(0));
  const CsrMatrix& a = d.graph.adjacency();
  const CsrMatrix at = a.Transpose();
  TiledSymmetricSumOptions options;
  options.threshold = 0.05;
  options.tile_rows = g_tile_rows > 0 ? static_cast<Index>(g_tile_rows)
                                      : static_cast<Index>(state.range(1));
  for (auto _ : state) {
    auto u = SymmetricProductSum(a, at, {}, {}, {}, {}, options);
    DGC_CHECK(u.ok());
    benchmark::DoNotOptimize(u);
  }
  state.SetLabel(d.name + "/tile" + std::to_string(options.tile_rows));
}
BENCHMARK(BM_SymmetricProductSumTiled)
    ->ArgsProduct({{0, 1, 2, 3}, {1024, 8192}})
    ->Unit(benchmark::kMillisecond);

// End-to-end: the degree-discounted symmetrization forced through the
// out-of-core path, directly comparable to BM_DegreeDiscountedFused.
void BM_DegreeDiscountedTiled(benchmark::State& state) {
  const Dataset& d = StandIn(state.range(0));
  SymmetrizationOptions options;
  options.prune_threshold = 0.05;
  options.out_of_core = OutOfCoreMode::kForce;
  options.tile_rows = g_tile_rows > 0 ? static_cast<Index>(g_tile_rows)
                                      : static_cast<Index>(state.range(1));
  for (auto _ : state) {
    auto u = SymmetrizeDegreeDiscounted(d.graph, options);
    benchmark::DoNotOptimize(u);
  }
  state.SetLabel(d.name + "/tile" + std::to_string(options.tile_rows));
}
BENCHMARK(BM_DegreeDiscountedTiled)
    ->ArgsProduct({{0, 1, 2, 3}, {1024, 8192}})
    ->Unit(benchmark::kMillisecond);

void BM_AllPairsSimilarityThreads(benchmark::State& state) {
  const Dataset& d = StandIn(1);  // wiki stand-in: hubs + skewed weights
  auto factors = BuildSimilarityFactors(
      d.graph, SymmetrizationMethod::kDegreeDiscounted, {});
  DGC_CHECK(factors.ok());
  AllPairsOptions options;
  options.threshold = 0.05;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto sim = AllPairsSimilarity(factors->m, options);
    benchmark::DoNotOptimize(sim);
  }
  state.SetLabel(d.name);
}
BENCHMARK(BM_AllPairsSimilarityThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Text I/O on the social stand-in (LiveJournal settings, as perfbench's
// `similarity` input): the layer under perfbench's graph.read_s and
// graph.write_s. The read bench parses the stand-in's edge list; the write
// bench writes its Degree-discounted graph as METIS, weights scaled by the
// inverse prune threshold as perfbench does.

std::string BenchFile(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dgc_bench_") + std::to_string(::getpid()) + "_" +
           name))
      .string();
}

void BM_ReadEdgeList(benchmark::State& state) {
  const Dataset& d = StandIn(3);
  const std::string path = BenchFile("edges.txt");
  DGC_CHECK(WriteEdgeList(d.graph, path).ok());
  for (auto _ : state) {
    auto g = ReadEdgeList(path);
    DGC_CHECK(g.ok());
    benchmark::DoNotOptimize(g);
  }
  state.SetBytesProcessed(state.iterations() *
                          std::filesystem::file_size(path));
  std::filesystem::remove(path);
  state.SetLabel(d.name);
}
BENCHMARK(BM_ReadEdgeList)->Unit(benchmark::kMillisecond);

// The CSR build under ReadEdgeList, on the stand-in's edges: arg 0 in the
// row order every writer here produces (no row needs sorting), arg 1
// shuffled (each row that comes out of column order is stable-sorted).
void BM_FromTriplets(benchmark::State& state) {
  const Dataset& d = StandIn(3);
  const CsrMatrix& adj = d.graph.adjacency();
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(adj.nnz()));
  for (Index r = 0; r < adj.rows(); ++r) {
    for (size_t i = 0; i < adj.RowCols(r).size(); ++i) {
      triplets.push_back(Triplet{r, adj.RowCols(r)[i], adj.RowValues(r)[i]});
    }
  }
  if (state.range(0) == 1) {
    Rng rng(7);
    rng.Shuffle(triplets);
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Triplet> copy = triplets;
    state.ResumeTiming();
    auto m = CsrMatrix::FromTriplets(adj.rows(), adj.cols(), std::move(copy));
    DGC_CHECK(m.ok());
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(triplets.size()));
  state.SetLabel(std::string(d.name) +
                 (state.range(0) == 1 ? " shuffled" : " row-ordered"));
}
BENCHMARK(BM_FromTriplets)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_WriteMetisGraph(benchmark::State& state) {
  const Dataset& d = StandIn(3);
  SymmetrizationOptions options;
  options.prune_threshold = 0.05;
  auto u = SymmetrizeDegreeDiscounted(d.graph, options);
  DGC_CHECK(u.ok());
  const std::string path = BenchFile("graph.metis");
  for (auto _ : state) {
    DGC_CHECK(WriteMetisGraph(*u, path, 1.0 / options.prune_threshold).ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          std::filesystem::file_size(path));
  std::filesystem::remove(path);
  state.SetLabel(d.name);
}
BENCHMARK(BM_WriteMetisGraph)->Unit(benchmark::kMillisecond);

}  // namespace

// ---------------------------------------------------------------------------
// Roofline mode (--roofline=<path>): direct CPU-time measurement of the
// SpGEMM / R-MCL hot-path kernels with explicit flop and byte models,
// reported against this machine's measured ceilings (bench/hw_probe.h).
//
// Traffic model (documented in docs/PERFORMANCE.md): every inner
// multiply-add streams one 12-byte (col, val) CSR pair; each input matrix
// is additionally read once and the output written once at 12 bytes per
// entry — bytes = 12*madds + 12*(nnz_in + nnz_out). Dense-accumulator and
// marker traffic is deliberately excluded (it is the cache-resident part
// of the working set), so the reported GB/s understates true traffic when
// the accumulator misses; flops count 2 per multiply-add with scaling
// multiplies excluded. The models make intensities comparable
// across kernels and runs — they are not a hardware counter substitute.
// ---------------------------------------------------------------------------

namespace {

struct RooflineRow {
  std::string kernel;
  std::string dataset;
  double cpu_seconds = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
};

/// Best-of-reps CPU time for one kernel invocation (one warm-up run, then
/// repetitions until 0.25 CPU-seconds or 10 reps, min taken).
double TimeBest(const std::function<void()>& fn) {
  fn();  // warm-up: page in inputs, size workspaces
  double best = -1.0;
  double total = 0.0;
  for (int rep = 0; rep < 10 && (total < 0.25 || rep < 3); ++rep) {
    ProcessCpuTimer timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    total += seconds;
    if (best < 0.0 || seconds < best) best = seconds;
  }
  return best;
}

int RunRoofline(const std::string& path) {
  const HwInfo hw = ProbeHardware();
  std::vector<RooflineRow> rows;

  for (int64_t index = 0; index < 4; ++index) {
    const Dataset& d = StandIn(index);
    const CsrMatrix& a = d.graph.adjacency();
    const CsrMatrix at = a.Transpose();
    const double nnz = static_cast<double>(a.nnz());
    const double madds = static_cast<double>(SpGemmFlops(a, at));

    SpGemmOptions product_options;
    product_options.threshold = 0.025;
    product_options.drop_diagonal = true;

    RooflineRow transpose{"transpose", d.name, 0.0, 0.0, 24.0 * nnz};
    transpose.cpu_seconds = TimeBest([&] {
      benchmark::DoNotOptimize(a.Transpose());
    });
    rows.push_back(transpose);

    RooflineRow aat{"spgemm_aat", d.name, 0.0, 2.0 * madds,
                    12.0 * madds + 12.0 * 2.0 * nnz};
    aat.cpu_seconds = TimeBest([&] {
      auto c = SpGemmAAt(a, product_options);
      DGC_CHECK(c.ok());
      benchmark::DoNotOptimize(c);
    });
    rows.push_back(aat);

    // The symmetric kernel computes only the upper triangle: half the
    // multiply-adds of the full product (model; the exact share depends on
    // the candidate distribution).
    auto upper = SpGemmAAtSymmetric(a, {}, {}, product_options, &at);
    DGC_CHECK(upper.ok());
    RooflineRow sym{"spgemm_aat_symmetric", d.name, 0.0, madds,
                    6.0 * madds + 12.0 * (nnz + static_cast<double>(
                                                    upper->nnz()))};
    sym.cpu_seconds = TimeBest([&] {
      auto c = SpGemmAAtSymmetric(a, {}, {}, product_options, &at);
      DGC_CHECK(c.ok());
      benchmark::DoNotOptimize(c);
    });
    rows.push_back(sym);

    auto upper_c = SpGemmAAtSymmetric(at, {}, {}, product_options, &a);
    DGC_CHECK(upper_c.ok());
    const double sum_in = static_cast<double>(upper->nnz() + upper_c->nnz());
    SpGemmOptions sum_options;
    sum_options.threshold = 0.05;
    sum_options.drop_diagonal = true;
    RooflineRow sum{"spgemm_symmetric_sum", d.name, 0.0, sum_in,
                    12.0 * 2.0 * sum_in};
    sum.cpu_seconds = TimeBest([&] {
      auto c = SpGemmSymmetricSum(*upper, *upper_c, sum_options);
      DGC_CHECK(c.ok());
      benchmark::DoNotOptimize(c);
    });
    rows.push_back(sum);

    // Out-of-core tiled product sum at ~8 tiles (enough spool traffic to
    // be representative). Flops: both upper products, 2 per multiply-add
    // over half the candidates each. Bytes extend the streaming model
    // with the spool round trip: each merged tile entry is written to and
    // read back from disk at 12 bytes (24 per entry total), on top of the
    // product streams, one read of each input and the output write.
    {
      TiledSymmetricSumOptions tiled_options;
      tiled_options.threshold = 0.05;
      tiled_options.tile_rows = std::max<Index>(1, a.rows() / 8);
      auto tiled_out =
          SymmetricProductSum(a, at, {}, {}, {}, {}, tiled_options);
      DGC_CHECK(tiled_out.ok());
      const double madds_c = static_cast<double>(SpGemmFlops(at, a));
      const double spooled =
          static_cast<double>(upper->nnz() + upper_c->nnz());
      RooflineRow tiled{"spgemm_tiled_product_sum", d.name, 0.0,
                       madds + madds_c,
                       6.0 * (madds + madds_c) + 24.0 * spooled +
                           12.0 * (2.0 * nnz +
                                   static_cast<double>(tiled_out->nnz()))};
      tiled.cpu_seconds = TimeBest([&] {
        auto c = SymmetricProductSum(a, at, {}, {}, {}, {}, tiled_options);
        DGC_CHECK(c.ok());
        benchmark::DoNotOptimize(c);
      });
      rows.push_back(tiled);
    }

    auto mirrored = MirrorUpperTriangle(*upper);
    DGC_CHECK(mirrored.ok());
    RooflineRow mirror{"mirror_upper_triangle", d.name, 0.0, 0.0,
                       12.0 * (static_cast<double>(upper->nnz()) +
                               static_cast<double>(mirrored->nnz()))};
    mirror.cpu_seconds = TimeBest([&] {
      auto c = MirrorUpperTriangle(*upper);
      DGC_CHECK(c.ok());
      benchmark::DoNotOptimize(c);
    });
    rows.push_back(mirror);

    auto u = SymmetrizeAPlusAT(d.graph);
    DGC_CHECK(u.ok());
    RmclOptions rmcl_options;
    rmcl_options.convergence_tol = 0.0;
    const CsrMatrix mg = BuildFlowMatrix(*u, rmcl_options.self_loop_scale,
                                         rmcl_options.num_threads);
    const double rmcl_madds = static_cast<double>(SpGemmFlops(mg, mg));
    const double mg_nnz = static_cast<double>(mg.nnz());
    RooflineRow rmcl{"rmcl_iterate", d.name, 0.0, 2.0 * rmcl_madds,
                     12.0 * rmcl_madds + 12.0 * 2.0 * mg_nnz};
    rmcl.cpu_seconds = TimeBest([&] {
      auto flow = RmclIterate(mg, mg, rmcl_options, /*iterations=*/1);
      DGC_CHECK(flow.ok());
      benchmark::DoNotOptimize(flow);
    });
    rows.push_back(rmcl);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  char buf[512];
  out << "{\"schema\":\"dgc.roofline.v2\",\n";
  out << "\"hardware\":" << HwInfoJson(hw) << ",\n";
  std::snprintf(buf, sizeof(buf),
                "\"dataset_scale\":%.6g,\"build_type\":\"%s\",\n",
                g_dataset_scale,
#ifdef NDEBUG
                "release"
#else
                "debug"
#endif
  );
  out << buf;
  out << "\"kernels\":[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const RooflineRow& r = rows[i];
    const double intensity = r.bytes > 0.0 ? r.flops / r.bytes : 0.0;
    const double gflops =
        r.cpu_seconds > 0.0 ? r.flops / r.cpu_seconds / 1e9 : 0.0;
    const double gbps =
        r.cpu_seconds > 0.0 ? r.bytes / r.cpu_seconds / 1e9 : 0.0;
    // The roof at this intensity: bandwidth-limited below the ridge point,
    // compute-limited above it (single-thread kernels measure against the
    // one-core mul+add ceiling — they cannot exceed it).
    const double bw_roof = hw.stream_triad_gbps * intensity;
    const double roof =
        r.flops > 0.0 ? std::min(bw_roof, hw.mulladd_gflops) : 0.0;
    std::snprintf(
        buf, sizeof(buf),
        "{\"kernel\":\"%s\",\"dataset\":\"%s\",\"cpu_seconds\":%.6g,"
        "\"flops\":%.6g,\"bytes\":%.6g,\"arithmetic_intensity\":%.6g,"
        "\"gflops\":%.6g,\"gbps\":%.6g,\"roof_gflops\":%.6g,"
        "\"percent_of_roof\":%.4g,\"bound\":\"%s\"}%s\n",
        r.kernel.c_str(), r.dataset.c_str(), r.cpu_seconds, r.flops, r.bytes,
        intensity, gflops, gbps, roof,
        roof > 0.0 ? 100.0 * gflops / roof : 0.0,
        r.flops <= 0.0 ? "memory"
        : bw_roof < hw.mulladd_gflops ? "memory"
                                      : "compute",
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  std::printf("roofline: %zu kernel measurements -> %s\n", rows.size(),
              path.c_str());
  return 0;
}

}  // namespace
}  // namespace dgc

// Custom main: peel off --json= / --scale= / --roofline= before handing the
// remaining flags to google-benchmark.
int main(int argc, char** argv) {
#ifdef NDEBUG
  const bool release_build = true;
#else
  const bool release_build = false;
#endif
  std::vector<std::string> storage;
  storage.reserve(static_cast<size_t>(argc) + 2);
  std::string roofline_path;
  bool wants_json = false;
  bool allow_debug_json = false;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      wants_json = true;
      storage.emplace_back(std::string("--benchmark_out=") + (arg + 7));
      storage.emplace_back("--benchmark_out_format=json");
    } else if (std::strcmp(arg, "--allow-debug-json") == 0) {
      allow_debug_json = true;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      g_dataset_scale = std::strtod(arg + 8, nullptr);
      DGC_CHECK(g_dataset_scale > 0.0) << "--scale must be positive";
    } else if (std::strncmp(arg, "--tile-rows=", 12) == 0) {
      g_tile_rows = std::strtol(arg + 12, nullptr, 10);
      DGC_CHECK(g_tile_rows > 0) << "--tile-rows must be positive";
    } else if (std::strncmp(arg, "--roofline=", 11) == 0) {
      roofline_path = arg + 11;
    } else {
      storage.emplace_back(arg);
    }
  }
  // Measurement-integrity guard: a debug binary must not silently produce
  // the JSON that same-build A/B comparisons are read from. The override
  // still tags the report so a debug artifact can never masquerade as a
  // Release measurement.
  if (wants_json && !release_build && !allow_debug_json) {
    std::fprintf(stderr,
                 "bench_kernels: refusing --json= from a non-Release build "
                 "(assertions skew timings); rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release or pass --allow-debug-json to "
                 "emit a debug-tagged report\n");
    return 1;
  }
  benchmark::AddCustomContext("dgc_build_type",
                              release_build ? "release" : "debug");
  if (!roofline_path.empty()) {
    return dgc::RunRoofline(roofline_path);
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
