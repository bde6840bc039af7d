// Golden end-to-end pipeline outputs: the cluster assignments and the
// redacted run report for all four symmetrizations x MLR-MCL on a small
// committed fixture are pinned byte-for-byte under tests/golden/. Any
// change to parsing, kernel arithmetic, iteration order, report schema or
// determinism shows up as a golden diff — deliberate changes regenerate
// with:
//
//   DGC_UPDATE_GOLDEN=1 ./golden_pipeline_test
//
// and commit the rewritten files. Each configuration is additionally run
// at 1, 8 and hardware threads and must match the same golden, which
// pins the thread-count-invariance contract to a concrete artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/mlr_mcl.h"
#include "cluster/pipeline.h"
#include "core/symmetrize.h"
#include "dynamic/delta.h"
#include "dynamic/incremental.h"
#include "eval/record.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "util/rng.h"

namespace dgc {
namespace {

const char kFixture[] = DGC_TEST_DATA_DIR "/data/planted_252.txt";
const char kGoldenDir[] = DGC_TEST_DATA_DIR "/golden";

bool UpdateGolden() { return std::getenv("DGC_UPDATE_GOLDEN") != nullptr; }

std::string LabelsToString(const Clustering& clustering) {
  std::ostringstream out;
  for (Index label : clustering.labels()) out << label << '\n';
  return out.str();
}

Result<std::string> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Compares `actual` against the committed golden (or rewrites it under
/// DGC_UPDATE_GOLDEN). Byte-for-byte: goldens are the determinism contract.
void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(kGoldenDir) + "/" + name;
  if (UpdateGolden()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  auto expected = ReadAll(path);
  ASSERT_TRUE(expected.ok())
      << expected.status().ToString()
      << " (run with DGC_UPDATE_GOLDEN=1 to create goldens)";
  EXPECT_EQ(actual, *expected)
      << "golden mismatch for " << name
      << " (regenerate with DGC_UPDATE_GOLDEN=1 if the change is intended)";
}

std::string MethodSlug(SymmetrizationMethod method) {
  switch (method) {
    case SymmetrizationMethod::kAPlusAT:
      return "a_plus_at";
    case SymmetrizationMethod::kRandomWalk:
      return "random_walk";
    case SymmetrizationMethod::kBibliometric:
      return "bibliometric";
    case SymmetrizationMethod::kDegreeDiscounted:
      return "degree_discounted";
  }
  return "unknown";
}

struct PipelineRun {
  std::string labels;
  std::string report;
};

PipelineRun RunPipeline(const Digraph& g, SymmetrizationMethod method,
                        int threads) {
  MetricsRegistry registry;
  PipelineOptions options;
  options.method = method;
  options.algorithm = ClusterAlgorithm::kMlrMcl;
  options.symmetrization.prune_threshold = 0.001;
  options.mlr_mcl.rmcl.max_iterations = 12;
  options.num_threads = threads;
  options.metrics = &registry;
  auto result = SymmetrizeAndCluster(g, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  PipelineRun run;
  if (result.ok()) {
    run.labels = LabelsToString(result->clustering);
    RecordClusteringMetrics(result->symmetrized, result->clustering,
                            &registry);
  }
  run.report =
      RunReportToJson(registry, RunReportOptions{/*redact_timings=*/true});
  return run;
}

class GoldenPipelineTest
    : public ::testing::TestWithParam<SymmetrizationMethod> {};

TEST_P(GoldenPipelineTest, LabelsAndReportMatchGoldenAtEveryThreadCount) {
  const SymmetrizationMethod method = GetParam();
  auto graph = ReadEdgeList(kFixture);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  const PipelineRun serial = RunPipeline(*graph, method, /*threads=*/1);
  const std::string slug = MethodSlug(method);
  CheckGolden(slug + ".labels.txt", serial.labels);
  CheckGolden(slug + ".report.json", serial.report);

  // The same goldens must hold at 8 threads and at hardware concurrency:
  // pinned artifacts make a thread-dependent divergence unmissable.
  for (int threads : {8, 0}) {
    const PipelineRun run = RunPipeline(*graph, method, threads);
    EXPECT_EQ(run.labels, serial.labels) << "threads=" << threads;
    EXPECT_EQ(run.report, serial.report) << "threads=" << threads;
  }
}

// Out-of-core tiled runs must reproduce the same byte-pinned goldens as
// the in-memory runs: tiling only changes the peak memory footprint, never
// the result (docs/OUT_OF_CORE.md). kForce + tile_rows=32 splits the
// 252-vertex fixture into 8 row blocks, exercising the spool + stitch
// path; every thread count must match the committed artifact AND the
// in-memory symmetrized matrix bit for bit. The non-similarity methods
// run too — tiling must be a no-op for them, not an error.
TEST_P(GoldenPipelineTest, OutOfCoreTiledRunsMatchTheSameGoldens) {
  const SymmetrizationMethod method = GetParam();
  auto graph = ReadEdgeList(kFixture);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const std::string slug = MethodSlug(method);

  PipelineOptions base;
  base.method = method;
  base.algorithm = ClusterAlgorithm::kMlrMcl;
  base.symmetrization.prune_threshold = 0.001;
  base.mlr_mcl.rmcl.max_iterations = 12;
  auto baseline = SymmetrizeAndCluster(*graph, base);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (int threads : {1, 8, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PipelineOptions options = base;
    options.num_threads = threads;
    options.symmetrization.out_of_core = OutOfCoreMode::kForce;
    options.symmetrization.tile_rows = 32;
    auto result = SymmetrizeAndCluster(*graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    CheckGolden(slug + ".labels.txt", LabelsToString(result->clustering));
    const CsrMatrix& expected = baseline->symmetrized.adjacency();
    const CsrMatrix& actual = result->symmetrized.adjacency();
    ASSERT_EQ(actual.nnz(), expected.nnz());
    EXPECT_TRUE(std::equal(actual.row_ptr().begin(), actual.row_ptr().end(),
                           expected.row_ptr().begin()));
    EXPECT_TRUE(std::equal(actual.col_idx().begin(), actual.col_idx().end(),
                           expected.col_idx().begin()));
    const auto av = actual.values();
    const auto ev = expected.values();
    EXPECT_EQ(0, std::memcmp(av.data(), ev.data(), av.size() * sizeof(Scalar)));
  }
}

bool HasArc(const CsrMatrix& a, Index u, Index v) {
  auto cols = a.RowCols(u);
  return std::binary_search(cols.begin(), cols.end(), v);
}

/// Deterministic delta batch derived from the current adjacency: two
/// deletes of existing arcs and two inserts of fresh arcs, seeded by the
/// batch index so the schedule is reproducible at any thread count (the
/// adjacency bytes it samples from are themselves thread-invariant).
EdgeDeltaBatch MakeReplayBatch(const CsrMatrix& a, uint64_t salt) {
  Rng rng(UINT64_C(0x601dfade) ^ salt);
  EdgeDeltaBatch batch;
  const Index n = a.rows();
  std::set<std::pair<Index, Index>> used;
  while (batch.deletes.size() < 2) {
    const Index u = static_cast<Index>(rng.UniformU64(n));
    auto cols = a.RowCols(u);
    if (cols.empty()) continue;
    const Index v = cols[rng.UniformU64(cols.size())];
    if (!used.insert({u, v}).second) continue;
    batch.deletes.push_back(EdgeKey{u, v});
  }
  while (batch.inserts.size() < 2) {
    const Index u = static_cast<Index>(rng.UniformU64(n));
    const Index v = static_cast<Index>(rng.UniformU64(n));
    if (u == v || HasArc(a, u, v)) continue;
    if (!used.insert({u, v}).second) continue;
    batch.inserts.push_back(
        Edge{u, v, 1.0 + 0.25 * static_cast<double>(rng.UniformU64(4))});
  }
  return batch;
}

// Batched-update replay (docs/DYNAMIC.md): a deterministic 4-batch delta
// schedule streamed through IncrementalSymmetrizer must land on a
// symmetrized matrix byte-identical to re-symmetrizing the updated graph
// from scratch, and the post-update MLR-MCL labels are pinned to a
// committed golden (regenerate with DGC_UPDATE_GOLDEN=1). Run at 1, 8
// and hardware threads: the updated labels carry the same
// thread-invariance contract as the static pipeline goldens above.
TEST_P(GoldenPipelineTest, BatchedUpdateReplayLabelsMatchGolden) {
  const SymmetrizationMethod method = GetParam();
  auto graph = ReadEdgeList(kFixture);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const std::string slug = MethodSlug(method);

  std::string serial_labels;
  for (int threads : {1, 8, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SymmetrizationOptions sym;
    sym.prune_threshold = 0.001;
    sym.num_threads = threads;
    auto inc = IncrementalSymmetrizer::Create(*graph, method, sym);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    for (uint64_t b = 0; b < 4; ++b) {
      EdgeDeltaBatch batch = MakeReplayBatch(inc->graph().adjacency(), b);
      Status applied = inc->ApplyDelta(batch);
      ASSERT_TRUE(applied.ok()) << "batch " << b << ": " << applied.ToString();
    }

    // The streamed result must be bit-identical to a from-scratch
    // symmetrization of the updated digraph before any label pinning.
    auto updated = inc->graph().ToDigraph();
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    auto scratch = Symmetrize(*updated, method, sym);
    ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
    const CsrMatrix& got = inc->symmetrized().adjacency();
    const CsrMatrix& want = scratch->adjacency();
    ASSERT_EQ(got.nnz(), want.nnz());
    EXPECT_EQ(0, std::memcmp(got.row_ptr().data(), want.row_ptr().data(),
                             got.row_ptr().size_bytes()));
    EXPECT_EQ(0, std::memcmp(got.col_idx().data(), want.col_idx().data(),
                             got.col_idx().size_bytes()));
    EXPECT_EQ(0, std::memcmp(got.values().data(), want.values().data(),
                             got.values().size_bytes()));

    MlrMclOptions mlr;
    mlr.rmcl.max_iterations = 12;
    mlr.rmcl.num_threads = threads;
    auto clustering = MlrMcl(inc->symmetrized(), mlr);
    ASSERT_TRUE(clustering.ok()) << clustering.status().ToString();
    const std::string labels = LabelsToString(*clustering);
    if (threads == 1) {
      serial_labels = labels;
      CheckGolden(slug + ".update.labels.txt", labels);
    } else {
      EXPECT_EQ(labels, serial_labels);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, GoldenPipelineTest,
    ::testing::Values(SymmetrizationMethod::kAPlusAT,
                      SymmetrizationMethod::kRandomWalk,
                      SymmetrizationMethod::kBibliometric,
                      SymmetrizationMethod::kDegreeDiscounted),
    [](const ::testing::TestParamInfo<SymmetrizationMethod>& info) {
      switch (info.param) {
        case SymmetrizationMethod::kAPlusAT:
          return "APlusAT";
        case SymmetrizationMethod::kRandomWalk:
          return "RandomWalk";
        case SymmetrizationMethod::kBibliometric:
          return "Bibliometric";
        case SymmetrizationMethod::kDegreeDiscounted:
          return "DegreeDiscounted";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace dgc
