// Bit-identical determinism of every parallel kernel: each test runs the
// same computation at num_threads = 1 and num_threads = 8 (plus 0 = auto
// where cheap) on R-MAT and LFR graphs and requires exactly equal results.
// This is the contract that lets the experiment harnesses enable threads
// without perturbing any paper figure.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/coarsen.h"
#include "cluster/mcl.h"
#include "cluster/mlr_mcl.h"
#include "cluster/pipeline.h"
#include "core/all_pairs.h"
#include "core/symmetrize.h"
#include "gen/lfr.h"
#include "gen/rmat.h"
#include "graph/digraph.h"
#include "linalg/csr_matrix.h"
#include "linalg/spgemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dgc {
namespace {

struct GraphCase {
  std::string name;
  Digraph (*make)();
};

// Test names embed the printed parameter; printing the graph name keeps
// them the same from run to run (the default prints the struct's raw
// bytes, which include heap addresses).
void PrintTo(const GraphCase& c, std::ostream* os) { *os << c.name; }

Digraph MakeRmatGraph() {
  RmatOptions options;
  options.scale = 9;
  options.edge_factor = 8.0;
  auto dataset = GenerateRmat(options);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).ValueOrDie().graph;
}

Digraph MakeLfrGraph() {
  LfrOptions options;
  options.num_vertices = 1200;
  options.style = LfrCommunityStyle::kCocitation;
  options.authority_overlap = 0.3;
  auto dataset = GenerateLfr(options);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).ValueOrDie().graph;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<GraphCase> {};

INSTANTIATE_TEST_SUITE_P(
    Graphs, ParallelDeterminismTest,
    ::testing::Values(GraphCase{"Rmat", &MakeRmatGraph},
                      GraphCase{"Lfr", &MakeLfrGraph}),
    [](const auto& info) { return info.param.name; });

TEST_P(ParallelDeterminismTest, TransposeMatchesSerial) {
  const Digraph g = GetParam().make();
  const CsrMatrix& a = g.adjacency();
  const CsrMatrix serial = a.Transpose(1);
  EXPECT_EQ(serial, a.Transpose(8));
  EXPECT_EQ(serial, a.Transpose(0));
  EXPECT_EQ(serial, a.Transpose(3));
}

TEST_P(ParallelDeterminismTest, SpGemmMatchesSerial) {
  const Digraph g = GetParam().make();
  const CsrMatrix& a = g.adjacency();
  for (Scalar threshold : {0.0, 0.5}) {
    SpGemmOptions options;
    options.threshold = threshold;
    options.num_threads = 1;
    auto serial = SpGemmAAt(a, options);
    ASSERT_TRUE(serial.ok());
    options.num_threads = 8;
    auto parallel = SpGemmAAt(a, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(*serial, *parallel);
  }
}

TEST_P(ParallelDeterminismTest, BuildFlowMatrixMatchesSerial) {
  const Digraph g = GetParam().make();
  auto u = SymmetrizeAPlusAT(g);
  ASSERT_TRUE(u.ok());
  const CsrMatrix serial = BuildFlowMatrix(*u, 1.0, 1);
  EXPECT_EQ(serial, BuildFlowMatrix(*u, 1.0, 8));
  EXPECT_EQ(serial, BuildFlowMatrix(*u, 1.0, 0));
}

TEST_P(ParallelDeterminismTest, RmclIterateMatchesSerial) {
  const Digraph g = GetParam().make();
  auto u = SymmetrizeAPlusAT(g);
  ASSERT_TRUE(u.ok());
  RmclOptions options;
  options.num_threads = 1;
  const CsrMatrix mg = BuildFlowMatrix(*u, options.self_loop_scale, 8);
  auto serial = RmclIterate(mg, mg, options, 12);
  ASSERT_TRUE(serial.ok());
  options.num_threads = 8;
  auto parallel = RmclIterate(mg, mg, options, 12);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*serial, *parallel);
  options.num_threads = 0;
  auto auto_threads = RmclIterate(mg, mg, options, 12);
  ASSERT_TRUE(auto_threads.ok());
  EXPECT_EQ(*serial, *auto_threads);
}

bool RowBytesEqual(const CsrMatrix& a, Index ra, const CsrMatrix& b,
                   Index rb) {
  const auto a_cols = a.RowCols(ra);
  const auto b_cols = b.RowCols(rb);
  return a_cols.size() == b_cols.size() &&
         std::memcmp(a_cols.data(), b_cols.data(),
                     a_cols.size() * sizeof(Index)) == 0 &&
         std::memcmp(a.RowValues(ra).data(), b.RowValues(rb).data(),
                     a_cols.size() * sizeof(Scalar)) == 0;
}

// RmclIterate computes one row per group of bitwise-identical rows and
// copies it to the others. Differential check against a run in which every
// row is distinct: duplicating source rows must duplicate output rows.
TEST_P(ParallelDeterminismTest, RmclIterateDuplicatedRowsMatchSources) {
  const Digraph g = GetParam().make();
  auto u = SymmetrizeAPlusAT(g);
  ASSERT_TRUE(u.ok());
  const CsrMatrix mg = BuildFlowMatrix(*u, 1.0, 1);
  const Index n = mg.rows();
  // A distinct-row flow: M_G with every row nudged by its own index.
  CsrMatrix m = mg;
  for (Index r = 0; r < n; ++r) {
    for (Offset e = m.row_ptr()[static_cast<size_t>(r)];
         e < m.row_ptr()[static_cast<size_t>(r) + 1]; ++e) {
      m.mutable_values()[static_cast<size_t>(e)] *=
          1.0 + 1e-9 * static_cast<Scalar>(r);
    }
  }
  std::set<std::pair<std::vector<Index>, std::vector<Scalar>>> rows;
  for (Index r = 0; r < n; ++r) {
    rows.emplace(std::vector<Index>(m.RowCols(r).begin(), m.RowCols(r).end()),
                 std::vector<Scalar>(m.RowValues(r).begin(),
                                     m.RowValues(r).end()));
  }
  ASSERT_EQ(static_cast<Index>(rows.size()), n);
  // Row map onto every fourth row; m2[r] = m[pi(r)].
  Rng rng(17);
  std::vector<Index> pi(static_cast<size_t>(n));
  std::vector<Triplet> triplets;
  for (Index r = 0; r < n; ++r) {
    const Index source =
        4 * static_cast<Index>(rng.UniformU64(static_cast<uint64_t>(n / 4)));
    pi[static_cast<size_t>(r)] = source;
    auto cols = m.RowCols(source);
    auto vals = m.RowValues(source);
    for (size_t i = 0; i < cols.size(); ++i) {
      triplets.push_back({r, cols[i], vals[i]});
    }
  }
  auto m2 = CsrMatrix::FromTriplets(n, n, triplets);
  ASSERT_TRUE(m2.ok());
  // Run every iteration: the two inputs converge at different times.
  RmclOptions options;
  options.convergence_tol = 0.0;
  for (int iterations : {1, 12}) {
    for (int threads : {1, 8, 0}) {
      options.num_threads = threads;
      auto distinct = RmclIterate(m, mg, options, iterations);
      ASSERT_TRUE(distinct.ok());
      auto duplicated = RmclIterate(*m2, mg, options, iterations);
      ASSERT_TRUE(duplicated.ok());
      for (Index r = 0; r < n; ++r) {
        ASSERT_TRUE(RowBytesEqual(*duplicated, r, *distinct,
                                  pi[static_cast<size_t>(r)]))
            << "row " << r << " iterations=" << iterations
            << " threads=" << threads;
      }
    }
  }
}

TEST_P(ParallelDeterminismTest, RmclClusteringMatchesSerial) {
  const Digraph g = GetParam().make();
  auto u = SymmetrizeAPlusAT(g);
  ASSERT_TRUE(u.ok());
  RmclOptions options;
  options.max_iterations = 30;
  options.num_threads = 1;
  auto serial = Rmcl(*u, options);
  ASSERT_TRUE(serial.ok());
  options.num_threads = 8;
  auto parallel = Rmcl(*u, options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->labels(), parallel->labels());
}

TEST_P(ParallelDeterminismTest, MlrMclMatchesSerial) {
  const Digraph g = GetParam().make();
  SymmetrizationOptions sym_options;
  sym_options.prune_threshold = 0.05;
  auto u = SymmetrizeDegreeDiscounted(g, sym_options);
  ASSERT_TRUE(u.ok());
  // At the default coarsening target these graphs barely coarsen; at 60
  // flow rows are projected through several levels, so siblings share
  // rows during refinement.
  for (Index target : {Index{1000}, Index{60}}) {
    MlrMclOptions options;
    options.coarsen.target_vertices = target;
    if (target == 60) {
      CoarsenOptions coarsen = options.coarsen;
      coarsen.seed = options.seed;
      auto hierarchy = BuildHierarchy(*u, coarsen);
      ASSERT_TRUE(hierarchy.ok());
      ASSERT_GE(hierarchy->NumLevels(), 3);
    }
    options.rmcl.num_threads = 1;
    auto serial = MlrMcl(*u, options);
    ASSERT_TRUE(serial.ok());
    for (int threads : {8, 0}) {
      options.rmcl.num_threads = threads;
      auto parallel = MlrMcl(*u, options);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(serial->labels(), parallel->labels())
          << "target=" << target << " threads=" << threads;
    }
  }
}

TEST_P(ParallelDeterminismTest, AllPairsSimilarityMatchesSerial) {
  const Digraph g = GetParam().make();
  auto factors = BuildSimilarityFactors(
      g, SymmetrizationMethod::kDegreeDiscounted, {});
  ASSERT_TRUE(factors.ok());
  for (Scalar threshold : {0.02, 0.2}) {
    AllPairsOptions options;
    options.threshold = threshold;
    options.num_threads = 1;
    AllPairsStats serial_stats;
    auto serial = AllPairsSimilarity(factors->m, options, &serial_stats);
    ASSERT_TRUE(serial.ok());
    for (int threads : {8, 0, 3}) {
      options.num_threads = threads;
      AllPairsStats stats;
      auto parallel = AllPairsSimilarity(factors->m, options, &stats);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(*serial, *parallel) << "threads=" << threads;
      EXPECT_EQ(serial_stats.candidate_pairs, stats.candidate_pairs);
      EXPECT_EQ(serial_stats.output_pairs, stats.output_pairs);
      EXPECT_EQ(serial_stats.skipped_rows, stats.skipped_rows);
    }
  }
}

TEST_P(ParallelDeterminismTest, FusedSymmetricKernelsMatchSerial) {
  const Digraph g = GetParam().make();
  const CsrMatrix& a = g.adjacency();
  SpGemmOptions options;
  options.threshold = 0.01;
  options.num_threads = 1;
  auto upper_serial = SpGemmAAtSymmetric(a, {}, {}, options);
  ASSERT_TRUE(upper_serial.ok());
  auto mirror_serial = MirrorUpperTriangle(*upper_serial, 1);
  ASSERT_TRUE(mirror_serial.ok());
  for (int threads : {8, 0}) {
    options.num_threads = threads;
    auto upper = SpGemmAAtSymmetric(a, {}, {}, options);
    ASSERT_TRUE(upper.ok());
    EXPECT_EQ(*upper_serial, *upper) << "threads=" << threads;
    auto mirror = MirrorUpperTriangle(*upper, threads);
    ASSERT_TRUE(mirror.ok());
    EXPECT_EQ(*mirror_serial, *mirror) << "threads=" << threads;
  }
}

TEST_P(ParallelDeterminismTest, AllSymmetrizationsMatchSerial) {
  const Digraph g = GetParam().make();
  for (SymmetrizationMethod method : kAllSymmetrizations) {
    SymmetrizationOptions options;
    if (method == SymmetrizationMethod::kBibliometric ||
        method == SymmetrizationMethod::kDegreeDiscounted) {
      options.prune_threshold =
          method == SymmetrizationMethod::kBibliometric ? 2.0 : 0.05;
    }
    options.num_threads = 1;
    auto serial = Symmetrize(g, method, options);
    ASSERT_TRUE(serial.ok()) << SymmetrizationMethodName(method);
    options.num_threads = 8;
    auto parallel = Symmetrize(g, method, options);
    ASSERT_TRUE(parallel.ok()) << SymmetrizationMethodName(method);
    EXPECT_EQ(serial->adjacency(), parallel->adjacency())
        << SymmetrizationMethodName(method);
  }
}

TEST_P(ParallelDeterminismTest, PipelineThreadOverrideMatchesSerial) {
  const Digraph g = GetParam().make();
  PipelineOptions options;
  options.symmetrization.prune_threshold = 0.05;
  options.num_threads = 1;
  auto serial = SymmetrizeAndCluster(g, options);
  ASSERT_TRUE(serial.ok());
  options.num_threads = 8;
  auto parallel = SymmetrizeAndCluster(g, options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->symmetrized.adjacency(), parallel->symmetrized.adjacency());
  EXPECT_EQ(serial->clustering.labels(), parallel->clustering.labels());
}

}  // namespace
}  // namespace dgc
