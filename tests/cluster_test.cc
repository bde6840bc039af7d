#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "cluster/coarsen.h"
#include "cluster/graclus.h"
#include "cluster/kmeans.h"
#include "cluster/mcl.h"
#include "cluster/mlr_mcl.h"
#include "cluster/partition_metis.h"
#include "eval/fscore.h"
#include "util/rng.h"

namespace dgc {
namespace {

/// k dense blobs of size `size` connected in a ring by single weak edges.
UGraph BlockGraph(Index blocks, Index size, Scalar intra_weight = 1.0) {
  std::vector<std::tuple<Index, Index, Scalar>> edges;
  for (Index b = 0; b < blocks; ++b) {
    const Index base = b * size;
    for (Index i = 0; i < size; ++i) {
      for (Index j = i + 1; j < size; ++j) {
        edges.emplace_back(base + i, base + j, intra_weight);
      }
    }
    // Weak bridge to the next block.
    const Index next = ((b + 1) % blocks) * size;
    edges.emplace_back(base, next, 0.05);
  }
  auto g = UGraph::FromEdges(blocks * size, edges);
  EXPECT_TRUE(g.ok());
  return std::move(g).ValueOrDie();
}

GroundTruth BlockTruth(Index blocks, Index size) {
  GroundTruth truth;
  truth.categories.resize(static_cast<size_t>(blocks));
  for (Index b = 0; b < blocks; ++b) {
    for (Index i = 0; i < size; ++i) {
      truth.categories[static_cast<size_t>(b)].push_back(b * size + i);
    }
  }
  return truth;
}

double FScoreOf(const Clustering& c, const GroundTruth& truth) {
  auto result = EvaluateFScore(c, truth);
  EXPECT_TRUE(result.ok());
  return result->avg_f;
}

TEST(CoarsenTest, HierarchyShrinks) {
  UGraph g = BlockGraph(8, 16);
  CoarsenOptions options;
  options.target_vertices = 16;
  auto h = BuildHierarchy(g, options);
  ASSERT_TRUE(h.ok());
  ASSERT_GE(h->NumLevels(), 2);
  for (int l = 1; l < h->NumLevels(); ++l) {
    EXPECT_LT(h->levels[static_cast<size_t>(l)].adj.rows(),
              h->levels[static_cast<size_t>(l) - 1].adj.rows());
  }
}

TEST(CoarsenTest, PreservesTotalNodeWeightAndVolume) {
  UGraph g = BlockGraph(6, 10);
  auto h = BuildHierarchy(g, {.target_vertices = 8});
  ASSERT_TRUE(h.ok());
  Scalar fine_volume = 0.0;
  for (Scalar v : g.adjacency().values()) fine_volume += v;
  for (const GraphLevel& level : h->levels) {
    Scalar weight = 0.0;
    for (Scalar w : level.node_weight) weight += w;
    EXPECT_DOUBLE_EQ(weight, static_cast<Scalar>(g.NumVertices()));
    // Volume including diagonal (collapsed) entries is invariant.
    Scalar volume = 0.0;
    for (Scalar v : level.adj.values()) volume += v;
    EXPECT_NEAR(volume, fine_volume, 1e-9);
  }
}

TEST(CoarsenTest, MatchingIsValid) {
  UGraph g = BlockGraph(4, 12);
  auto [map, count] = HeavyEdgeMatching(g.adjacency(), 7);
  std::vector<int> children(static_cast<size_t>(count), 0);
  for (Index c : map) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, count);
    ++children[static_cast<size_t>(c)];
  }
  for (int c : children) {
    EXPECT_GE(c, 1);
    EXPECT_LE(c, 2);  // matching: at most two fine nodes per supernode
  }
}

TEST(CoarsenTest, ProjectLabelsRoundTrip) {
  std::vector<Index> coarse = {5, 9};
  std::vector<Index> map = {0, 1, 1, 0};
  auto fine = ProjectLabels(coarse, map);
  EXPECT_EQ(fine, (std::vector<Index>{5, 9, 9, 5}));
}

TEST(MetisTest, RecoversBlocks) {
  UGraph g = BlockGraph(6, 20);
  MetisOptions options;
  options.k = 6;
  auto c = MetisPartition(g, options);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->NumClusters(), 6);
  EXPECT_GT(FScoreOf(*c, BlockTruth(6, 20)), 0.9);
}

TEST(MetisTest, RespectsBalance) {
  UGraph g = BlockGraph(4, 25);
  MetisOptions options;
  options.k = 4;
  options.imbalance = 0.25;
  auto c = MetisPartition(g, options);
  ASSERT_TRUE(c.ok());
  auto sizes = c->ClusterSizes();
  for (Index s : sizes) {
    EXPECT_LE(s, static_cast<Index>(1.3 * 100 / 4 + 1));
    EXPECT_GE(s, 1);
  }
}

TEST(MetisTest, EdgeCutHelper) {
  UGraph g = BlockGraph(2, 4);
  std::vector<Index> perfect = {0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<Index> bad = {0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_LT(EdgeCut(g.adjacency(), perfect), EdgeCut(g.adjacency(), bad));
}

TEST(MetisTest, KEqualsOneAndN) {
  UGraph g = BlockGraph(2, 5);
  MetisOptions options;
  options.k = 1;
  auto one = MetisPartition(g, options);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->NumClusters(), 1);
  options.k = 10;
  auto n = MetisPartition(g, options);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->NumVertices(), 10);
  options.k = 0;
  EXPECT_FALSE(MetisPartition(g, options).ok());
  options.k = 11;
  EXPECT_FALSE(MetisPartition(g, options).ok());
}

TEST(GraclusTest, RecoversBlocks) {
  UGraph g = BlockGraph(6, 20);
  GraclusOptions options;
  options.k = 6;
  auto c = GraclusCluster(g, options);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(FScoreOf(*c, BlockTruth(6, 20)), 0.9);
}

TEST(GraclusTest, ImprovesNormalizedCutOverInitial) {
  UGraph g = BlockGraph(5, 16);
  GraclusOptions options;
  options.k = 5;
  auto c = GraclusCluster(g, options);
  ASSERT_TRUE(c.ok());
  // Perfect block split has ncut ~= 5 * (2*0.05)/vol_block; clustered ncut
  // must be near it and far below random assignment's.
  Rng rng(4);
  std::vector<Index> random_labels(static_cast<size_t>(g.NumVertices()));
  for (auto& l : random_labels) {
    l = static_cast<Index>(rng.UniformU64(5));
  }
  const Scalar clustered = LevelNormalizedCut(g.adjacency(), c->labels(), 5);
  const Scalar random = LevelNormalizedCut(g.adjacency(), random_labels, 5);
  EXPECT_LT(clustered, random / 4.0);
}

TEST(RmclTest, RecoversBlocks) {
  UGraph g = BlockGraph(5, 12);
  RmclOptions options;
  options.inflation = 2.0;
  auto c = Rmcl(g, options);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(FScoreOf(*c, BlockTruth(5, 12)), 0.9);
}

TEST(RmclTest, InflationControlsGranularity) {
  UGraph g = BlockGraph(6, 15);
  RmclOptions fine_grain, coarse_grain;
  fine_grain.inflation = 3.0;
  coarse_grain.inflation = 1.3;
  auto many = Rmcl(g, fine_grain);
  auto few = Rmcl(g, coarse_grain);
  ASSERT_TRUE(many.ok());
  ASSERT_TRUE(few.ok());
  EXPECT_GE(many->NumClusters(), few->NumClusters());
}

TEST(RmclTest, FlowMatrixIsRowStochastic) {
  UGraph g = BlockGraph(3, 10);
  CsrMatrix mg = BuildFlowMatrix(g, 1.0);
  auto sums = mg.RowSums();
  for (Scalar s : sums) EXPECT_NEAR(s, 1.0, 1e-12);
  // Self-loops present on the diagonal.
  for (Index v = 0; v < g.NumVertices(); ++v) {
    EXPECT_GT(mg.At(v, v), 0.0);
  }
}

TEST(RmclTest, IsolatedVertexGetsPureSelfLoop) {
  auto g = UGraph::FromEdges(3, {{0, 1, 1.0}});
  ASSERT_TRUE(g.ok());
  CsrMatrix mg = BuildFlowMatrix(*g, 1.0);
  EXPECT_DOUBLE_EQ(mg.At(2, 2), 1.0);
}

TEST(RmclTest, RejectsBadInflation) {
  UGraph g = BlockGraph(2, 5);
  RmclOptions bad;
  bad.inflation = 1.0;
  EXPECT_FALSE(Rmcl(g, bad).ok());
}

TEST(RmclTest, IdenticalRowsSplitWhenTheCollapseFires) {
  // Rows 0 and 1 are identical; every inflated value underflows
  // ((1e-170)^2 == 0), so each row collapses onto its own self-loop. The
  // collapse is the one per-row rule that reads the row index, so the two
  // rows must not share a result.
  auto m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 1e-170}, {0, 1, 1e-170}, {1, 0, 1e-170}, {1, 1, 1e-170}});
  ASSERT_TRUE(m.ok());
  const CsrMatrix identity = CsrMatrix::Identity(2);
  RmclOptions options;
  options.inflation = 2.0;
  auto out = RmclIterate(std::move(m).ValueOrDie(), identity, options, 1);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->RowNnz(0), 1);
  ASSERT_EQ(out->RowNnz(1), 1);
  EXPECT_EQ(out->RowCols(0)[0], 0);
  EXPECT_EQ(out->RowValues(0)[0], 1.0);
  EXPECT_EQ(out->RowCols(1)[0], 1);
  EXPECT_EQ(out->RowValues(1)[0], 1.0);
}

/// True when a and b hold the same CSR bytes: shape, row pointers, column
/// indices and value bit patterns.
bool SameBytes(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz()) {
    return false;
  }
  return std::equal(a.row_ptr().begin(), a.row_ptr().end(),
                    b.row_ptr().begin()) &&
         std::equal(a.col_idx().begin(), a.col_idx().end(),
                    b.col_idx().begin()) &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(Scalar)) == 0;
}

TEST(RmclWarmStartTest, EveryRowTouchedMatchesAColdRun) {
  const UGraph g = BlockGraph(4, 8);
  RmclOptions options;
  const CsrMatrix mg = BuildFlowMatrix(g, options.self_loop_scale);
  // A stale flow that a touched row must never leak into the seed.
  const CsrMatrix stale = CsrMatrix::Identity(g.NumVertices());
  std::vector<Index> all(static_cast<size_t>(g.NumVertices()));
  for (Index r = 0; r < g.NumVertices(); ++r) all[static_cast<size_t>(r)] = r;
  for (int iterations : {0, 3, 20}) {
    CsrMatrix warm_flow;
    auto warm = RmclWarmStart(g, stale, all, options, iterations, &warm_flow);
    ASSERT_TRUE(warm.ok());
    auto cold = RmclIterate(mg, mg, options, iterations);
    ASSERT_TRUE(cold.ok());
    EXPECT_TRUE(SameBytes(warm_flow, *cold)) << iterations << " iterations";
    EXPECT_EQ(warm->labels(), FlowToClustering(*cold).labels())
        << iterations << " iterations";
  }
}

TEST(RmclWarmStartTest, SeedKeepsPreviousRowsAndReseedsTouchedOnes) {
  const UGraph g = BlockGraph(3, 6);
  RmclOptions options;
  const CsrMatrix mg = BuildFlowMatrix(g, options.self_loop_scale);
  auto converged = RmclIterate(mg, mg, options, options.max_iterations);
  ASSERT_TRUE(converged.ok());
  // Zero iterations return the seed itself.
  CsrMatrix seed;
  ASSERT_TRUE(RmclWarmStart(g, *converged, {}, options, 0, &seed).ok());
  EXPECT_TRUE(SameBytes(seed, *converged));

  const std::vector<Index> touched = {0, 7, 17};
  ASSERT_TRUE(RmclWarmStart(g, *converged, touched, options, 0, &seed).ok());
  for (Index r = 0; r < g.NumVertices(); ++r) {
    const bool is_touched =
        std::binary_search(touched.begin(), touched.end(), r);
    const CsrMatrix& src = is_touched ? mg : *converged;
    EXPECT_TRUE(std::equal(seed.RowCols(r).begin(), seed.RowCols(r).end(),
                           src.RowCols(r).begin(), src.RowCols(r).end()))
        << "row " << r;
    EXPECT_EQ(seed.RowNnz(r), src.RowNnz(r)) << "row " << r;
    EXPECT_EQ(std::memcmp(seed.RowValues(r).data(), src.RowValues(r).data(),
                          src.RowValues(r).size() * sizeof(Scalar)),
              0)
        << "row " << r;
  }
}

TEST(RmclWarmStartTest, RejectsBadTouchedRowsAndShapes) {
  const UGraph g = BlockGraph(2, 4);
  RmclOptions options;
  const CsrMatrix mg = BuildFlowMatrix(g, options.self_loop_scale);
  const std::vector<Index> unsorted = {3, 1};
  EXPECT_EQ(RmclWarmStart(g, mg, unsorted, options, 2).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<Index> duplicate = {1, 1};
  EXPECT_EQ(RmclWarmStart(g, mg, duplicate, options, 2).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<Index> out_of_range = {2, g.NumVertices()};
  EXPECT_EQ(RmclWarmStart(g, mg, out_of_range, options, 2).status().code(),
            StatusCode::kOutOfRange);
  const std::vector<Index> negative = {-1};
  EXPECT_EQ(RmclWarmStart(g, mg, negative, options, 2).status().code(),
            StatusCode::kOutOfRange);
  const CsrMatrix wrong_shape = CsrMatrix::Identity(g.NumVertices() + 1);
  EXPECT_EQ(RmclWarmStart(g, wrong_shape, {}, options, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FlowToClusteringTest, AttractorChainsMerge) {
  // Rows point at attractors: 0->1, 1->1, 2->1 => single cluster {0,1,2}.
  auto m = CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {1, 1, 1.0}, {2, 1, 1.0}});
  ASSERT_TRUE(m.ok());
  Clustering c = FlowToClustering(std::move(m).ValueOrDie());
  EXPECT_EQ(c.NumClusters(), 1);
}

TEST(MlrMclTest, RecoversBlocksFaster) {
  UGraph g = BlockGraph(8, 20);
  MlrMclOptions options;
  options.rmcl.inflation = 2.0;
  options.coarsen.target_vertices = 40;
  auto c = MlrMcl(g, options);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(FScoreOf(*c, BlockTruth(8, 20)), 0.85);
}

TEST(MlrMclTest, ProjectFlowPreservesStochasticity) {
  auto coarse = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 0.75}, {0, 1, 0.25}, {1, 1, 1.0}});
  ASSERT_TRUE(coarse.ok());
  std::vector<Index> map = {0, 0, 1};  // fine 0,1 -> coarse 0; fine 2 -> 1
  auto fine = ProjectFlow(std::move(coarse).ValueOrDie(), map, 3);
  ASSERT_TRUE(fine.ok());
  auto sums = fine->RowSums();
  for (Scalar s : sums) EXPECT_NEAR(s, 1.0, 1e-12);
  // Fine row 0 = parent row: 0.75 split over children {0,1}, 0.25 to {2}.
  EXPECT_NEAR(fine->At(0, 0), 0.375, 1e-12);
  EXPECT_NEAR(fine->At(0, 2), 0.25, 1e-12);
}

TEST(KMeansTest, SeparatedBlobs) {
  Rng rng(3);
  DenseMatrix points(60, 2);
  for (Index i = 0; i < 60; ++i) {
    const int blob = i / 20;
    points(i, 0) = blob * 10.0 + rng.Normal() * 0.5;
    points(i, 1) = blob * -5.0 + rng.Normal() * 0.5;
  }
  KMeansOptions options;
  options.k = 3;
  auto result = KMeans(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.NumClusters(), 3);
  // All points in a blob share a label.
  for (Index i = 0; i < 60; ++i) {
    EXPECT_EQ(result->clustering.LabelOf(i),
              result->clustering.LabelOf((i / 20) * 20));
  }
}

TEST(KMeansTest, SseDecreasesWithMoreClusters) {
  Rng rng(9);
  DenseMatrix points(100, 3);
  for (Index i = 0; i < 100; ++i) {
    for (Index d = 0; d < 3; ++d) points(i, d) = rng.UniformDouble();
  }
  auto k2 = KMeans(points, {.k = 2, .seed = 1});
  auto k10 = KMeans(points, {.k = 10, .seed = 1});
  ASSERT_TRUE(k2.ok());
  ASSERT_TRUE(k10.ok());
  EXPECT_LT(k10->sse, k2->sse);
}

TEST(KMeansTest, RejectsBadK) {
  DenseMatrix points(5, 2);
  EXPECT_FALSE(KMeans(points, {.k = 0}).ok());
  EXPECT_FALSE(KMeans(points, {.k = 6}).ok());
}

}  // namespace
}  // namespace dgc
