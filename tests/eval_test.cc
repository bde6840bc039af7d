#include <gtest/gtest.h>

#include <cmath>

#include "core/symmetrize.h"
#include "eval/fscore.h"
#include "eval/modularity.h"
#include "eval/ncut.h"
#include "eval/sign_test.h"
#include "linalg/power_iteration.h"
#include "util/rng.h"

namespace dgc {
namespace {

TEST(FScoreTest, PerfectClusteringScoresOne) {
  Clustering c(std::vector<Index>{0, 0, 1, 1});
  GroundTruth truth;
  truth.categories = {{0, 1}, {2, 3}};
  auto result = EvaluateFScore(c, truth);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->avg_f, 1.0);
  EXPECT_DOUBLE_EQ(result->avg_precision, 1.0);
  EXPECT_DOUBLE_EQ(result->avg_recall, 1.0);
}

TEST(FScoreTest, KnownPartialOverlap) {
  // Cluster {0,1,2} vs category {0,1}: P = 2/3, R = 1, F = 0.8.
  Clustering c(std::vector<Index>{0, 0, 0});
  GroundTruth truth;
  truth.categories = {{0, 1}};
  auto result = EvaluateFScore(c, truth);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->avg_f, 0.8, 1e-12);
  EXPECT_NEAR(result->avg_precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(result->avg_recall, 1.0, 1e-12);
}

TEST(FScoreTest, SizeWeightedMicroAverage) {
  // Two clusters: size 3 with F=0.8 (as above), size 1 perfectly matching a
  // singleton category (F=1). Weighted: (3*0.8 + 1*1)/4 = 0.85.
  Clustering c(std::vector<Index>{0, 0, 0, 1});
  GroundTruth truth;
  truth.categories = {{0, 1}, {3}};
  auto result = EvaluateFScore(c, truth);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->avg_f, 0.85, 1e-12);
}

TEST(FScoreTest, BestCategoryWins) {
  // Cluster {0,1,2} overlaps category A = {0} (F = 0.5) and
  // B = {0,1,2,3} (F = 6/7). B must be chosen.
  Clustering c(std::vector<Index>{0, 0, 0});
  GroundTruth truth;
  truth.categories = {{0}, {0, 1, 2}};
  // B here is {0,1,2}: P=1, R=1 -> F=1.
  auto result = EvaluateFScore(c, truth);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_cluster.size(), 1u);
  EXPECT_EQ(result->per_cluster[0].best_category, 1);
  EXPECT_DOUBLE_EQ(result->avg_f, 1.0);
}

TEST(FScoreTest, UnlabeledVerticesDepressPrecision) {
  // Vertex 2 has no category; cluster {0,1,2} vs {0,1}: P = 2/3.
  Clustering c(std::vector<Index>{0, 0, 0});
  GroundTruth truth;
  truth.categories = {{0, 1}};
  auto result = EvaluateFScore(c, truth);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->per_cluster[0].precision, 2.0 / 3.0, 1e-12);
}

TEST(FScoreTest, UnassignedVerticesIgnored) {
  Clustering c(std::vector<Index>{0, 0, -1, -1});
  GroundTruth truth;
  truth.categories = {{0, 1}};
  auto result = EvaluateFScore(c, truth);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->avg_f, 1.0);
}

TEST(FScoreTest, OverlappingCategoriesAllowed) {
  Clustering c(std::vector<Index>{0, 0, 1, 1});
  GroundTruth truth;
  truth.categories = {{0, 1, 2}, {2, 3}};
  auto result = EvaluateFScore(c, truth);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->avg_f, 0.5);
}

TEST(FScoreTest, RejectsOutOfRangeVertices) {
  Clustering c(std::vector<Index>{0});
  GroundTruth truth;
  truth.categories = {{5}};
  EXPECT_FALSE(EvaluateFScore(c, truth).ok());
}

TEST(CorrectlyClusteredTest, MaskMatchesDefinition) {
  // Cluster 0 = {0,1,2} matched to category {0,1}; vertex 2 incorrect.
  Clustering c(std::vector<Index>{0, 0, 0, 1});
  GroundTruth truth;
  truth.categories = {{0, 1}, {3}};
  auto mask = CorrectlyClusteredMask(c, truth);
  ASSERT_TRUE(mask.ok());
  EXPECT_TRUE((*mask)[0]);
  EXPECT_TRUE((*mask)[1]);
  EXPECT_FALSE((*mask)[2]);
  EXPECT_TRUE((*mask)[3]);
}

UGraph TwoTriangles() {
  // Two triangles joined by one edge.
  auto g = UGraph::FromEdges(6, {{0, 1, 1.0},
                                 {1, 2, 1.0},
                                 {2, 0, 1.0},
                                 {3, 4, 1.0},
                                 {4, 5, 1.0},
                                 {5, 3, 1.0},
                                 {2, 3, 1.0}});
  EXPECT_TRUE(g.ok());
  return std::move(g).ValueOrDie();
}

TEST(NcutTest, SubsetNcutOfTwoTriangles) {
  UGraph g = TwoTriangles();
  std::vector<bool> s = {true, true, true, false, false, false};
  // cut = 1; vol(S) = 7 (2+2+3), vol(rest) = 7.
  EXPECT_NEAR(NormalizedCut(g, s), 1.0 / 7.0 + 1.0 / 7.0, 1e-12);
}

TEST(NcutTest, ClusteringNcutMatchesSubsets) {
  UGraph g = TwoTriangles();
  Clustering c(std::vector<Index>{0, 0, 0, 1, 1, 1});
  // k-way ncut = cut/vol(S1) + cut/vol(S2) = 1/7 + 1/7.
  EXPECT_NEAR(NormalizedCut(g, c), 2.0 / 7.0, 1e-12);
}

TEST(NcutTest, PerfectSplitOfDisconnectedGraph) {
  auto g = UGraph::FromEdges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  ASSERT_TRUE(g.ok());
  Clustering c(std::vector<Index>{0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(NormalizedCut(*g, c), 0.0);
}

TEST(NcutTest, GleichEquivalenceRandomWalkSymmetrization) {
  // Section 3.2: N cut_dir(S) on G equals Ncut(S) on the random-walk
  // symmetrized graph G_U, for every subset S (Gleich 2006). Verified on
  // random digraphs and random subsets.
  // The equivalence is exact when pi is the stationary distribution of the
  // plain (teleport-free) walk, so use a strongly connected digraph (a
  // Hamiltonian cycle plus random chords) and teleport = 0.
  Rng rng(17);
  std::vector<Edge> edges;
  for (Index v = 0; v < 20; ++v) {
    edges.push_back(Edge{v, static_cast<Index>((v + 1) % 20), 1.0});
  }
  for (int i = 0; i < 120; ++i) {
    Index u = static_cast<Index>(rng.UniformU64(20));
    Index v = static_cast<Index>(rng.UniformU64(20));
    if (u != v) edges.push_back(Edge{u, v, 1.0});
  }
  auto g = Digraph::FromEdges(20, edges);
  ASSERT_TRUE(g.ok());
  SymmetrizationOptions options;
  options.pagerank.teleport = 0.0;
  options.pagerank.tolerance = 1e-15;
  options.pagerank.max_iterations = 20000;
  auto u = SymmetrizeRandomWalk(*g, options);
  ASSERT_TRUE(u.ok());
  auto pr = PageRank(g->adjacency(), options.pagerank);
  ASSERT_TRUE(pr.ok());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<bool> s(20, false);
    for (int i = 0; i < 20; ++i) s[static_cast<size_t>(i)] = rng.Bernoulli(0.5);
    bool any = false, all = true;
    for (bool b : s) {
      any |= b;
      all &= b;
    }
    if (!any || all) continue;
    const Scalar dir = DirectedNormalizedCut(*g, pr->pi, s);
    const Scalar undir = NormalizedCut(*u, s);
    EXPECT_NEAR(dir, undir, 1e-6);
  }
}

TEST(DirectedNcutTest, Figure1ClusterHasHighDirectedNcut) {
  // The {4,5} cluster of Figure 1: every walk step leaves the cluster, so
  // N cut_dir is high even though the pair is a natural cluster.
  auto g = Digraph::FromEdges(6, {{0, 4, 1.0},
                                  {0, 5, 1.0},
                                  {1, 4, 1.0},
                                  {1, 5, 1.0},
                                  {4, 2, 1.0},
                                  {4, 3, 1.0},
                                  {5, 2, 1.0},
                                  {5, 3, 1.0}});
  ASSERT_TRUE(g.ok());
  auto pr = PageRank(g->adjacency());
  ASSERT_TRUE(pr.ok());
  std::vector<bool> s(6, false);
  s[4] = s[5] = true;
  // All out-flow of {4,5} leaves the set: outgoing term is 1.
  EXPECT_GT(DirectedNormalizedCut(*g, pr->pi, s), 1.0);
}

TEST(SignTest, CountsDisagreements) {
  std::vector<bool> a = {true, true, false, true, false};
  std::vector<bool> b = {true, false, true, false, false};
  auto result = PairedSignTest(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->a_only, 2);
  EXPECT_EQ(result->b_only, 1);
}

TEST(SignTest, NoEvidenceWhenEqualOrWorse) {
  std::vector<bool> a = {true, false};
  std::vector<bool> b = {false, true};
  auto result = PairedSignTest(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->log10_p_value, 0.0);
}

TEST(SignTest, RejectsLengthMismatch) {
  EXPECT_FALSE(PairedSignTest({true}, {true, false}).ok());
}

TEST(SignTest, StrongImprovementGivesTinyP) {
  // 1000 nodes correct only under A, 10 only under B.
  std::vector<bool> a(2000, false), b(2000, false);
  for (int i = 0; i < 1000; ++i) a[static_cast<size_t>(i)] = true;
  for (int i = 1000; i < 1010; ++i) b[static_cast<size_t>(i)] = true;
  auto result = PairedSignTest(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->log10_p_value, -200.0);
}

TEST(Log10BinomialTailTest, KnownValues) {
  // P(X >= 1 | n=1) = 0.5.
  EXPECT_NEAR(Log10BinomialTailP(1, 1), std::log10(0.5), 1e-10);
  // P(X >= 2 | n=2) = 0.25.
  EXPECT_NEAR(Log10BinomialTailP(2, 2), std::log10(0.25), 1e-10);
  // P(X >= 0) = 1.
  EXPECT_DOUBLE_EQ(Log10BinomialTailP(10, 0), 0.0);
  // P(X >= 8 | n=10) = (45 + 10 + 1)/1024.
  EXPECT_NEAR(Log10BinomialTailP(10, 8), std::log10(56.0 / 1024.0), 1e-9);
}

TEST(Log10BinomialTailTest, HandlesHugeN) {
  // The paper reports p = 1e-22767 on Wikipedia-scale counts; log-space
  // computation must not underflow.
  const double log_p = Log10BinomialTailP(200000, 150000);
  EXPECT_LT(log_p, -10000.0);
  EXPECT_TRUE(std::isfinite(log_p));
}

UGraph Blocks(Index blocks, Index size, Scalar bridge = 0.05) {
  std::vector<std::tuple<Index, Index, Scalar>> edges;
  for (Index b = 0; b < blocks; ++b) {
    const Index base = b * size;
    for (Index i = 0; i < size; ++i) {
      for (Index j = i + 1; j < size; ++j) {
        edges.emplace_back(base + i, base + j, 1.0);
      }
    }
    edges.emplace_back(base, ((b + 1) % blocks) * size, bridge);
  }
  return std::move(UGraph::FromEdges(blocks * size, edges)).ValueOrDie();
}

TEST(ModularityTest, PerfectBlocksScoreHigh) {
  UGraph g = Blocks(4, 10);
  Clustering truth(std::vector<Index>(40));
  for (Index v = 0; v < 40; ++v) truth.Assign(v, v / 10);
  const Scalar q_truth = Modularity(g, truth);
  EXPECT_GT(q_truth, 0.6);
  // Random assignment scores near zero.
  Rng rng(5);
  Clustering random(std::vector<Index>(40));
  for (Index v = 0; v < 40; ++v) {
    random.Assign(v, static_cast<Index>(rng.UniformU64(4)));
  }
  EXPECT_LT(Modularity(g, random), q_truth / 3.0);
}

TEST(ModularityTest, SingleClusterScoresZero) {
  UGraph g = Blocks(2, 6);
  Clustering one(std::vector<Index>(12, 0));
  EXPECT_NEAR(Modularity(g, one), 0.0, 1e-12);
}

}  // namespace
}  // namespace dgc
