#include <gtest/gtest.h>

#include "cluster/bestwcut.h"
#include "cluster/pipeline.h"
#include "cluster/spectral.h"
#include "eval/fscore.h"
#include "gen/planted.h"

namespace dgc {
namespace {

UGraph BlockUGraph(Index blocks, Index size) {
  std::vector<std::tuple<Index, Index, Scalar>> edges;
  for (Index b = 0; b < blocks; ++b) {
    const Index base = b * size;
    for (Index i = 0; i < size; ++i) {
      for (Index j = i + 1; j < size; ++j) {
        edges.emplace_back(base + i, base + j, 1.0);
      }
    }
    edges.emplace_back(base, ((b + 1) % blocks) * size, 0.05);
  }
  return std::move(UGraph::FromEdges(blocks * size, edges)).ValueOrDie();
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

Digraph DirectedBlocks(Index blocks, Index size) {
  // Directed dense blocks with forward bridges.
  std::vector<Edge> edges;
  for (Index b = 0; b < blocks; ++b) {
    const Index base = b * size;
    for (Index i = 0; i < size; ++i) {
      for (Index j = 0; j < size; ++j) {
        if (i != j) edges.push_back(Edge{base + i, base + j, 1.0});
      }
    }
    edges.push_back(Edge{base, ((b + 1) % blocks) * size, 1.0});
  }
  return std::move(Digraph::FromEdges(blocks * size, edges)).ValueOrDie();
}

TEST(SpectralTest, EmbeddingShape) {
  UGraph g = BlockUGraph(3, 10);
  SpectralOptions options;
  options.k = 3;
  auto embedding = NormalizedSpectralEmbedding(g.adjacency(), options);
  ASSERT_TRUE(embedding.ok());
  EXPECT_EQ(embedding->rows(), 30);
  EXPECT_EQ(embedding->cols(), 3);
}

TEST(SpectralTest, RecoversBlocks) {
  UGraph g = BlockUGraph(4, 12);
  SpectralOptions options;
  options.k = 4;
  auto c = SpectralClusterSymmetric(g.adjacency(), options);
  ASSERT_TRUE(c.ok());
  auto f = EvaluateFScore(*c, BlockTruth(4, 12));
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f->avg_f, 0.9);
}

TEST(SpectralTest, RejectsBadInput) {
  SpectralOptions options;
  options.k = 0;
  UGraph g = BlockUGraph(2, 5);
  EXPECT_FALSE(SpectralClusterSymmetric(g.adjacency(), options).ok());
  EXPECT_FALSE(
      NormalizedSpectralEmbedding(CsrMatrix::Zero(2, 3), {}).ok());
}

TEST(BestWCutTest, RecoversDirectedBlocks) {
  Digraph g = DirectedBlocks(3, 12);
  BestWCutOptions options;
  options.k = 3;
  auto result = BestWCut(g, options);
  ASSERT_TRUE(result.ok());
  auto f = EvaluateFScore(result->clustering, BlockTruth(3, 12));
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f->avg_f, 0.85);
  EXPECT_LT(result->wcut, 1.0);
}

TEST(BestWCutTest, ObjectiveLowerForBetterClustering) {
  Digraph g = DirectedBlocks(2, 10);
  Clustering good(std::vector<Index>(20, 0));
  for (Index i = 10; i < 20; ++i) good.Assign(i, 1);
  Clustering bad(std::vector<Index>(20, 0));
  for (Index i = 0; i < 20; i += 2) bad.Assign(i, 1);
  auto w_good = WCutObjective(g, good, WCutWeighting::kUniform);
  auto w_bad = WCutObjective(g, bad, WCutWeighting::kUniform);
  ASSERT_TRUE(w_good.ok());
  ASSERT_TRUE(w_bad.ok());
  EXPECT_LT(*w_good, *w_bad);
}

TEST(BestWCutTest, WeightingNames) {
  EXPECT_EQ(WCutWeightingName(WCutWeighting::kUniform), "uniform");
  EXPECT_EQ(WCutWeightingName(WCutWeighting::kPageRank), "pagerank");
}

TEST(BestWCutTest, RejectsBadK) {
  Digraph g = DirectedBlocks(2, 5);
  BestWCutOptions options;
  options.k = 0;
  EXPECT_FALSE(BestWCut(g, options).ok());
}

TEST(PipelineTest, EndToEndRuns) {
  auto dataset = GeneratePlanted({});
  ASSERT_TRUE(dataset.ok());
  PipelineOptions options;
  options.method = SymmetrizationMethod::kDegreeDiscounted;
  options.algorithm = ClusterAlgorithm::kMetis;
  options.metis.k = 20;
  auto result = SymmetrizeAndCluster(dataset->graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 20);
  EXPECT_GE(result->symmetrize_seconds, 0.0);
  EXPECT_GE(result->cluster_seconds, 0.0);
  EXPECT_EQ(result->clustering.NumVertices(),
            dataset->graph.NumVertices());
}

TEST(PipelineTest, AlgorithmNames) {
  EXPECT_EQ(ClusterAlgorithmName(ClusterAlgorithm::kMlrMcl), "MLR-MCL");
  EXPECT_EQ(ClusterAlgorithmName(ClusterAlgorithm::kGraclus), "Graclus");
}

}  // namespace
}  // namespace dgc
