// Parameterized property tests over all symmetrization methods and several
// random graph families: structural invariants that must hold for every
// (method, graph) combination.
#include <gtest/gtest.h>

#include <tuple>

#include "core/symmetrize.h"
#include "gen/rmat.h"
#include "util/rng.h"

namespace dgc {
namespace {

Digraph RandomDigraph(Index n, int edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> list;
  for (int i = 0; i < edges; ++i) {
    Index u = static_cast<Index>(rng.UniformU64(static_cast<uint64_t>(n)));
    Index v = static_cast<Index>(rng.UniformU64(static_cast<uint64_t>(n)));
    if (u != v) list.push_back(Edge{u, v, 1.0});
  }
  return std::move(Digraph::FromEdges(n, list)).ValueOrDie();
}

class SymmetrizationProperty
    : public ::testing::TestWithParam<
          std::tuple<SymmetrizationMethod, uint64_t>> {
 protected:
  SymmetrizationMethod method() const { return std::get<0>(GetParam()); }
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(SymmetrizationProperty, OutputSymmetricNonNegativeLoopFree) {
  Digraph g = RandomDigraph(40, 300, seed());
  auto u = Symmetrize(g, method());
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_TRUE(u->adjacency().IsSymmetric(1e-9));
  for (Scalar v : u->adjacency().values()) {
    EXPECT_GT(v, 0.0);
  }
  for (Index i = 0; i < g.NumVertices(); ++i) {
    EXPECT_DOUBLE_EQ(u->adjacency().At(i, i), 0.0);
  }
}

TEST_P(SymmetrizationProperty, Deterministic) {
  Digraph g = RandomDigraph(30, 200, seed());
  auto u1 = Symmetrize(g, method());
  auto u2 = Symmetrize(g, method());
  ASSERT_TRUE(u1.ok());
  ASSERT_TRUE(u2.ok());
  EXPECT_EQ(u1->adjacency(), u2->adjacency());
}

TEST_P(SymmetrizationProperty, VertexRelabelingEquivariant) {
  // Symmetrizing a relabeled graph equals relabeling the symmetrized graph.
  const Index n = 25;
  Digraph g = RandomDigraph(n, 150, seed());
  Rng rng(seed() + 99);
  std::vector<Index> perm(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  rng.Shuffle(perm);

  std::vector<Edge> permuted;
  const CsrMatrix& a = g.adjacency();
  for (Index u = 0; u < n; ++u) {
    auto cols = a.RowCols(u);
    auto vals = a.RowValues(u);
    for (size_t i = 0; i < cols.size(); ++i) {
      permuted.push_back(Edge{perm[static_cast<size_t>(u)],
                              perm[static_cast<size_t>(cols[i])], vals[i]});
    }
  }
  auto g2 = Digraph::FromEdges(n, permuted);
  ASSERT_TRUE(g2.ok());

  auto u1 = Symmetrize(g, method());
  auto u2 = Symmetrize(*g2, method());
  ASSERT_TRUE(u1.ok());
  ASSERT_TRUE(u2.ok());
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      EXPECT_NEAR(u1->adjacency().At(i, j),
                  u2->adjacency().At(perm[static_cast<size_t>(i)],
                                     perm[static_cast<size_t>(j)]),
                  1e-9);
    }
  }
}

TEST_P(SymmetrizationProperty, PruningIsMonotone) {
  // A higher threshold always yields a subset of the edges, with equal
  // weights on the surviving ones.
  if (method() == SymmetrizationMethod::kAPlusAT ||
      method() == SymmetrizationMethod::kRandomWalk) {
    GTEST_SKIP() << "structure-preserving methods are not pruned";
  }
  Digraph g = RandomDigraph(40, 400, seed());
  SymmetrizationOptions low, high;
  low.prune_threshold = 0.0;
  high.prune_threshold =
      method() == SymmetrizationMethod::kBibliometric ? 2.0 : 0.2;
  auto u_low = Symmetrize(g, method(), low);
  auto u_high = Symmetrize(g, method(), high);
  ASSERT_TRUE(u_low.ok());
  ASSERT_TRUE(u_high.ok());
  EXPECT_LE(u_high->NumEdges(), u_low->NumEdges());
  const CsrMatrix& hi = u_high->adjacency();
  for (Index i = 0; i < hi.rows(); ++i) {
    auto cols = hi.RowCols(i);
    auto vals = hi.RowValues(i);
    for (size_t e = 0; e < cols.size(); ++e) {
      // Surviving entries may underestimate the exact similarity by up to
      // threshold/2: the two addends (out-link and in-link similarity) are
      // each pruned at threshold/2 before summation (see similarity.cc).
      const Scalar exact = u_low->adjacency().At(i, cols[e]);
      EXPECT_LE(vals[e], exact + 1e-9);
      EXPECT_GE(vals[e], exact - high.prune_threshold / 2.0 - 1e-9);
      EXPECT_GE(vals[e], high.prune_threshold);
    }
  }
}

TEST_P(SymmetrizationProperty, WorksOnPowerLawGraphs) {
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.seed = seed();
  auto dataset = GenerateRmat(rmat);
  ASSERT_TRUE(dataset.ok());
  auto u = Symmetrize(dataset->graph, method());
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_TRUE(u->adjacency().IsSymmetric(1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsAndSeeds, SymmetrizationProperty,
    ::testing::Combine(
        ::testing::Values(SymmetrizationMethod::kAPlusAT,
                          SymmetrizationMethod::kRandomWalk,
                          SymmetrizationMethod::kBibliometric,
                          SymmetrizationMethod::kDegreeDiscounted),
        ::testing::Values(1u, 7u, 42u)),
    [](const auto& info) {
      const auto method = std::get<0>(info.param);
      std::string name;
      switch (method) {
        case SymmetrizationMethod::kAPlusAT:
          name = "APlusAT";
          break;
        case SymmetrizationMethod::kRandomWalk:
          name = "RandomWalk";
          break;
        case SymmetrizationMethod::kBibliometric:
          name = "Bibliometric";
          break;
        case SymmetrizationMethod::kDegreeDiscounted:
          name = "DegreeDiscounted";
          break;
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dgc
