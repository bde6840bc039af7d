// Equivalence of the fused symmetric-aware similarity kernels
// (SpGemmAAtSymmetric / SpGemmSymmetricSum / MirrorUpperTriangle) with the
// literal formula (scaled copies + full SpGEMMs + Add + Pruned), kept here
// as the test oracle. Bibliometric and Degree-discounted run only through
// the fused kernels, so the contract is *bit-identical* output — EXPECT_EQ
// on the CSR, not a tolerance — at every thread count and prune threshold.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/discount.h"
#include "core/symmetrize.h"
#include "gen/lfr.h"
#include "gen/rmat.h"
#include "graph/digraph.h"
#include "graph/ugraph.h"
#include "linalg/csr_matrix.h"
#include "linalg/spgemm.h"
#include "linalg/vector_ops.h"

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

/// The literal formula of Sections 3.3-3.5, the oracle for the fused
/// similarity symmetrizations: U = M Mᵀ + Nᵀ N from the materialized
/// factor copies, each product pruned at t/2 with its diagonal dropped,
/// then a separate Add and Pruned(t) pass.
UGraph LiteralSimilarity(const Digraph& g, SymmetrizationMethod method,
                         const SymmetrizationOptions& options) {
  auto factors = BuildSimilarityFactors(g, method, options);
  EXPECT_TRUE(factors.ok()) << factors.status();
  SpGemmOptions product;
  product.threshold = options.prune_threshold / 2.0;
  product.drop_diagonal = true;
  product.num_threads = options.num_threads;
  auto out_link = SpGemm(factors->m, factors->m.Transpose(), product);
  EXPECT_TRUE(out_link.ok()) << out_link.status();
  auto in_link = SpGemm(factors->n.Transpose(), factors->n, product);
  EXPECT_TRUE(in_link.ok()) << in_link.status();
  auto sum = CsrMatrix::Add(*out_link, *in_link);
  EXPECT_TRUE(sum.ok()) << sum.status();
  auto u = UGraph::FromSymmetricAdjacency(
      sum->Pruned(options.prune_threshold, /*drop_diagonal=*/true),
      /*drop_self_loops=*/true);
  EXPECT_TRUE(u.ok()) << u.status();
  return std::move(u).ValueOrDie();
}

class FusedSymmetricTest : public ::testing::TestWithParam<GraphCase> {};

INSTANTIATE_TEST_SUITE_P(
    Graphs, FusedSymmetricTest,
    ::testing::Values(GraphCase{"Rmat", &MakeRmatGraph},
                      GraphCase{"Lfr", &MakeLfrGraph}),
    [](const auto& info) { return info.param.name; });

// Degree-discounted thresholds: 0 (keep everything), a mid value that
// prunes some entries, and a high value that prunes most.
constexpr Scalar kDdThresholds[] = {0.0, 0.05, 0.3};
// Bibliometric on unit-weight graphs produces integer counts; 2 and 4 are
// mid/high there.
constexpr Scalar kBiblioThresholds[] = {0.0, 2.0, 4.0};
constexpr int kThreadCounts[] = {1, 4, 0};

TEST_P(FusedSymmetricTest, DegreeDiscountedFusedMatchesReferenceBitwise) {
  const Digraph g = GetParam().make();
  for (Scalar threshold : kDdThresholds) {
    SymmetrizationOptions reference;
    reference.prune_threshold = threshold;
    const UGraph expected = LiteralSimilarity(
        g, SymmetrizationMethod::kDegreeDiscounted, reference);
    for (int threads : kThreadCounts) {
      SymmetrizationOptions fused = reference;
      fused.num_threads = threads;
      auto actual = SymmetrizeDegreeDiscounted(g, fused);
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(expected.adjacency(), actual->adjacency())
          << "threshold=" << threshold << " threads=" << threads;
      EXPECT_TRUE(actual->adjacency().IsSymmetric(0.0));
    }
  }
}

TEST_P(FusedSymmetricTest, BibliometricFusedMatchesReferenceBitwise) {
  const Digraph g = GetParam().make();
  for (Scalar threshold : kBiblioThresholds) {
    SymmetrizationOptions reference;
    reference.prune_threshold = threshold;
    const UGraph expected =
        LiteralSimilarity(g, SymmetrizationMethod::kBibliometric, reference);
    for (int threads : kThreadCounts) {
      SymmetrizationOptions fused = reference;
      fused.num_threads = threads;
      auto actual = SymmetrizeBibliometric(g, fused);
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(expected.adjacency(), actual->adjacency())
          << "threshold=" << threshold << " threads=" << threads;
      EXPECT_TRUE(actual->adjacency().IsSymmetric(0.0));
    }
  }
}

TEST_P(FusedSymmetricTest, SelfLoopVariantAlsoMatches) {
  const Digraph g = GetParam().make();
  SymmetrizationOptions reference;
  reference.prune_threshold = 0.05;
  reference.add_self_loops = true;
  const UGraph expected = LiteralSimilarity(
      g, SymmetrizationMethod::kDegreeDiscounted, reference);
  SymmetrizationOptions fused = reference;
  fused.num_threads = 4;
  auto actual = SymmetrizeDegreeDiscounted(g, fused);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(expected.adjacency(), actual->adjacency());
}

// The scaled upper-triangle kernel, checked directly against SpGemmAAt on a
// materialized ScaleRows/ScaleCols copy: mirroring the fused upper triangle
// must reproduce the full reference product bitwise (AAᵀ of any real matrix
// is bitwise symmetric: scalar multiply commutes and both halves accumulate
// in the same ascending-k order).
TEST_P(FusedSymmetricTest, ScaledUpperTriangleMatchesScaledCopy) {
  const Digraph g = GetParam().make();
  const CsrMatrix& a = g.adjacency();
  const std::vector<Scalar> row_scale =
      DiscountFactors(a.RowCounts(), DiscountSpec::Power(0.5));
  const std::vector<Scalar> col_scale =
      Sqrt(DiscountFactors(a.ColCounts(), DiscountSpec::Power(0.5)));

  CsrMatrix scaled = a;
  scaled.ScaleRows(row_scale);
  scaled.ScaleCols(col_scale);
  for (Scalar threshold : {0.0, 0.02}) {
    SpGemmOptions options;
    options.threshold = threshold;
    auto full = SpGemmAAt(scaled, options);
    ASSERT_TRUE(full.ok());
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      auto upper = SpGemmAAtSymmetric(a, row_scale, col_scale, options);
      ASSERT_TRUE(upper.ok());
      auto mirrored = MirrorUpperTriangle(*upper, threads);
      ASSERT_TRUE(mirrored.ok());
      EXPECT_EQ(*full, *mirrored)
          << "threshold=" << threshold << " threads=" << threads;
    }
  }
}

TEST_P(FusedSymmetricTest, UnscaledUpperTriangleMatchesPlainAAt) {
  const Digraph g = GetParam().make();
  const CsrMatrix& a = g.adjacency();
  auto full = SpGemmAAt(a);
  ASSERT_TRUE(full.ok());
  auto upper = SpGemmAAtSymmetric(a, {}, {});
  ASSERT_TRUE(upper.ok());
  auto mirrored = MirrorUpperTriangle(*upper);
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(*full, *mirrored);
}

TEST_P(FusedSymmetricTest, PrecomputedTransposeOverloadsMatch) {
  const Digraph g = GetParam().make();
  const CsrMatrix& a = g.adjacency();
  const CsrMatrix at = a.Transpose();
  auto aat = SpGemmAAt(a);
  ASSERT_TRUE(aat.ok());
  auto aat_pre = SpGemmAAt(a, at);
  ASSERT_TRUE(aat_pre.ok());
  EXPECT_EQ(*aat, *aat_pre);
}

TEST(FusedSymmetricUnitTest, PrecomputedTransposeShapeIsChecked) {
  CsrMatrix a = CsrMatrix::Zero(3, 4);
  CsrMatrix not_at = CsrMatrix::Zero(3, 4);  // should be 4x3
  EXPECT_FALSE(SpGemmAAt(a, not_at).ok());
  EXPECT_FALSE(SpGemmAAtSymmetric(a, {}, {}, {}, &not_at).ok());
}

TEST(FusedSymmetricUnitTest, ScaleSizesAreChecked) {
  CsrMatrix a = CsrMatrix::Zero(3, 4);
  const std::vector<Scalar> wrong(2, 1.0);
  EXPECT_FALSE(SpGemmAAtSymmetric(a, wrong, {}).ok());
  EXPECT_FALSE(SpGemmAAtSymmetric(a, {}, wrong).ok());
}

TEST(FusedSymmetricUnitTest, MirrorSmallKnownMatrix) {
  // upper = [2 1 0; . 3 5; . . 0] -> full has (1,0)=1, (2,1)=5 mirrored.
  auto upper = std::move(CsrMatrix::FromTriplets(
                             3, 3, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 3.0},
                                    {1, 2, 5.0}}))
                   .ValueOrDie();
  auto full = MirrorUpperTriangle(upper);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->nnz(), 6);
  EXPECT_DOUBLE_EQ(full->At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(full->At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(full->At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(full->At(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(full->At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(full->At(2, 1), 5.0);
  EXPECT_TRUE(full->IsSymmetric(0.0));
}

TEST(FusedSymmetricUnitTest, MirrorRejectsBelowDiagonalEntries) {
  auto lower = std::move(CsrMatrix::FromTriplets(3, 3, {{2, 0, 1.0}}))
                   .ValueOrDie();
  EXPECT_FALSE(MirrorUpperTriangle(lower).ok());
  EXPECT_FALSE(MirrorUpperTriangle(CsrMatrix::Zero(2, 3)).ok());
}

TEST(FusedSymmetricUnitTest, MirrorEmptyAndDiagonalOnly) {
  auto empty = MirrorUpperTriangle(CsrMatrix::Zero(4, 4));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->nnz(), 0);
  auto diag = MirrorUpperTriangle(CsrMatrix::Identity(4));
  ASSERT_TRUE(diag.ok());
  EXPECT_EQ(*diag, CsrMatrix::Identity(4));
}

TEST(FusedSymmetricUnitTest, SymmetricSumMatchesAddAndPrune) {
  // Two random upper triangles: the fused sum must equal mirror(B) +
  // mirror(C) followed by a Pruned pass, bitwise.
  auto b = std::move(CsrMatrix::FromTriplets(
                         4, 4, {{0, 1, 0.4}, {0, 3, 1.5}, {1, 1, 2.0},
                                {1, 2, 0.1}, {2, 3, 0.6}}))
               .ValueOrDie();
  auto c = std::move(CsrMatrix::FromTriplets(
                         4, 4, {{0, 1, 0.2}, {1, 2, 0.3}, {2, 2, 1.0},
                                {3, 3, 0.9}}))
               .ValueOrDie();
  auto full_b = MirrorUpperTriangle(b);
  auto full_c = MirrorUpperTriangle(c);
  ASSERT_TRUE(full_b.ok() && full_c.ok());
  auto added = CsrMatrix::Add(*full_b, *full_c);
  ASSERT_TRUE(added.ok());
  for (Scalar threshold : {0.0, 0.5}) {
    const CsrMatrix expected = added->Pruned(threshold, /*drop_diagonal=*/true);
    SpGemmOptions options;
    options.threshold = threshold;
    options.drop_diagonal = true;
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      auto sum = SpGemmSymmetricSum(b, c, options);
      ASSERT_TRUE(sum.ok());
      EXPECT_EQ(expected, *sum)
          << "threshold=" << threshold << " threads=" << threads;
    }
  }
}

TEST(FusedSymmetricUnitTest, SymmetricSumRejectsShapeMismatch) {
  EXPECT_FALSE(
      SpGemmSymmetricSum(CsrMatrix::Zero(3, 3), CsrMatrix::Zero(4, 4)).ok());
  EXPECT_FALSE(
      SpGemmSymmetricSum(CsrMatrix::Zero(3, 4), CsrMatrix::Zero(3, 4)).ok());
}

}  // namespace
}  // namespace dgc
