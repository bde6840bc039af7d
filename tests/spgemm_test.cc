#include "linalg/spgemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string_view>
#include <variant>

#include "linalg/spgemm_tiled.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace dgc {
namespace {

CsrMatrix Random(Index rows, Index cols, int nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (int i = 0; i < nnz; ++i) {
    triplets.push_back(
        Triplet{static_cast<Index>(rng.UniformU64(static_cast<uint64_t>(rows))),
                static_cast<Index>(rng.UniformU64(static_cast<uint64_t>(cols))),
                rng.UniformDouble() + 0.1});
  }
  return std::move(CsrMatrix::FromTriplets(rows, cols, triplets)).ValueOrDie();
}

std::vector<Scalar> DenseProduct(const CsrMatrix& a, const CsrMatrix& b) {
  auto da = a.ToDense();
  auto db = b.ToDense();
  std::vector<Scalar> dc(static_cast<size_t>(a.rows()) * b.cols(), 0.0);
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index k = 0; k < a.cols(); ++k) {
      const Scalar av = da[static_cast<size_t>(i) * a.cols() + k];
      if (av == 0.0) continue;
      for (Index j = 0; j < b.cols(); ++j) {
        dc[static_cast<size_t>(i) * b.cols() + j] +=
            av * db[static_cast<size_t>(k) * b.cols() + j];
      }
    }
  }
  return dc;
}

TEST(SpGemmTest, SmallKnownProduct) {
  auto a = std::move(CsrMatrix::FromTriplets(
                         2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}}))
               .ValueOrDie();
  auto b = std::move(CsrMatrix::FromTriplets(
                         2, 2, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}}))
               .ValueOrDie();
  auto c = SpGemm(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c->At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c->At(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(c->At(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(c->At(1, 1), 3.0);
}

TEST(SpGemmTest, MatchesDenseReference) {
  CsrMatrix a = Random(25, 18, 120, 1);
  CsrMatrix b = Random(18, 30, 140, 2);
  auto c = SpGemm(a, b);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Validate().ok());
  auto expected = DenseProduct(a, b);
  auto actual = c->ToDense();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-10);
  }
}

TEST(SpGemmTest, RejectsDimensionMismatch) {
  EXPECT_FALSE(SpGemm(CsrMatrix::Zero(2, 3), CsrMatrix::Zero(4, 2)).ok());
}

TEST(SpGemmTest, ThresholdDropsSmallEntries) {
  CsrMatrix a = Random(20, 20, 100, 3);
  SpGemmOptions options;
  options.threshold = 0.5;
  auto c = SpGemm(a, a, options);
  ASSERT_TRUE(c.ok());
  for (Scalar v : c->values()) {
    EXPECT_GE(std::abs(v), 0.5);
  }
  // The thresholded result must be a subset of the full product.
  auto full = SpGemm(a, a);
  ASSERT_TRUE(full.ok());
  for (Index i = 0; i < c->rows(); ++i) {
    auto cols = c->RowCols(i);
    auto vals = c->RowValues(i);
    for (size_t e = 0; e < cols.size(); ++e) {
      EXPECT_NEAR(full->At(i, cols[e]), vals[e], 1e-10);
    }
  }
}

/// The `pruned_entries` metric of the one span named `name`.
int64_t PrunedEntries(const MetricsRegistry& registry, std::string_view name) {
  int64_t found = -1;
  for (const SpanNode& span : registry.Spans()) {
    if (span.name != name) continue;
    for (const auto& [key, value] : span.metrics) {
      if (key == "pruned_entries") found = std::get<int64_t>(value);
    }
  }
  return found;
}

// Exact filter semantics of the row finalization shared by every kernel:
// a value equal to the threshold is kept, one below it is dropped,
// drop_diagonal removes the diagonal, and `pruned_entries` counts the
// threshold drops only (a dropped diagonal is not a prune).
TEST(SpGemmTest, ThresholdAndDiagonalSemanticsPinned) {
  // I * B == B exactly, so each output is the B entry itself.
  auto eye = std::move(CsrMatrix::FromTriplets(
                           3, 3, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}}))
                 .ValueOrDie();
  auto b = std::move(CsrMatrix::FromTriplets(3, 3,
                                             {{0, 0, 9.0},
                                              {0, 1, 0.5},
                                              {0, 2, 0.499},
                                              {1, 1, 0.25},
                                              {2, 0, 0.75}}))
               .ValueOrDie();
  MetricsRegistry registry;
  SpGemmOptions options;
  options.threshold = 0.5;
  options.drop_diagonal = true;
  options.metrics = &registry;
  auto c = SpGemm(eye, b, options);
  ASSERT_TRUE(c.ok());
  // Row 0: the diagonal 9.0 goes, 0.5 (== threshold) stays, 0.499 goes.
  // Row 1: the diagonal 0.25 is below the threshold, so it counts as a
  // prune. Row 2: 0.75 stays.
  ASSERT_EQ(c->nnz(), 2);
  EXPECT_EQ(c->At(0, 1), 0.5);
  EXPECT_EQ(c->At(2, 0), 0.75);
  EXPECT_EQ(PrunedEntries(registry, "spgemm"), 2);
}

TEST(SpGemmTest, SymmetricThresholdAndDiagonalSemanticsPinned) {
  // A is one column, so (A Aᵀ)(i, j) = a_i * a_j: the upper triangle holds
  // (0,0)=1, (0,1)=0.5, (0,2)=0.499, (1,1)=0.25, (1,2)=0.2495 and
  // (2,2)=0.249001.
  auto a = std::move(CsrMatrix::FromTriplets(
                         3, 1, {{0, 0, 1.0}, {1, 0, 0.5}, {2, 0, 0.499}}))
               .ValueOrDie();
  MetricsRegistry registry;
  SpGemmOptions options;
  options.threshold = 0.5;
  options.drop_diagonal = true;
  options.metrics = &registry;
  auto upper = SpGemmAAtSymmetric(a, {}, {}, options);
  ASSERT_TRUE(upper.ok());
  // Only (0,1) == threshold survives; the dropped diagonal (0,0) is not
  // counted, the other four entries are threshold drops.
  ASSERT_EQ(upper->nnz(), 1);
  EXPECT_EQ(upper->At(0, 1), 0.5);
  EXPECT_EQ(PrunedEntries(registry, "spgemm.aat_symmetric"), 4);
}

TEST(SpGemmTest, DropDiagonalRemovesSelfEntries) {
  CsrMatrix a = Random(20, 20, 100, 4);
  SpGemmOptions options;
  options.drop_diagonal = true;
  auto c = SpGemmAAt(a, options);
  ASSERT_TRUE(c.ok());
  for (Index i = 0; i < c->rows(); ++i) {
    EXPECT_DOUBLE_EQ(c->At(i, i), 0.0);
  }
}

TEST(SpGemmTest, AAtIsExactlySymmetric) {
  CsrMatrix a = Random(40, 25, 300, 5);
  auto c = SpGemmAAt(a);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->IsSymmetric(0.0));  // bitwise symmetry (same summation order)
}

TEST(SpGemmTest, AtAIsExactlySymmetric) {
  CsrMatrix a = Random(40, 25, 300, 6);
  auto c = SpGemm(a.Transpose(), a);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->IsSymmetric(0.0));
  EXPECT_EQ(c->rows(), 25);
}

TEST(SpGemmTest, AAtCountsCommonOutLinks) {
  // Paper Section 2.2: B(i,j) = number of nodes both i and j point to.
  auto a = std::move(CsrMatrix::FromTriplets(3, 3,
                                             {{0, 2, 1.0},
                                              {1, 2, 1.0},
                                              {0, 1, 1.0},
                                              {1, 0, 1.0}}))
               .ValueOrDie();
  auto b = SpGemmAAt(a);
  ASSERT_TRUE(b.ok());
  // Nodes 0 and 1 share exactly one out-neighbor (node 2).
  EXPECT_DOUBLE_EQ(b->At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(b->At(1, 0), 1.0);
}

TEST(SpGemmTest, MergeRowSumIsAddWithoutTheDiagonal) {
  // Rows of drop_diag(A + Aᵀ), merged one at a time with threshold 0, are
  // the bytes of CsrMatrix::Add followed by dropping the diagonal.
  const CsrMatrix a = Random(40, 40, 160, 11);
  const CsrMatrix at = a.Transpose();
  const CsrMatrix expected =
      CsrMatrix::Add(a, at).ValueOrDie().Pruned(0.0, /*drop_diagonal=*/true);
  SpGemmOptions options;
  options.drop_diagonal = true;
  std::vector<Offset> row_ptr = {0};
  std::vector<Index> cols;
  std::vector<Scalar> vals;
  for (Index r = 0; r < a.rows(); ++r) {
    EXPECT_EQ(MergeRowSum(a, at, r, r, options, cols, vals), 0);
    row_ptr.push_back(static_cast<Offset>(cols.size()));
  }
  auto merged = CsrMatrix::FromParts(40, 40, row_ptr, cols, vals);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, expected);
}

TEST(SpGemmTest, ProductSumSplitPrunesProductsAtHalfTheThreshold) {
  const ProductSumOptions split = SplitProductSumThreshold(0.5, 4);
  EXPECT_EQ(split.product.threshold, 0.25);
  EXPECT_EQ(split.sum.threshold, 0.5);
  EXPECT_TRUE(split.product.drop_diagonal);
  EXPECT_TRUE(split.sum.drop_diagonal);
  EXPECT_EQ(split.product.num_threads, 4);
  EXPECT_EQ(split.sum.num_threads, 4);
}

TEST(SpGemmTest, MultiThreadedMatchesSingleThreaded) {
  CsrMatrix a = Random(60, 60, 700, 7);
  SpGemmOptions single;
  SpGemmOptions multi;
  multi.num_threads = 4;
  auto c1 = SpGemm(a, a, single);
  auto c4 = SpGemm(a, a, multi);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c4.ok());
  EXPECT_EQ(*c1, *c4);
}

TEST(SpGemmTest, FlopsCountsMultiplies) {
  auto a = std::move(CsrMatrix::FromTriplets(
                         2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}}))
               .ValueOrDie();
  // Row 0 touches rows 0 (2 nnz) and 1 (1 nnz) of a: 3 flops.
  // Row 1 touches row 0: 2 flops. Total 5.
  EXPECT_EQ(SpGemmFlops(a, a), 5);
}

TEST(SpGemmTest, EmptyProduct) {
  auto c = SpGemm(CsrMatrix::Zero(3, 4), CsrMatrix::Zero(4, 5));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->nnz(), 0);
  EXPECT_EQ(c->rows(), 3);
  EXPECT_EQ(c->cols(), 5);
}

bool SameBytes(const CsrMatrix& x, const CsrMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         x.nnz() == y.nnz() &&
         std::memcmp(x.row_ptr().data(), y.row_ptr().data(),
                     x.row_ptr().size_bytes()) == 0 &&
         std::memcmp(x.col_idx().data(), y.col_idx().data(),
                     x.col_idx().size_bytes()) == 0 &&
         std::memcmp(x.values().data(), y.values().data(),
                     x.values().size_bytes()) == 0;
}

// Row 0 of A has two entries whose B rows each cover all n columns: once
// the first B row has touched every column, each further candidate is
// stored in the last slot of the touched list. The rows after it must
// start from a clean accumulator. n = 5 and 300 sit on both sides of the
// radix-sort cutover.
TEST(SpGemmTest, RowTouchingEveryColumn) {
  for (Index n : {5, 300}) {
    std::vector<Triplet> at = {{0, 0, 1.5}, {0, 1, -0.25}, {1, 1, 2.0}};
    for (Index r = 2; r < n; ++r) at.push_back({r, r % 2, 0.5});
    std::vector<Triplet> bt;
    for (Index j = 0; j < n; ++j) {
      bt.push_back({0, j, 0.5 * (j + 1)});
      bt.push_back({1, j, 1.0 / (j + 1)});
    }
    auto a = std::move(CsrMatrix::FromTriplets(n, 2, at)).ValueOrDie();
    auto b = std::move(CsrMatrix::FromTriplets(2, n, bt)).ValueOrDie();
    auto c = SpGemm(a, b);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c->RowNnz(0), n);
    const std::vector<Scalar> dense = DenseProduct(a, b);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        EXPECT_EQ(c->At(i, j), dense[static_cast<size_t>(i) * n + j])
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

// The upper-triangle kernel on a dense n x 2 A: row 0's candidates are all
// n rows for k = 0 and again for k = 1, so the second pass stores into the
// last touched slot. Every upper entry equals SpGemm(A, Aᵀ) bit for bit
// (same k order).
TEST(SpGemmTest, SymmetricRowTouchingEveryColumn) {
  for (Index n : {5, 300}) {
    std::vector<Triplet> t;
    for (Index r = 0; r < n; ++r) {
      t.push_back({r, 0, 1.0 + 0.01 * r});
      t.push_back({r, 1, 1.0 / (r + 1)});
    }
    auto a = std::move(CsrMatrix::FromTriplets(n, 2, t)).ValueOrDie();
    auto upper = SpGemmAAtSymmetric(a, {}, {});
    auto full = SpGemm(a, a.Transpose());
    ASSERT_TRUE(upper.ok());
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(upper->RowNnz(0), n);
    EXPECT_EQ(upper->nnz(), static_cast<Offset>(n) * (n + 1) / 2);
    for (Index i = 0; i < n; ++i) {
      for (Index j = i; j < n; ++j) {
        EXPECT_EQ(upper->At(i, j), full->At(i, j))
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

// At tile_rows = 1 each worker's workspace runs the B product and then
// the C product over the same row, while rows drop entries to the
// threshold and the diagonal; the accumulator must come back clean every
// time. The result is byte-equal to the one-tile (in-memory) plan, which
// gives every product fresh workspaces.
TEST(SpGemmTest, ReusedWorkspaceMatchesInMemoryWhileRowsDropEntries) {
  const Index n = 80;
  CsrMatrix a = Random(n, n, 640, 11);
  CsrMatrix at = a.Transpose();
  Rng rng(12);
  std::vector<Scalar> scales[4];
  for (std::vector<Scalar>& s : scales) {
    for (Index i = 0; i < n; ++i) s.push_back(0.5 + rng.UniformDouble());
  }
  // Half the products' upper entries fall below t / 2.
  auto probe = SpGemmAAtSymmetric(a, scales[0], scales[1], {}, &at);
  ASSERT_TRUE(probe.ok());
  std::vector<Scalar> values(probe->values().begin(), probe->values().end());
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  TiledSymmetricSumOptions options;
  options.threshold = 2.0 * values[values.size() / 2];
  MetricsRegistry registry;
  options.metrics = &registry;
  options.tile_rows = n;
  auto in_memory = SymmetricProductSum(a, at, scales[0], scales[1],
                                       scales[2], scales[3], options);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_GT(PrunedEntries(registry, "spgemm.aat_symmetric"), 0);
  options.metrics = nullptr;
  options.tile_rows = 1;
  auto tiled = SymmetricProductSum(a, at, scales[0], scales[1], scales[2],
                                   scales[3], options);
  ASSERT_TRUE(tiled.ok());
  EXPECT_GT(tiled->nnz(), 0);
  EXPECT_TRUE(SameBytes(*in_memory, *tiled));
}

}  // namespace
}  // namespace dgc
