#include "linalg/csr_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"

namespace dgc {
namespace {

CsrMatrix Make(Index rows, Index cols, std::vector<Triplet> t) {
  auto result = CsrMatrix::FromTriplets(rows, cols, std::move(t));
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).ValueOrDie();
}

/// Builds a (possibly malformed) matrix with no validation, for exercising
/// the Validate() error paths below.
CsrMatrix MakeRaw(Index rows, Index cols, std::vector<Offset> row_ptr,
                  std::vector<Index> col_idx, std::vector<Scalar> values) {
  return CsrMatrix::FromPartsUnchecked(  // dgc-lint: allow(unchecked-needs-validate) deliberately building malformed matrices to test Validate()
      rows, cols, std::move(row_ptr), std::move(col_idx), std::move(values));
}

TEST(CsrMatrixTest, EmptyMatrix) {
  CsrMatrix m = CsrMatrix::Zero(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_TRUE(m.Validate().ok());
}

TEST(CsrMatrixTest, FromTripletsSortsAndStores) {
  CsrMatrix m = Make(3, 3, {{2, 1, 5.0}, {0, 2, 1.0}, {0, 0, 2.0}});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
}

TEST(CsrMatrixTest, FromTripletsSumsDuplicates) {
  CsrMatrix m = Make(2, 2, {{0, 1, 1.0}, {0, 1, 2.5}, {0, 1, -0.5}});
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 3.0);
}

TEST(CsrMatrixTest, FromTripletsRejectsOutOfRange) {
  auto result = CsrMatrix::FromTriplets(2, 2, {{0, 5, 1.0}});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfRange());
}

// Duplicates add left to right in input order, whether or not their row
// needs sorting: 1e16 + 1 rounds back to 1e16, so the order decides
// between 0 and 1.
TEST(CsrMatrixTest, FromTripletsSumsDuplicatesInInputOrder) {
  CsrMatrix m = Make(2, 3,
                     {{0, 1, 1e16}, {0, 1, 1.0}, {0, 1, -1e16},
                      {1, 2, 5.0}, {1, 1, 1e16}, {1, 0, 7.0},
                      {1, 1, -1e16}, {1, 1, 1.0}});
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_EQ(m.At(0, 1), 0.0);
  EXPECT_EQ(m.At(1, 1), 1.0);
  EXPECT_EQ(m.At(1, 0), 7.0);
  EXPECT_EQ(m.At(1, 2), 5.0);
}

// A long shuffled row with many duplicates equals a std::stable_sort of
// the triplets by (row, col) followed by a left-to-right duplicate sum.
TEST(CsrMatrixTest, FromTripletsMatchesStableSortReference) {
  Rng rng(31);
  std::vector<Triplet> t;
  for (int i = 0; i < 3000; ++i) {
    const Index row = i % 3 == 0 ? 0 : (i % 3 == 1 ? 2 : 3);
    t.push_back({row, static_cast<Index>(rng.UniformU64(700)),
                 rng.UniformDouble() * 1e3 - 4e2});
  }
  std::vector<Triplet> ref = t;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const Triplet& x, const Triplet& y) {
                     return x.row != y.row ? x.row < y.row : x.col < y.col;
                   });
  std::vector<Triplet> summed;
  for (const Triplet& x : ref) {
    if (!summed.empty() && summed.back().row == x.row &&
        summed.back().col == x.col) {
      summed.back().value += x.value;
    } else {
      summed.push_back(x);
    }
  }
  CsrMatrix m = Make(5, 700, t);
  ASSERT_TRUE(m.Validate().ok());
  ASSERT_EQ(m.nnz(), static_cast<Offset>(summed.size()));
  size_t p = 0;
  for (Index r = 0; r < m.rows(); ++r) {
    for (size_t i = 0; i < m.RowCols(r).size(); ++i, ++p) {
      EXPECT_EQ(summed[p].row, r);
      EXPECT_EQ(summed[p].col, m.RowCols(r)[i]);
      EXPECT_EQ(summed[p].value, m.RowValues(r)[i]);
    }
  }
}

TEST(CsrMatrixTest, FromPartsValidates) {
  // row_ptr not matching nnz.
  auto bad = CsrMatrix::FromParts(2, 2, {0, 1, 3}, {0}, {1.0});
  EXPECT_FALSE(bad.ok());
  auto good = CsrMatrix::FromParts(2, 2, {0, 1, 2}, {0, 1}, {1.0, 2.0});
  EXPECT_TRUE(good.ok());
}

TEST(CsrMatrixTest, FromPartsRejectsUnsortedColumns) {
  auto bad = CsrMatrix::FromParts(1, 3, {0, 2}, {2, 1}, {1.0, 1.0});
  EXPECT_FALSE(bad.ok());
}

TEST(CsrMatrixTest, FromPartsRejectsDuplicateColumns) {
  auto bad = CsrMatrix::FromParts(1, 3, {0, 2}, {1, 1}, {1.0, 1.0});
  EXPECT_FALSE(bad.ok());
}

TEST(CsrMatrixValidateTest, AcceptsWellFormedMatrix) {
  CsrMatrix m = MakeRaw(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  EXPECT_TRUE(m.Validate().ok());
}

TEST(CsrMatrixValidateTest, RejectsUnsortedColumns) {
  CsrMatrix m = MakeRaw(1, 3, {0, 2}, {2, 0}, {1.0, 2.0});
  Status s = m.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("not strictly increasing"), std::string::npos)
      << s;
}

TEST(CsrMatrixValidateTest, RejectsDuplicateColumns) {
  CsrMatrix m = MakeRaw(1, 3, {0, 2}, {1, 1}, {1.0, 2.0});
  Status s = m.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("not strictly increasing"), std::string::npos)
      << s;
}

TEST(CsrMatrixValidateTest, RejectsColumnOutOfRange) {
  CsrMatrix high = MakeRaw(1, 3, {0, 1}, {3}, {1.0});
  EXPECT_TRUE(high.Validate().IsOutOfRange());
  CsrMatrix negative = MakeRaw(1, 3, {0, 1}, {-1}, {1.0});
  EXPECT_TRUE(negative.Validate().IsOutOfRange());
}

TEST(CsrMatrixValidateTest, RejectsNonMonotoneRowPtr) {
  // Sizes are consistent (row_ptr.back() == nnz == 2) but the interior
  // pointer overshoots; Validate() must report this without ever using the
  // corrupt pointer to index col_idx (that read would itself be
  // out of bounds).
  CsrMatrix m = MakeRaw(2, 3, {0, 3, 2}, {0, 1}, {1.0, 2.0});
  Status s = m.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("non-decreasing"), std::string::npos) << s;
}

TEST(CsrMatrixValidateTest, RejectsRowPtrNotStartingAtZero) {
  CsrMatrix m = MakeRaw(1, 3, {1, 2}, {0, 1}, {1.0, 2.0});
  Status s = m.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("row_ptr[0]"), std::string::npos) << s;
}

TEST(CsrMatrixValidateTest, RejectsRowPtrSizeMismatch) {
  CsrMatrix m = MakeRaw(3, 3, {0, 1}, {0}, {1.0});
  Status s = m.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("rows+1"), std::string::npos) << s;
}

TEST(CsrMatrixValidateTest, RejectsNnzMismatch) {
  // row_ptr promises 3 entries but only 2 are stored.
  CsrMatrix truncated = MakeRaw(1, 4, {0, 3}, {0, 1}, {1.0, 2.0});
  EXPECT_TRUE(truncated.Validate().IsInvalidArgument());
  // col_idx and values disagree.
  CsrMatrix ragged = MakeRaw(1, 4, {0, 2}, {0, 1}, {1.0});
  EXPECT_TRUE(ragged.Validate().IsInvalidArgument());
}

TEST(CsrMatrixValidateTest, RejectsNegativeDimensions) {
  CsrMatrix m = MakeRaw(-1, 2, {0}, {}, {});
  EXPECT_TRUE(m.Validate().IsInvalidArgument());
}

TEST(CsrMatrixValidateDeathTest, ValidateStructureTrapsInCheckedBuilds) {
  CsrMatrix bad = MakeRaw(1, 3, {0, 2}, {2, 0}, {1.0, 2.0});
#if DGC_DCHECKS_ENABLED
  EXPECT_DEATH(bad.ValidateStructure("CsrMatrixValidateDeathTest"),
               "structurally invalid");
#else
  bad.ValidateStructure("CsrMatrixValidateDeathTest");  // compiled out
#endif
}

TEST(CsrMatrixTest, IdentityBehaves) {
  CsrMatrix eye = CsrMatrix::Identity(4);
  EXPECT_EQ(eye.nnz(), 4);
  for (Index i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(eye.At(i, i), 1.0);
  }
  EXPECT_TRUE(eye.IsSymmetric());
}

TEST(CsrMatrixTest, TransposeRoundTrip) {
  Rng rng(123);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 200; ++i) {
    triplets.push_back(Triplet{static_cast<Index>(rng.UniformU64(20)),
                               static_cast<Index>(rng.UniformU64(30)),
                               rng.UniformDouble()});
  }
  CsrMatrix m = Make(20, 30, triplets);
  CsrMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 30);
  EXPECT_EQ(t.cols(), 20);
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.Transpose(), m);
}

TEST(CsrMatrixTest, TransposeMatchesAt) {
  CsrMatrix m = Make(3, 2, {{0, 1, 4.0}, {2, 0, 7.0}});
  CsrMatrix t = m.Transpose();
  EXPECT_DOUBLE_EQ(t.At(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(t.At(0, 2), 7.0);
}

TEST(CsrMatrixTest, RowAndColSums) {
  CsrMatrix m = Make(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 2, 3.0}});
  auto rows = m.RowSums();
  EXPECT_DOUBLE_EQ(rows[0], 3.0);
  EXPECT_DOUBLE_EQ(rows[1], 3.0);
  auto cols = m.ColSums();
  EXPECT_DOUBLE_EQ(cols[0], 1.0);
  EXPECT_DOUBLE_EQ(cols[1], 0.0);
  EXPECT_DOUBLE_EQ(cols[2], 5.0);
}

TEST(CsrMatrixTest, RowAndColCounts) {
  CsrMatrix m = Make(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 2, 3.0}});
  auto rc = m.RowCounts();
  EXPECT_EQ(rc[0], 2);
  EXPECT_EQ(rc[1], 1);
  auto cc = m.ColCounts();
  EXPECT_EQ(cc[0], 1);
  EXPECT_EQ(cc[1], 0);
  EXPECT_EQ(cc[2], 2);
}

TEST(CsrMatrixTest, ScaleRowsAndCols) {
  CsrMatrix m = Make(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  std::vector<Scalar> row_scale = {2.0, 10.0};
  m.ScaleRows(row_scale);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 30.0);
  std::vector<Scalar> col_scale = {0.5, 0.1};
  m.ScaleCols(col_scale);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 3.0);
}

TEST(CsrMatrixTest, PrunedDropsSmallEntriesAndDiagonal) {
  CsrMatrix m = Make(2, 2,
                     {{0, 0, 0.001}, {0, 1, 1.0}, {1, 0, -2.0}, {1, 1, 5.0}});
  CsrMatrix p = m.Pruned(0.01);
  EXPECT_EQ(p.nnz(), 3);  // |-2| kept, 0.001 dropped
  CsrMatrix pd = m.Pruned(0.01, /*drop_diagonal=*/true);
  EXPECT_EQ(pd.nnz(), 2);
  EXPECT_DOUBLE_EQ(pd.At(1, 1), 0.0);
}

TEST(CsrMatrixTest, PlusIdentity) {
  CsrMatrix m = Make(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}});
  auto result = m.PlusIdentity();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(result->At(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(result->At(0, 1), 2.0);
}

TEST(CsrMatrixTest, PlusIdentityRejectsNonSquare) {
  CsrMatrix m = CsrMatrix::Zero(2, 3);
  EXPECT_FALSE(m.PlusIdentity().ok());
}

TEST(CsrMatrixTest, AddMergesStructures) {
  CsrMatrix a = Make(2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
  CsrMatrix b = Make(2, 2, {{0, 0, 3.0}, {0, 1, 4.0}});
  auto sum = CsrMatrix::Add(a, b);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum->At(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sum->At(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(sum->At(1, 1), 2.0);
  EXPECT_EQ(sum->nnz(), 3);
}

TEST(CsrMatrixTest, AddRejectsShapeMismatch) {
  EXPECT_FALSE(CsrMatrix::Add(CsrMatrix::Zero(2, 2),
                              CsrMatrix::Zero(3, 3)).ok());
}

TEST(CsrMatrixTest, SpliceRowsTakesListedRowsFromSource) {
  const CsrMatrix base =
      Make(4, 4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 3.0}, {3, 3, 4.0}});
  // Unlisted rows of the source are never read.
  const CsrMatrix source =
      Make(4, 4, {{0, 0, 9.0}, {1, 0, 5.0}, {1, 3, 6.0}, {3, 2, 7.0}});
  const std::vector<Index> rows = {1, 2};
  const CsrMatrix spliced = base.SpliceRows(rows, source);
  EXPECT_TRUE(spliced.Validate().ok());
  EXPECT_EQ(spliced, Make(4, 4,
                          {{0, 1, 1.0}, {1, 0, 5.0}, {1, 3, 6.0},
                           {3, 3, 4.0}}));
  EXPECT_EQ(base.SpliceRows({}, source), base);
  const std::vector<Index> all = {0, 1, 2, 3};
  EXPECT_EQ(base.SpliceRows(all, source), source);
}

TEST(CsrMatrixDeathTest, SpliceRowsRejectsUnsortedRows) {
  const CsrMatrix base = CsrMatrix::Identity(3);
  const std::vector<Index> unsorted = {2, 1};
  EXPECT_DEATH(base.SpliceRows(unsorted, base), "sorted, unique and in range");
  const std::vector<Index> out_of_range = {3};
  EXPECT_DEATH(base.SpliceRows(out_of_range, base),
               "sorted, unique and in range");
}

TEST(CsrMatrixTest, MultiplyVector) {
  CsrMatrix m = Make(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  std::vector<Scalar> x = {1.0, 2.0, 3.0};
  std::vector<Scalar> y(2);
  m.Multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(CsrMatrixTest, MultiplyTransposeMatchesExplicitTranspose) {
  Rng rng(7);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 100; ++i) {
    triplets.push_back(Triplet{static_cast<Index>(rng.UniformU64(15)),
                               static_cast<Index>(rng.UniformU64(10)),
                               rng.UniformDouble()});
  }
  CsrMatrix m = Make(15, 10, triplets);
  std::vector<Scalar> x(15);
  for (auto& v : x) v = rng.UniformDouble();
  std::vector<Scalar> y1(10), y2(10);
  m.MultiplyTranspose(x, y1);
  m.Transpose().Multiply(x, y2);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(CsrMatrixTest, IsSymmetricDetectsAsymmetry) {
  CsrMatrix sym = Make(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_TRUE(sym.IsSymmetric());
  CsrMatrix asym = Make(2, 2, {{0, 1, 1.0}});
  EXPECT_FALSE(asym.IsSymmetric());
  CsrMatrix weights = Make(2, 2, {{0, 1, 1.0}, {1, 0, 2.0}});
  EXPECT_FALSE(weights.IsSymmetric());
}

TEST(CsrMatrixTest, ToDense) {
  CsrMatrix m = Make(2, 2, {{0, 1, 3.0}, {1, 0, 4.0}});
  auto dense = m.ToDense();
  EXPECT_DOUBLE_EQ(dense[0 * 2 + 1], 3.0);
  EXPECT_DOUBLE_EQ(dense[1 * 2 + 0], 4.0);
  EXPECT_DOUBLE_EQ(dense[0], 0.0);
}

}  // namespace
}  // namespace dgc
