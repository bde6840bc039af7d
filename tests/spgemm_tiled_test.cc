// Unit tests for the symmetric product-sum driver (linalg/spgemm_tiled.h).
// The load-bearing contract is bit-identity: at every tile size, thread
// count and budget, SymmetricProductSum must reproduce the in-memory fused
// path byte-for-byte — EXPECT on row_ptr/col_idx equality plus memcmp on
// the value bytes, never a tolerance. Also covered: the deterministic row
// partition, the one-tile plan (in-memory kernels, no spool), the spool
// lifecycle (spill files cleaned up, spill_dir honored), budget-ledger
// cancellation, and the "tiled_spgemm" span.
#include "linalg/spgemm_tiled.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/discount.h"
#include "gen/rmat.h"
#include "graph/digraph.h"
#include "linalg/csr_matrix.h"
#include "linalg/spgemm.h"
#include "obs/metrics.h"
#include "util/budget.h"
#include "util/rng.h"

namespace dgc {
namespace {

CsrMatrix RandomSquare(Index n, int nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  for (int i = 0; i < nnz; ++i) {
    t.push_back(
        Triplet{static_cast<Index>(rng.UniformU64(static_cast<uint64_t>(n))),
                static_cast<Index>(rng.UniformU64(static_cast<uint64_t>(n))),
                rng.UniformDouble() + 0.1});
  }
  return std::move(CsrMatrix::FromTriplets(n, n, t)).ValueOrDie();
}

std::vector<Scalar> RandomScale(Index n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Scalar> s(static_cast<size_t>(n));
  for (Scalar& v : s) v = rng.UniformDouble() + 0.25;
  return s;
}

/// Byte-level equality: structure via span compare, values via memcmp (so
/// -0.0 vs 0.0 or NaN-payload drift would be caught).
void ExpectBitIdentical(const CsrMatrix& actual, const CsrMatrix& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.rows(), expected.rows()) << label;
  ASSERT_EQ(actual.nnz(), expected.nnz()) << label;
  EXPECT_TRUE(std::equal(actual.row_ptr().begin(), actual.row_ptr().end(),
                         expected.row_ptr().begin()))
      << label;
  EXPECT_TRUE(std::equal(actual.col_idx().begin(), actual.col_idx().end(),
                         expected.col_idx().begin()))
      << label;
  EXPECT_EQ(0, std::memcmp(actual.values().data(), expected.values().data(),
                           actual.values().size() * sizeof(Scalar)))
      << label;
}

/// The in-memory oracle the tiled driver must reproduce bit-for-bit.
CsrMatrix InMemoryProductSum(const CsrMatrix& a, const CsrMatrix& at,
                             std::span<const Scalar> b_row,
                             std::span<const Scalar> b_col,
                             std::span<const Scalar> c_row,
                             std::span<const Scalar> c_col,
                             const TiledSymmetricSumOptions& options) {
  SpGemmOptions product;
  product.threshold = options.threshold / 2.0;
  product.drop_diagonal = true;
  product.num_threads = options.num_threads;
  auto b = SpGemmAAtSymmetric(a, b_row, b_col, product, &at);
  EXPECT_TRUE(b.ok()) << b.status();
  auto c = SpGemmAAtSymmetric(at, c_row, c_col, product, &a);
  EXPECT_TRUE(c.ok()) << c.status();
  SpGemmOptions sum;
  sum.threshold = options.threshold;
  sum.drop_diagonal = true;
  sum.num_threads = options.num_threads;
  auto merged = SpGemmSymmetricSum(*b, *c, sum);
  EXPECT_TRUE(merged.ok()) << merged.status();
  return std::move(*merged);
}

TEST(PlanRowTilesTest, PinnedTileRowsGiveFixedCuts) {
  CsrMatrix a = RandomSquare(100, 600, 1);
  CsrMatrix at = a.Transpose();
  TiledSymmetricSumOptions options;
  options.tile_rows = 32;
  TilePlan plan = PlanRowTiles(a, at, options);
  ASSERT_EQ(plan.cuts.size(), 5u);  // 0,32,64,96,100
  EXPECT_EQ(plan.cuts.front(), 0);
  EXPECT_EQ(plan.cuts.back(), 100);
  for (size_t i = 1; i < plan.cuts.size(); ++i) {
    EXPECT_LT(plan.cuts[i - 1], plan.cuts[i]);
  }
}

TEST(PlanRowTilesTest, BudgetDerivedPartitionCoversAllRowsDeterministically) {
  CsrMatrix a = RandomSquare(300, 2500, 2);
  CsrMatrix at = a.Transpose();
  TiledSymmetricSumOptions options;
  options.max_memory_bytes = 256 << 10;  // tight: forces several tiles
  TilePlan plan = PlanRowTiles(a, at, options);
  EXPECT_GT(plan.tile_budget_bytes, 0);
  ASSERT_GE(plan.cuts.size(), 2u);
  EXPECT_EQ(plan.cuts.front(), 0);
  EXPECT_EQ(plan.cuts.back(), 300);
  for (size_t i = 1; i < plan.cuts.size(); ++i) {
    EXPECT_LT(plan.cuts[i - 1], plan.cuts[i]);
  }
  // Pure function of the inputs: a second call yields the same cuts.
  TilePlan again = PlanRowTiles(a, at, options);
  EXPECT_EQ(plan.cuts, again.cuts);
}

TEST(PlanRowTilesTest, EstimatesBoundRowExtents) {
  CsrMatrix a = RandomSquare(80, 500, 3);
  CsrMatrix at = a.Transpose();
  const std::vector<int64_t> est = EstimateUpperRowEntries(a, at);
  ASSERT_EQ(est.size(), 80u);
  for (Index r = 0; r < 80; ++r) {
    EXPECT_GE(est[static_cast<size_t>(r)], 0);
    EXPECT_LE(est[static_cast<size_t>(r)], 80 - r);
  }
  // The estimate really bounds the computed upper-triangle row sizes.
  SpGemmOptions product;
  auto upper = SpGemmAAtSymmetric(a, {}, {}, product, &at);
  ASSERT_TRUE(upper.ok());
  for (Index r = 0; r < 80; ++r) {
    EXPECT_LE(upper->RowNnz(r), est[static_cast<size_t>(r)]) << "row " << r;
  }
}

class TiledEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions rmat;
    rmat.scale = 9;
    rmat.edge_factor = 8.0;
    auto dataset = GenerateRmat(rmat);
    ASSERT_TRUE(dataset.ok());
    a_ = dataset->graph.adjacency();
    at_ = a_.Transpose();
    n_ = a_.rows();
  }

  CsrMatrix a_;
  CsrMatrix at_;
  Index n_ = 0;
};

TEST_F(TiledEquivalenceTest, MatchesInMemoryAcrossTileSizesAndThreads) {
  TiledSymmetricSumOptions base;
  base.threshold = 0.1;
  const std::vector<Scalar> so = RandomScale(n_, 11);
  const std::vector<Scalar> si = RandomScale(n_, 12);
  const std::vector<Scalar> sqrt_so = Sqrt(so);
  const std::vector<Scalar> sqrt_si = Sqrt(si);
  const CsrMatrix expected =
      InMemoryProductSum(a_, at_, so, sqrt_si, si, sqrt_so, base);
  ASSERT_GT(expected.nnz(), 0);

  for (Index tile_rows : {Index{7}, Index{64}, n_, 3 * n_}) {
    for (int threads : {1, 4, 0}) {
      TiledSymmetricSumOptions options = base;
      options.tile_rows = tile_rows;
      options.num_threads = threads;
      auto tiled =
          SymmetricProductSum(a_, at_, so, sqrt_si, si, sqrt_so, options);
      ASSERT_TRUE(tiled.ok()) << tiled.status();
      ExpectBitIdentical(*tiled, expected,
                         "tile_rows=" + std::to_string(tile_rows) +
                             " threads=" + std::to_string(threads));
    }
  }
  // Budget-derived partition (tile_rows = 0) with a budget small enough to
  // force several tiles must also match.
  TiledSymmetricSumOptions auto_tiles = base;
  auto_tiles.max_memory_bytes = 1 << 20;
  auto tiled =
      SymmetricProductSum(a_, at_, so, sqrt_si, si, sqrt_so, auto_tiles);
  ASSERT_TRUE(tiled.ok()) << tiled.status();
  ExpectBitIdentical(*tiled, expected, "budget-derived tiles");
}

TEST_F(TiledEquivalenceTest, BibliometricStyleEmptyScalesMatch) {
  TiledSymmetricSumOptions base;
  base.threshold = 2.0;
  const CsrMatrix expected =
      InMemoryProductSum(a_, at_, {}, {}, {}, {}, base);
  for (Index tile_rows : {Index{33}, n_}) {
    TiledSymmetricSumOptions options = base;
    options.tile_rows = tile_rows;
    auto tiled = SymmetricProductSum(a_, at_, {}, {}, {}, {}, options);
    ASSERT_TRUE(tiled.ok()) << tiled.status();
    ExpectBitIdentical(*tiled, expected,
                       "tile_rows=" + std::to_string(tile_rows));
  }
}

// The row-range upper-product pass is shared by the one-tile plan (one
// range over every row) and every tile of the spool loop. Sweep tile
// heights from one row per tile to a single oversized tile, with distinct
// row and column scales on both products.
TEST_F(TiledEquivalenceTest, RowRangeProductsMatchAtEveryTileHeight) {
  const std::vector<Scalar> b_row = RandomScale(n_, 21);
  const std::vector<Scalar> b_col = RandomScale(n_, 22);
  const std::vector<Scalar> c_row = RandomScale(n_, 23);
  const std::vector<Scalar> c_col = RandomScale(n_, 24);
  TiledSymmetricSumOptions base;
  base.threshold = 0.04;
  const CsrMatrix expected =
      InMemoryProductSum(a_, at_, b_row, b_col, c_row, c_col, base);
  ASSERT_GT(expected.nnz(), 0);
  for (Index tile_rows : {Index{1}, Index{17}, n_, 2 * n_}) {
    for (int threads : {1, 0}) {
      TiledSymmetricSumOptions options = base;
      options.tile_rows = tile_rows;
      options.num_threads = threads;
      auto summed =
          SymmetricProductSum(a_, at_, b_row, b_col, c_row, c_col, options);
      ASSERT_TRUE(summed.ok()) << summed.status();
      ExpectBitIdentical(*summed, expected,
                         "tile_rows=" + std::to_string(tile_rows) +
                             " threads=" + std::to_string(threads));
    }
  }
}

// A one-tile plan runs the in-memory kernels: no spool file is opened, so
// an unusable spill_dir does not matter, and no "tiled_spgemm" span is
// recorded. Two tiles need the spool and fail cleanly.
TEST_F(TiledEquivalenceTest, OneTilePlanOpensNoSpool) {
  TiledSymmetricSumOptions options;
  options.threshold = 0.5;
  options.spill_dir = "/proc/definitely/not/writable";
  const CsrMatrix expected =
      InMemoryProductSum(a_, at_, {}, {}, {}, {}, options);
  for (Index tile_rows : {n_, 2 * n_}) {
    MetricsRegistry registry;
    options.tile_rows = tile_rows;
    options.metrics = &registry;
    auto summed = SymmetricProductSum(a_, at_, {}, {}, {}, {}, options);
    ASSERT_TRUE(summed.ok()) << summed.status();
    ExpectBitIdentical(*summed, expected,
                       "tile_rows=" + std::to_string(tile_rows));
    bool has_products = false;
    for (const SpanNode& span : registry.Spans()) {
      EXPECT_NE(span.name, "tiled_spgemm");
      if (span.name == "spgemm.aat_symmetric") has_products = true;
    }
    EXPECT_TRUE(has_products);
  }
  options.tile_rows = n_ / 2;
  options.metrics = nullptr;
  auto spooled = SymmetricProductSum(a_, at_, {}, {}, {}, {}, options);
  ASSERT_FALSE(spooled.ok());
  EXPECT_TRUE(spooled.status().IsIOError()) << spooled.status();
}

TEST_F(TiledEquivalenceTest, SpillDirIsHonoredAndCleaned) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dgc_tiled_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  TiledSymmetricSumOptions options;
  options.tile_rows = 50;
  options.spill_dir = dir.string();
  auto tiled = SymmetricProductSum(a_, at_, {}, {}, {}, {}, options);
  ASSERT_TRUE(tiled.ok()) << tiled.status();
  // The spool must not outlive the call.
  size_t leftover = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++leftover;
  }
  EXPECT_EQ(leftover, 0u);
  std::filesystem::remove_all(dir);
  // A spill_dir that cannot be created yields a clean error, not a crash.
  TiledSymmetricSumOptions bad = options;
  bad.spill_dir = "/proc/definitely/not/writable";
  EXPECT_FALSE(SymmetricProductSum(a_, at_, {}, {}, {}, {}, bad).ok());
}

TEST_F(TiledEquivalenceTest, TinyMemoryBudgetTripsTheLedger) {
  CancelToken token;
  token.Arm(ResourceBudget{.max_memory_bytes = 1024});
  TiledSymmetricSumOptions options;
  options.tile_rows = 64;
  options.cancel = &token;
  auto tiled = SymmetricProductSum(a_, at_, {}, {}, {}, {}, options);
  ASSERT_FALSE(tiled.ok());
  EXPECT_TRUE(tiled.status().IsResourceExhausted()) << tiled.status();
}

TEST_F(TiledEquivalenceTest, RecordsTiledSpgemmSpan) {
  MetricsRegistry registry;
  TiledSymmetricSumOptions options;
  options.tile_rows = 40;
  options.metrics = &registry;
  auto tiled = SymmetricProductSum(a_, at_, {}, {}, {}, {}, options);
  ASSERT_TRUE(tiled.ok());
  bool found = false;
  for (const SpanNode& span : registry.Spans()) {
    if (span.name != "tiled_spgemm") continue;
    found = true;
    bool has_spill = false;
    bool has_output = false;
    for (const auto& [key, value] : span.metrics) {
      if (key == "spill_bytes") {
        has_spill = true;
        EXPECT_GT(std::get<int64_t>(value), 0);
      }
      if (key == "output_nnz") {
        has_output = true;
        EXPECT_EQ(std::get<int64_t>(value), tiled->nnz());
      }
    }
    EXPECT_TRUE(has_spill);
    EXPECT_TRUE(has_output);
    bool has_tiles = false;
    for (const auto& [key, value] : span.perf) {
      if (key == "tiles") {
        has_tiles = true;
        EXPECT_GE(std::get<int64_t>(value), (n_ + 39) / 40);
      }
    }
    EXPECT_TRUE(has_tiles);
  }
  EXPECT_TRUE(found);
}

TEST(TiledValidationTest, RejectsMismatchedInputs) {
  CsrMatrix a = RandomSquare(30, 120, 7);
  CsrMatrix at = a.Transpose();
  TiledSymmetricSumOptions options;
  // Non-transpose pair (wrong shape).
  CsrMatrix wide =
      std::move(CsrMatrix::FromTriplets(30, 20, {Triplet{0, 1, 1.0}}))
          .ValueOrDie();
  EXPECT_FALSE(SymmetricProductSum(a, wide, {}, {}, {}, {}, options).ok());
  // Scale vector of the wrong length.
  std::vector<Scalar> short_scale(10, 1.0);
  EXPECT_FALSE(
      SymmetricProductSum(a, at, short_scale, {}, {}, {}, options).ok());
}

}  // namespace
}  // namespace dgc
