#include "linalg/spgemm_tiled.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <utility>

#include "linalg/spgemm_impl.h"
#include "obs/span.h"
#include "util/thread_pool.h"

namespace dgc {

using spgemm_internal::Cancelled;
using spgemm_internal::ComputeUpperRows;
using spgemm_internal::SpGemmWorkspace;

namespace {

/// Cost model of the tiled driver's transient working set, in bytes per
/// *estimated* upper-triangle entry of a tile: pass-1 worker buffers
/// (12) + the assembled tile CSR (12) + the merged block before it is
/// spilled (12). docs/OUT_OF_CORE.md derives this from the ledger charges.
constexpr int64_t kTileBytesPerEntry = 36;
/// Fixed per-row bytes (tile row_nnz + row_ptr bookkeeping).
constexpr int64_t kTileBytesPerRow = 24;
/// Tile byte target when neither tile_rows nor max_memory_bytes is set.
constexpr int64_t kDefaultTileBudgetBytes = int64_t{64} << 20;
/// Floor for the derived per-tile target, so a budget spent almost
/// entirely on accumulators still makes forward progress.
constexpr int64_t kMinTileBudgetBytes = int64_t{1} << 20;

int64_t SaturatingAdd(int64_t a, int64_t b) {
  if (a > std::numeric_limits<int64_t>::max() - b) {
    return std::numeric_limits<int64_t>::max();
  }
  return a + b;
}

int64_t SaturatingMul(int64_t a, int64_t b) {
  if (a != 0 && b > std::numeric_limits<int64_t>::max() / a) {
    return std::numeric_limits<int64_t>::max();
  }
  return a * b;
}

/// Per-worker dense accumulators, the fixed footprint of every pass.
int64_t AccumulatorBytes(int threads, Index n) {
  return static_cast<int64_t>(threads) * n *
         static_cast<int64_t>(sizeof(Scalar) + sizeof(Index));
}

/// \brief A temp-file spool for finished upper-triangle blocks: append-only
/// during the tile loop, then one sequential read-back for the stitch.
/// The file is unlinked by the destructor on every path.
class Spool {
 public:
  Spool() = default;
  ~Spool() {
    if (stream_.is_open()) stream_.close();
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove(path_, ec);  // best effort
    }
  }
  Spool(const Spool&) = delete;
  Spool& operator=(const Spool&) = delete;

  Status Create(const std::string& spill_dir) {
    std::error_code ec;
    std::filesystem::path dir;
    if (spill_dir.empty()) {
      dir = std::filesystem::temp_directory_path(ec);
      if (ec) {
        return Status::IOError("spool: no system temp directory: " +
                               ec.message());
      }
    } else {
      dir = spill_dir;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        return Status::IOError("spool: cannot create spill dir " + spill_dir +
                               ": " + ec.message());
      }
    }
    static std::atomic<uint64_t> counter{0};
    const uint64_t seq = counter.fetch_add(1, std::memory_order_relaxed);
    path_ = (dir / ("dgc_spool_" + std::to_string(::getpid()) + "_" +
                    std::to_string(seq) + ".bin"))
                .string();
    stream_.open(path_, std::ios::binary | std::ios::in | std::ios::out |
                            std::ios::trunc);
    if (!stream_) {
      return Status::IOError("spool: cannot open " + path_ + " for writing");
    }
    return Status::OK();
  }

  Status Append(const void* data, size_t bytes) {
    stream_.write(static_cast<const char*>(data),
                  static_cast<std::streamsize>(bytes));
    if (!stream_) return Status::IOError("spool: write failed on " + path_);
    bytes_written_ += static_cast<int64_t>(bytes);
    return Status::OK();
  }

  Status Rewind() {
    stream_.flush();
    stream_.seekg(0);
    if (!stream_) return Status::IOError("spool: rewind failed on " + path_);
    return Status::OK();
  }

  Status Read(void* data, size_t bytes) {
    stream_.read(static_cast<char*>(data),
                 static_cast<std::streamsize>(bytes));
    if (!stream_) {
      return Status::IOError("spool: truncated read from " + path_);
    }
    return Status::OK();
  }

  int64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::fstream stream_;
  int64_t bytes_written_ = 0;
};

Status CheckTransposePair(const char* who, const CsrMatrix& a,
                          const CsrMatrix& at) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument(std::string(who) +
                                   ": matrix must be square, got " +
                                   a.DebugString());
  }
  if (at.rows() != a.cols() || at.cols() != a.rows() || at.nnz() != a.nnz()) {
    return Status::InvalidArgument(std::string(who) + ": a_transpose " +
                                   at.DebugString() +
                                   " is not the transpose of " +
                                   a.DebugString());
  }
  return Status::OK();
}

Status CheckScale(const char* who, const char* name,
                  std::span<const Scalar> scale, Index n) {
  if (!scale.empty() && static_cast<Index>(scale.size()) != n) {
    return Status::InvalidArgument(std::string(who) + ": " + name +
                                   " size " + std::to_string(scale.size()) +
                                   " != dimension " + std::to_string(n));
  }
  return Status::OK();
}

}  // namespace

std::vector<int64_t> EstimateUpperRowEntries(const CsrMatrix& a,
                                             const CsrMatrix& at) {
  const Index rows = a.rows();
  std::vector<int64_t> est(static_cast<size_t>(rows), 0);
  for (Index r = 0; r < rows; ++r) {
    int64_t flops = 0;
    for (Index k : a.RowCols(r)) {
      flops = SaturatingAdd(flops, at.RowNnz(k));
    }
    est[static_cast<size_t>(r)] =
        std::min<int64_t>(flops, static_cast<int64_t>(rows) - r);
  }
  return est;
}

TilePlan PlanRowTiles(const CsrMatrix& a, const CsrMatrix& at,
                      const TiledSymmetricSumOptions& options) {
  const Index n = a.rows();
  TilePlan plan;
  plan.cuts.push_back(0);
  if (n == 0) return plan;
  if (options.tile_rows > 0) {
    for (Index lo = 0; lo < n; lo += options.tile_rows) {
      plan.cuts.push_back(std::min<Index>(n, lo + options.tile_rows));
    }
    return plan;
  }
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(options.num_threads), std::max<Index>(n, 1)));
  const int64_t budget = options.max_memory_bytes > 0
                             ? options.max_memory_bytes
                             : kDefaultTileBudgetBytes;
  plan.tile_budget_bytes = std::max(
      budget - AccumulatorBytes(threads, n), kMinTileBudgetBytes);
  const std::vector<int64_t> est_b = EstimateUpperRowEntries(a, at);
  const std::vector<int64_t> est_c = EstimateUpperRowEntries(at, a);
  int64_t current = 0;
  for (Index r = 0; r < n; ++r) {
    const int64_t entries =
        SaturatingAdd(est_b[static_cast<size_t>(r)],
                      est_c[static_cast<size_t>(r)]);
    const int64_t cost = SaturatingAdd(
        SaturatingMul(entries, kTileBytesPerEntry), kTileBytesPerRow);
    if (current > 0 && current + cost > plan.tile_budget_bytes) {
      plan.cuts.push_back(r);
      current = 0;
    }
    current = SaturatingAdd(current, cost);
  }
  plan.cuts.push_back(n);
  return plan;
}

int64_t EstimateInMemorySymmetricSumBytes(const CsrMatrix& a,
                                          const CsrMatrix& at,
                                          int num_threads) {
  const Index n = a.rows();
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(num_threads), std::max<Index>(n, 1)));
  const std::vector<int64_t> est_b = EstimateUpperRowEntries(a, at);
  const std::vector<int64_t> est_c = EstimateUpperRowEntries(at, a);
  int64_t total_b = 0;
  int64_t total_c = 0;
  for (Index r = 0; r < n; ++r) {
    total_b = SaturatingAdd(total_b, est_b[static_cast<size_t>(r)]);
    total_c = SaturatingAdd(total_c, est_c[static_cast<size_t>(r)]);
  }
  // The in-memory ledger peaks at the two-pass assembly of the larger
  // product: worker buffers + final CSR, 2 x 12 bytes per entry
  // (spgemm_internal::AssemblyBytes), on top of the accumulators.
  const int64_t assembly = SaturatingMul(
      std::max(total_b, total_c),
      2 * static_cast<int64_t>(sizeof(Index) + sizeof(Scalar)));
  return SaturatingAdd(AccumulatorBytes(threads, n), assembly);
}

Result<CsrMatrix> SymmetricProductSum(
    const CsrMatrix& a, const CsrMatrix& at,
    std::span<const Scalar> b_row_scale, std::span<const Scalar> b_col_scale,
    std::span<const Scalar> c_row_scale, std::span<const Scalar> c_col_scale,
    const TiledSymmetricSumOptions& options) {
  constexpr const char* kWho = "SymmetricProductSum";
  Status s = CheckTransposePair(kWho, a, at);
  if (!s.ok()) return s;
  const Index n = a.rows();
  s = CheckScale(kWho, "b_row_scale", b_row_scale, n);
  if (!s.ok()) return s;
  s = CheckScale(kWho, "b_col_scale", b_col_scale, n);
  if (!s.ok()) return s;
  s = CheckScale(kWho, "c_row_scale", c_row_scale, n);
  if (!s.ok()) return s;
  s = CheckScale(kWho, "c_col_scale", c_col_scale, n);
  if (!s.ok()) return s;
  CancelToken* cancel = options.cancel;

  auto [product_options, sum_options] = SplitProductSumThreshold(
      options.threshold, options.num_threads, cancel);

  const TilePlan plan = PlanRowTiles(a, at, options);
  const size_t tiles = plan.cuts.size() - 1;
  if (tiles <= 1) {
    // One tile: the in-memory kernels, with their own spans.
    product_options.metrics = options.metrics;
    sum_options.metrics = options.metrics;
    DGC_ASSIGN_OR_RETURN(CsrMatrix b_upper,
                         SpGemmAAtSymmetric(a, b_row_scale, b_col_scale,
                                            product_options, &at));
    DGC_ASSIGN_OR_RETURN(CsrMatrix c_upper,
                         SpGemmAAtSymmetric(at, c_row_scale, c_col_scale,
                                            product_options, &a));
    return SpGemmSymmetricSum(b_upper, c_upper, sum_options);
  }

  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(options.num_threads), std::max<Index>(n, 1)));
  StageSpan span(options.metrics, "tiled_spgemm");
  if (span.live()) {
    span.Metric("rows", n);
    span.Metric("threshold", options.threshold);
    // Tile geometry depends on the resolved thread count when derived from
    // a budget (accumulator bytes scale with workers), so it is perf-class.
    span.PerfMetric("tiles", static_cast<int64_t>(tiles));
    span.PerfMetric("tile_budget_bytes", plan.tile_budget_bytes);
    span.PerfMetric("workers", threads);
  }

  if (Cancelled(cancel)) return cancel->status();
  MemoryCharge accum_charge(cancel, AccumulatorBytes(threads, n));
  if (accum_charge.exceeded()) return cancel->status();

  Spool spool;
  s = spool.Create(options.spill_dir);
  if (!s.ok()) return s;

  std::vector<SpGemmWorkspace> workspaces(static_cast<size_t>(threads));
  std::vector<Offset> row_nnz(static_cast<size_t>(n), 0);
  std::vector<int64_t> tile_entries(tiles, 0);
  int64_t merge_dropped = 0;

  // Tile loop: both products for the block, the serial per-row merge +
  // prune, spill. The merge stays serial so a tile's transient set is the
  // kTileBytesPerEntry model.
  std::vector<Index> merged_cols;
  std::vector<Scalar> merged_vals;
  for (size_t t = 0; t < tiles; ++t) {
    const Index lo = plan.cuts[t];
    const Index hi = plan.cuts[t + 1];
    if (Cancelled(cancel)) return cancel->status();
    DGC_ASSIGN_OR_RETURN(
        CsrMatrix b_tile,
        ComputeUpperRows(a, at, b_row_scale, b_col_scale, lo, hi,
                         product_options, threads, workspaces,
                         "SymmetricProductSum(tile)"));
    // Keep the finished block on the ledger while the sibling product and
    // the merge still run.
    MemoryCharge b_live(cancel,
                        b_tile.nnz() * static_cast<int64_t>(sizeof(Index) +
                                                            sizeof(Scalar)));
    if (b_live.exceeded()) return cancel->status();
    DGC_ASSIGN_OR_RETURN(
        CsrMatrix c_tile,
        ComputeUpperRows(at, a, c_row_scale, c_col_scale, lo, hi,
                         product_options, threads, workspaces,
                         "SymmetricProductSum(tile)"));
    MemoryCharge c_live(cancel,
                        c_tile.nnz() * static_cast<int64_t>(sizeof(Index) +
                                                            sizeof(Scalar)));
    if (c_live.exceeded()) return cancel->status();

    merged_cols.clear();
    merged_vals.clear();
    for (Index r = lo; r < hi; ++r) {
      const size_t before = merged_cols.size();
      merge_dropped += MergeRowSum(b_tile, c_tile, r - lo, r, sum_options,
                                     merged_cols, merged_vals);
      row_nnz[static_cast<size_t>(r)] =
          static_cast<Offset>(merged_cols.size() - before);
    }
    MemoryCharge merge_live(
        cancel, static_cast<int64_t>(merged_cols.size()) *
                    static_cast<int64_t>(sizeof(Index) + sizeof(Scalar)));
    if (merge_live.exceeded()) return cancel->status();
    tile_entries[t] = static_cast<int64_t>(merged_cols.size());
    s = spool.Append(merged_cols.data(),
                     merged_cols.size() * sizeof(Index));
    if (!s.ok()) return s;
    s = spool.Append(merged_vals.data(),
                     merged_vals.size() * sizeof(Scalar));
    if (!s.ok()) return s;
  }
  span.Metric("spill_bytes", spool.bytes_written());

  // Stitch: prefix-sum the merged row counts, stream the spool back into
  // the final triangle, mirror. Sequential by design — one pass, in row
  // order, no seeks.
  if (Cancelled(cancel)) return cancel->status();
  std::vector<Offset> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (Index r = 0; r < n; ++r) {
    row_ptr[static_cast<size_t>(r) + 1] =
        row_ptr[static_cast<size_t>(r)] + row_nnz[static_cast<size_t>(r)];
  }
  const int64_t total = row_ptr.back();
  MemoryCharge merged_charge(
      cancel,
      total * static_cast<int64_t>(sizeof(Index) + sizeof(Scalar)) +
          (static_cast<int64_t>(n) + 1) *
              static_cast<int64_t>(sizeof(Offset)));
  if (merged_charge.exceeded()) return cancel->status();
  std::vector<Index> col_idx(static_cast<size_t>(total));
  std::vector<Scalar> values(static_cast<size_t>(total));
  s = spool.Rewind();
  if (!s.ok()) return s;
  int64_t offset = 0;
  for (size_t t = 0; t < tiles; ++t) {
    const int64_t cnt = tile_entries[t];
    s = spool.Read(col_idx.data() + offset,
                   static_cast<size_t>(cnt) * sizeof(Index));
    if (!s.ok()) return s;
    s = spool.Read(values.data() + offset,
                   static_cast<size_t>(cnt) * sizeof(Scalar));
    if (!s.ok()) return s;
    offset += cnt;
  }
  CsrMatrix merged = CsrMatrix::FromPartsUnchecked(
      n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
  merged.ValidateStructure("SymmetricProductSum(merge)");
  if (span.live()) {
    int64_t product_dropped = 0;
    for (const SpGemmWorkspace& w : workspaces) product_dropped += w.dropped;
    span.Metric("pruned_entries", product_dropped + merge_dropped);
  }
  if (Cancelled(cancel)) return cancel->status();
  // The mirrored full matrix roughly doubles the triangle's footprint.
  MemoryCharge mirror_charge(
      cancel, 2 * merged.nnz() *
                  static_cast<int64_t>(sizeof(Index) + sizeof(Scalar)));
  if (mirror_charge.exceeded()) return cancel->status();
  Result<CsrMatrix> full = MirrorUpperTriangle(merged, options.num_threads);
  if (full.ok()) span.Metric("output_nnz", full->nnz());
  return full;
}

}  // namespace dgc
