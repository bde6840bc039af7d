// The symmetric product-sum driver behind both similarity symmetrizations
// (docs/OUT_OF_CORE.md): U = mirror(prune(B + C)) over row-block tiles.
// A one-tile plan runs the in-memory kernels (SpGemmAAtSymmetric twice,
// then SpGemmSymmetricSum). With several tiles, each block runs through the
// same row-range pass (spgemm_impl.h) and row merge (MergeRowSum), finished
// upper-triangle blocks are spilled to a temp-file spool, and one final
// sequential pass stitches the spool into the mirrored output CSR.
//
// Because every row is a pure function of (A, Aᵀ, scales, row, options)
// and tiles concatenate in row order, the result is bit-identical at any
// thread count and any tile size — only the peak memory differs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/spgemm.h"
#include "util/budget.h"
#include "util/result.h"

namespace dgc {

class MetricsRegistry;

/// Options for the symmetric product-sum driver.
struct TiledSymmetricSumOptions {
  /// Prune threshold t of the Section 3.5 split: each product drops
  /// entries below t / 2, the merged sum B + C drops entries below t.
  /// Diagonal entries are dropped from both (similarity graphs carry no
  /// self-loops).
  Scalar threshold = 0.0;

  /// Threads for the row-parallel tile passes (SpGemmOptions semantics:
  /// 1 = serial, 0 = one per core). Bit-identical for every setting.
  int num_threads = 1;

  /// Fixed tile height in rows; 0 (default) derives the height from
  /// `max_memory_bytes`. Tests and benches pin this to force tile counts.
  Index tile_rows = 0;
  /// Byte budget the row partition is derived from when tile_rows == 0
  /// (typically ResourceBudget::max_memory_bytes). 0 falls back to a
  /// fixed default tile budget.
  int64_t max_memory_bytes = 0;
  /// Directory for the spool file; empty uses the system temp directory.
  std::string spill_dir;

  /// Optional observability sink: a one-tile plan records the in-memory
  /// kernels' spans; several tiles record one "tiled_spgemm" stage span
  /// with tile-count and spill-bytes metrics.
  MetricsRegistry* metrics = nullptr;
  /// Optional cooperative cancellation / memory ledger (util/budget.h).
  CancelToken* cancel = nullptr;
};

/// Deterministic row partition for the tiled driver: `cuts` holds the tile
/// boundaries (cuts.front() == 0, cuts.back() == rows, strictly
/// increasing). The partition is a pure function of the inputs and
/// options — it never depends on scheduling.
struct TilePlan {
  std::vector<Index> cuts;
  /// The per-tile transient-byte target the cuts were derived from
  /// (0 when `tile_rows` pinned the partition).
  int64_t tile_budget_bytes = 0;
};

/// \brief Per-row upper bounds on the entries of the upper-triangle
/// product over (a, at): est[r] = min(rows - r, Σ_{k ∈ a.row(r)}
/// nnz(at.row(k))). O(nnz(a)); saturates instead of overflowing.
std::vector<int64_t> EstimateUpperRowEntries(const CsrMatrix& a,
                                             const CsrMatrix& at);

/// \brief Plans the row partition for SymmetricProductSum: fixed
/// `tile_rows` cuts when pinned, otherwise greedy accumulation of the
/// per-row cost model (docs/OUT_OF_CORE.md) against the budget-derived
/// per-tile byte target. A single row always fits (a hub row larger than
/// the whole budget gets its own tile; the runtime ledger still governs).
TilePlan PlanRowTiles(const CsrMatrix& a, const CsrMatrix& at,
                      const TiledSymmetricSumOptions& options);

/// \brief Conservative estimate of the memory-ledger peak the *in-memory*
/// fused path (two SpGemmAAtSymmetric calls + SpGemmSymmetricSum) would
/// charge for this input: accumulators plus the assembly bytes of the
/// larger product, both computed from the EstimateUpperRowEntries upper
/// bounds. Used by the auto-enable heuristic: an estimate over budget
/// means the in-memory path *could* trip kResourceExhausted, so the
/// caller degrades to tiling (which never changes the result, only the
/// footprint).
int64_t EstimateInMemorySymmetricSumBytes(const CsrMatrix& a,
                                          const CsrMatrix& at,
                                          int num_threads);

/// \brief The fused similarity core:
///
///   mirror(prune(B + C)),  B = upper(D_br A D_bc² Aᵀ D_br) over (a, at),
///                          C = upper(D_cr Aᵀ D_cc² A D_cr) over (at, a).
///
/// Empty scale spans skip that scaling (the bibliometric case). `a` must be
/// square and `at` its transpose. PlanRowTiles decides the geometry:
///  * one tile: SpGemmSymmetricSum(SpGemmAAtSymmetric(a, ..., &at),
///    SpGemmAAtSymmetric(at, ..., &a)) — no spool file, no "tiled_spgemm"
///    span;
///  * several tiles: each row block computes both products, merges and
///    prunes the block and spills it; the final pass stitches the spool
///    into the merged triangle and mirrors it.
/// The output is bit-identical at any thread count and tile size.
Result<CsrMatrix> SymmetricProductSum(
    const CsrMatrix& a, const CsrMatrix& at,
    std::span<const Scalar> b_row_scale, std::span<const Scalar> b_col_scale,
    std::span<const Scalar> c_row_scale, std::span<const Scalar> c_col_scale,
    const TiledSymmetricSumOptions& options);

}  // namespace dgc
