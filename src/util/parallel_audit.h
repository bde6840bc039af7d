// Debug write-set race auditor for the ParallelFor family.
//
// Compiled in when the build sets -DDGC_PARALLEL_AUDIT=1 (CMake option
// DGC_PARALLEL_AUDIT); otherwise every entry point collapses to a no-op and
// AuditSpan construction compiles away entirely.
//
// Model: the pool brackets every parallel loop in a *region* and every body
// invocation in a *chunk* (one dynamically claimed [lo, hi) slice — the unit
// whose worker assignment is scheduling-dependent). Instrumented kernels
// declare the byte ranges they write through AuditSpan. Two spans that
// overlap within one region but belong to different chunks are a
// determinism bug by construction: chunk-to-worker assignment varies run to
// run, so the overlapping writes can land in either order — even when both
// chunks happen to execute on the same worker this run. The auditor
// therefore CHECK-fails on *cross-chunk* overlap, which is strictly
// stronger than cross-worker overlap and — unlike TSan — fires
// deterministically, single-core containers included, and catches "benign"
// races that only reorder FP summation.
//
// Granularity caveat: writes landing in the same chunk are never compared
// (they are sequential on one worker), so a hazard between two loop indices
// is only visible when chunking separates them. Audit tests should pass
// grain = 1 to make every index its own chunk.
//
// Spans registered outside any parallel region (serial code) are ignored.
// Each outermost region — a loop entered from serial code — owns its span
// registry, and the pool hands that region to every chunk it runs for it,
// so spans are compared only within one region. Sequentially ordered loops
// on one thread are never compared against each other, and neither are
// loops that independent caller threads run at the same time (a request
// served on one thread while another is inside a loop): their buffers are
// private to each caller, and a genuine race between callers is
// ThreadSanitizer's job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace dgc {
namespace audit {

/// One outermost parallel region's span registry.
struct Region;

#if defined(DGC_PARALLEL_AUDIT)

inline constexpr bool kEnabled = true;

/// Pool-internal: brackets one parallel loop. An outermost loop opens a
/// fresh region and drops its spans on exit; a loop nested in a chunk
/// (serialized) keeps the enclosing region.
class RegionScope {
 public:
  RegionScope();
  ~RegionScope();
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

  /// The region this loop's chunks register into.
  Region* region() const { return region_; }

 private:
  std::unique_ptr<Region> owned_;  ///< set for an outermost loop only
  Region* region_;
};

/// Pool-internal: brackets one body invocation (one claimed chunk) of
/// `region` on the calling thread. Allocates a fresh chunk id unless the
/// thread is already inside a chunk (nested parallelism), in which case
/// writes keep attributing to the enclosing chunk.
class ChunkScope {
 public:
  ChunkScope(int worker, Region* region);
  ~ChunkScope();
  ChunkScope(const ChunkScope&) = delete;
  ChunkScope& operator=(const ChunkScope&) = delete;

 private:
  uint64_t saved_chunk_;
  int saved_worker_;
  Region* saved_region_;
};

/// Registers [begin, begin + bytes) as written by the current chunk;
/// CHECK-fails if the range overlaps a registration from another chunk of
/// the same region. No-op outside a parallel chunk or when bytes == 0.
void RegisterWriteBytes(const void* begin, size_t bytes, const char* label);

/// Cumulative number of spans recorded process-wide; calls made outside a
/// parallel chunk are not counted. Tests assert this grows across an
/// instrumented kernel call to prove the instrumentation is live.
int64_t TotalSpansRegistered();

#else  // !DGC_PARALLEL_AUDIT

inline constexpr bool kEnabled = false;

class RegionScope {
 public:
  Region* region() const { return nullptr; }
};
class ChunkScope {
 public:
  ChunkScope(int, Region*) {}
};
inline void RegisterWriteBytes(const void*, size_t, const char*) {}
inline int64_t TotalSpansRegistered() { return 0; }

#endif  // DGC_PARALLEL_AUDIT

/// RAII write-set declaration for parallel kernel bodies: constructing one
/// registers the element range as written by the current chunk. The object
/// itself is stateless — registrations live until the region ends — but the
/// RAII form keeps call sites one line and scoping obvious. Compiles to
/// nothing when the auditor is off.
class AuditSpan {
 public:
  template <class T>
  AuditSpan(const T* begin, size_t count, const char* label) {
    if (kEnabled) {
      RegisterWriteBytes(begin, count * sizeof(T), label);
    }
  }
};

}  // namespace audit
}  // namespace dgc
