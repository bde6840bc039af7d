#include "util/parallel_audit.h"

#if defined(DGC_PARALLEL_AUDIT)

#include <atomic>
#include <map>
#include <mutex>

#include "util/logging.h"

namespace dgc {
namespace audit {

struct SpanRec {
  const char* end;  // one past the last written byte
  uint64_t chunk;
  int worker;
  const char* label;
};

struct Region {
  std::mutex mutex;
  // start byte -> span; non-overlapping by invariant (same-chunk overlaps
  // are merged on insert, cross-chunk overlaps are fatal). Address keying
  // is the point here: the registry compares buffer ranges within one
  // process run and never feeds any output.
  std::map<const char*, SpanRec> spans;  // dgc-analyze: allow(nd-pointer-keyed) diagnostic registry keyed on audited addresses; order never reaches output
};

namespace {

std::atomic<int64_t> g_total_spans{0};
std::atomic<uint64_t> g_next_chunk{0};

// 0 = not inside any chunk (serial code): registrations are ignored.
thread_local uint64_t t_chunk = 0;
thread_local int t_worker = -1;
// The region whose loop or chunk this thread is in; null in serial code.
thread_local Region* t_region = nullptr;

}  // namespace

RegionScope::RegionScope() : region_(t_region) {
  if (region_ == nullptr) {
    owned_ = std::make_unique<Region>();
    region_ = owned_.get();
    t_region = region_;
  }
  // Else: a loop nested in a chunk — keep the enclosing region.
}

RegionScope::~RegionScope() {
  // An outermost region ended: later loops on this thread are ordered after
  // it, so their writes must not be compared against these.
  if (owned_ != nullptr) t_region = nullptr;
}

ChunkScope::ChunkScope(int worker, Region* region)
    : saved_chunk_(t_chunk), saved_worker_(t_worker),
      saved_region_(t_region) {
  if (t_chunk == 0) {
    // memory_order_relaxed: ids only need uniqueness, not ordering.
    t_chunk = 1 + g_next_chunk.fetch_add(1, std::memory_order_relaxed);
    t_worker = worker;
    t_region = region;
  }
  // Else: nested serialized loop — keep attributing to the enclosing chunk.
}

ChunkScope::~ChunkScope() {
  t_chunk = saved_chunk_;
  t_worker = saved_worker_;
  t_region = saved_region_;
}

void RegisterWriteBytes(const void* begin, size_t bytes, const char* label) {
  if (t_chunk == 0 || bytes == 0) return;
  const char* lo = static_cast<const char*>(begin);
  const char* hi = lo + bytes;

  Region& reg = *t_region;
  std::lock_guard<std::mutex> lock(reg.mutex);
  g_total_spans.fetch_add(1, std::memory_order_relaxed);

  auto fail = [&](const auto& it) {
    DGC_CHECK(false)
        << "parallel write-set overlap: chunk " << t_chunk << " (worker "
        << t_worker << ") writes [" << static_cast<const void*>(lo) << ", "
        << static_cast<const void*>(hi) << ") '" << label
        << "' overlapping chunk " << it->second.chunk << " (worker "
        << it->second.worker << ") ["
        << static_cast<const void*>(it->first) << ", "
        << static_cast<const void*>(it->second.end) << ") '"
        << it->second.label
        << "' — chunk-to-worker assignment is scheduling-dependent, so "
           "these writes can land in either order";
  };

  // A predecessor reaching past lo overlaps [lo, hi).
  auto it = reg.spans.lower_bound(lo);
  if (it != reg.spans.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > lo) {
      if (prev->second.chunk != t_chunk) fail(prev);
      lo = prev->first;  // same chunk: coalesce
      if (prev->second.end > hi) hi = prev->second.end;
      reg.spans.erase(prev);
    }
  }
  // Successors starting before hi overlap; absorb same-chunk ones.
  it = reg.spans.lower_bound(lo);
  while (it != reg.spans.end() && it->first < hi) {
    if (it->second.chunk != t_chunk) fail(it);
    if (it->second.end > hi) hi = it->second.end;
    it = reg.spans.erase(it);
  }
  reg.spans.emplace(lo, SpanRec{hi, t_chunk, t_worker, label});
}

int64_t TotalSpansRegistered() {
  return g_total_spans.load(std::memory_order_relaxed);
}

}  // namespace audit
}  // namespace dgc

#endif  // DGC_PARALLEL_AUDIT
