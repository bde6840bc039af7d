// LSD radix sort for the column-index arrays of the SpGEMM hot path.
//
// EmitRow sorts the columns of every output row that survive the
// threshold; on hub-heavy similarity rows they run to thousands of
// entries and std::sort's comparison cost would dominate the row. Column
// indices are non-negative int32 values bounded by the matrix dimension,
// so a byte-wise LSD counting sort does the same job in a small number of
// linear passes — and because the keys are distinct, any correct sort
// produces the same permutation, keeping output bit-identical to the
// std::sort path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dgc {

/// Below this length the O(n log n) comparison sort wins on constants.
inline constexpr size_t kRadixSortMinLength = 128;

/// Sorts data[0, n) of non-negative int32 keys ascending. `scratch` must
/// have room for n entries; `bound` is an exclusive upper bound on the keys
/// (the matrix dimension) used to skip all-zero high-byte passes. Produces
/// exactly the std::sort order (keys need not be distinct — the sort is
/// stable, and equal int32 keys are indistinguishable anyway).
inline void RadixSortIndices(int32_t* data, size_t n, int32_t* scratch,
                             int32_t bound) {
  if (n < kRadixSortMinLength) {
    std::sort(data, data + n);
    return;
  }
  int passes = 0;
  for (uint32_t limit = static_cast<uint32_t>(bound > 0 ? bound - 1 : 0);
       limit != 0; limit >>= 8) {
    ++passes;
  }
  int32_t* src = data;
  int32_t* dst = scratch;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = 8 * pass;
    size_t count[256] = {0};
    for (size_t i = 0; i < n; ++i) {
      ++count[(static_cast<uint32_t>(src[i]) >> shift) & 0xff];
    }
    size_t run = 0;
    for (size_t b = 0; b < 256; ++b) {
      const size_t c = count[b];
      count[b] = run;
      run += c;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(static_cast<uint32_t>(src[i]) >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data) {
    std::memcpy(data, src, n * sizeof(int32_t));
  }
}

}  // namespace dgc
