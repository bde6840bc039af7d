// Hardware probe for the roofline mode of bench_kernels: cache geometry
// from sysconf plus *measured* machine ceilings — sustained memory
// bandwidth (STREAM triad) and mul+add throughput. The ceilings are
// measured with plain loops compiled under the same flags as the kernels
// (no FMA), so a kernel sitting on the roof is genuinely at the limit this
// code can reach, not at a theoretical peak it was never going to hit.
#pragma once

#include <cstdint>
#include <string>

namespace dgc {

struct HwInfo {
  /// Online logical CPUs (sysconf).
  int logical_cpus = 0;
  /// Cache sizes in bytes; 0 when the platform does not report one.
  int64_t l1d_bytes = 0;
  int64_t l2_bytes = 0;
  int64_t l3_bytes = 0;
  /// Data-cache line size in bytes (64 assumed when unreported).
  int64_t cacheline_bytes = 64;
  /// Sustained STREAM-triad bandwidth, GB/s (best of several passes over a
  /// working set several times the last-level cache).
  double stream_triad_gbps = 0.0;
  /// Mul+add throughput over an L1-resident buffer, GFLOP/s.
  double mulladd_gflops = 0.0;
};

/// Probes the machine. The bandwidth/compute measurements take a few
/// hundred milliseconds total.
HwInfo ProbeHardware();

/// The probe as a JSON object (the "hardware" field of dgc.roofline.v2).
std::string HwInfoJson(const HwInfo& info);

}  // namespace dgc
