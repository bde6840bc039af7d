#include "bench/hw_probe.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "util/timer.h"

namespace dgc {

namespace {

int64_t SysconfBytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<int64_t>(v) : 0;
}

/// Best-of-passes STREAM triad over a working set that defeats every cache
/// level: bytes/s counted as 24n per pass (two streamed reads + one write).
double MeasureTriadGbps(int64_t llc_bytes) {
  const int64_t working_set =
      std::max<int64_t>(4 * std::max<int64_t>(llc_bytes, int64_t{8} << 20),
                        int64_t{64} << 20);
  const size_t n = static_cast<size_t>(working_set / (3 * 8));
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  // Reading one result back per pass keeps the stores observable.
  volatile double sink = 0.0;
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    WallTimer timer;
    for (size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    const double seconds = timer.ElapsedSeconds();
    sink = sink + a[n / 2];
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(n) * 24.0 / seconds / 1e9);
    }
  }
  return best;
}

/// Mul+add GFLOP/s over an L1-resident buffer (2 flops per element per
/// pass). Iteration count is calibrated so the timed run lasts ~50 ms.
double MeasureMulAddGflops() {
  const size_t n = 4096;  // 32 KiB: L1-resident on anything current
  std::vector<double> x(n, 1.0);
  int iters = 2000;
  double sink = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    std::fill(x.begin(), x.end(), 1.0);
    WallTimer timer;
    for (int it = 0; it < iters; ++it) {
      for (size_t i = 0; i < n; ++i) x[i] = x[i] * 1.0000001 + 1e-9;
    }
    sink += x[0] + x[n / 2];
    const double seconds = timer.ElapsedSeconds();
    if (seconds >= 0.05) {
      const double gflops = 2.0 * static_cast<double>(n) *
                            static_cast<double>(iters) / seconds / 1e9;
      // The sink must observe the computation or the whole probe folds.
      return sink == sink ? gflops : 0.0;
    }
    iters *= 4;
  }
  return 0.0;
}

void AppendField(std::string* out, const char* key, double value,
                 bool trailing_comma) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g%s", key, value,
                trailing_comma ? "," : "");
  out->append(buf);
}

void AppendField(std::string* out, const char* key, int64_t value,
                 bool trailing_comma) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\":%lld%s", key,
                static_cast<long long>(value), trailing_comma ? "," : "");
  out->append(buf);
}

}  // namespace

HwInfo ProbeHardware() {
  HwInfo info;
  info.logical_cpus = static_cast<int>(SysconfBytes(_SC_NPROCESSORS_ONLN));
#ifdef _SC_LEVEL1_DCACHE_SIZE
  info.l1d_bytes = SysconfBytes(_SC_LEVEL1_DCACHE_SIZE);
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  info.l2_bytes = SysconfBytes(_SC_LEVEL2_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL3_CACHE_SIZE
  info.l3_bytes = SysconfBytes(_SC_LEVEL3_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL1_DCACHE_LINESIZE
  if (const int64_t line = SysconfBytes(_SC_LEVEL1_DCACHE_LINESIZE); line > 0) {
    info.cacheline_bytes = line;
  }
#endif
  info.stream_triad_gbps = MeasureTriadGbps(info.l3_bytes);
  info.mulladd_gflops = MeasureMulAddGflops();
  return info;
}

std::string HwInfoJson(const HwInfo& info) {
  std::string out = "{";
  AppendField(&out, "logical_cpus", int64_t{info.logical_cpus}, true);
  AppendField(&out, "l1d_bytes", info.l1d_bytes, true);
  AppendField(&out, "l2_bytes", info.l2_bytes, true);
  AppendField(&out, "l3_bytes", info.l3_bytes, true);
  AppendField(&out, "cacheline_bytes", info.cacheline_bytes, true);
  AppendField(&out, "stream_triad_gbps", info.stream_triad_gbps, true);
  AppendField(&out, "mulladd_gflops", info.mulladd_gflops, false);
  out += "}";
  return out;
}

}  // namespace dgc
