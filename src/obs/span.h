// RAII stage spans: hierarchical wall + CPU scoped timers over a
// MetricsRegistry.
//
//   StageSpan span(options.metrics, "symmetrize");   // null-safe
//   ...
//   span.Metric("output_nnz", u.nnz());              // deterministic
//   span.PerfMetric("workers", threads);             // thread-dependent
//
// A StageSpan constructed with a null registry is completely inert: the
// constructor stores the null pointer and every method is a branch on it —
// no clocks are read, nothing locks, nothing allocates. Spans nest by
// construction order (the registry tracks the innermost open span), forming
// the tree that obs/report.h serializes.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "obs/metrics.h"
#include "util/timer.h"

namespace dgc {

/// \brief Scoped stage timer; see the file comment for usage.
///
/// Spans must be opened and closed in LIFO order on the orchestrating
/// thread (checked fatally in the registry). Metrics may be attached any
/// time between construction and destruction.
class StageSpan {
 public:
  /// Opens a span named `name` under the innermost open span of
  /// `registry`. A null registry yields an inert span.
  StageSpan(MetricsRegistry* registry, std::string_view name)
      : registry_(registry) {
    if (registry_ == nullptr) return;
    node_ = registry_->OpenSpan(name);
    wall_.Restart();
    cpu_.Restart();
  }

  ~StageSpan() {
    if (registry_ == nullptr) return;
    registry_->CloseSpan(node_, wall_.ElapsedSeconds(),
                         cpu_.ElapsedSeconds());
  }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  /// True when attached to a registry. Use to guard instrumentation whose
  /// mere computation is non-trivial (e.g. an O(nnz) flops estimate).
  bool live() const { return registry_ != nullptr; }

  /// Attaches a deterministic metric (bit-identical across thread counts).
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  void Metric(std::string_view key, T value) {
    if (registry_ == nullptr) return;
    registry_->SpanMetric(node_, key, static_cast<int64_t>(value),
                          /*perf=*/false);
  }
  void Metric(std::string_view key, double value) {
    if (registry_ == nullptr) return;
    registry_->SpanMetric(node_, key, value, /*perf=*/false);
  }
  /// String annotation (method names, algorithm names, ...).
  void Metric(std::string_view key, std::string_view value) {
    if (registry_ == nullptr) return;
    registry_->SpanMetric(node_, key, std::string(value), /*perf=*/false);
  }

  /// Attaches a perf metric: a value that legitimately depends on the
  /// thread count or machine (worker counts, rows per worker). Redacted
  /// together with times when a byte-comparable report is requested.
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  void PerfMetric(std::string_view key, T value) {
    if (registry_ == nullptr) return;
    registry_->SpanMetric(node_, key, static_cast<int64_t>(value),
                          /*perf=*/true);
  }
  void PerfMetric(std::string_view key, double value) {
    if (registry_ == nullptr) return;
    registry_->SpanMetric(node_, key, value, /*perf=*/true);
  }

 private:
  MetricsRegistry* registry_;
  int node_ = -1;
  WallTimer wall_;
  ProcessCpuTimer cpu_;
};

}  // namespace dgc
