// Pipeline observability: a process-local metrics registry.
//
// The registry is the single sink for everything a run wants to report —
// monotonic counters, last-write-wins gauges, fixed-bucket histograms, and
// the hierarchical stage-span tree built by obs/span.h. Every options
// struct on the pipeline path carries an optional `MetricsRegistry*`;
// instrumentation is skipped entirely (no locks, no allocation, no virtual
// dispatch) when the pointer is null, so the paper's timing semantics are
// unchanged for callers that never ask for a report.
//
// Determinism contract: counters and histograms merge by addition of
// per-worker shards (the AllPairsStats pattern — integer sums are
// associative and commutative, so totals are independent of which worker
// processed which row). Every deterministic quantity recorded by the
// library is bit-identical across thread counts; thread-count-dependent
// quantities (times, rows-per-worker) are segregated into the span timing /
// perf fields that obs/report.h can redact. See docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/status.h"

namespace dgc {

/// \brief Fixed-bucket histogram: counts of observations per bucket, plus
/// the total count and sum.
///
/// Buckets are defined by sorted upper bounds; an observation lands in the
/// first bucket whose upper bound is >= the value, or in the implicit
/// overflow bucket when it exceeds every bound (bucket_counts() therefore
/// has upper_bounds().size() + 1 entries). A default-constructed histogram
/// has a single (overflow) bucket.
///
/// Histograms are value types usable as per-worker shards: workers observe
/// locally, then the shards Merge() into the registry copy. Merging adds
/// bucket counts, counts and sums, so any merge order — and any grouping,
/// i.e. (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) — produces the same result.
class Histogram {
 public:
  Histogram() : counts_(1, 0) {}
  /// `upper_bounds` must be strictly increasing (checked, fatal on misuse).
  explicit Histogram(std::vector<double> upper_bounds);

  /// `count` buckets with bounds start, start*factor, start*factor², ...
  /// (plus the implicit overflow bucket). Natural for nnz / cluster-size
  /// style quantities spanning orders of magnitude.
  static Histogram Exponential(double start, double factor, int count);

  /// Records one observation.
  void Observe(double value);

  /// Adds `other`'s buckets, count and sum into this histogram.
  /// InvalidArgument when the bucket bounds differ.
  Status Merge(const Histogram& other);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket counts; last entry is the overflow bucket.
  const std::vector<int64_t>& bucket_counts() const { return counts_; }
  int64_t total_count() const { return total_count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> upper_bounds_;
  std::vector<int64_t> counts_;
  int64_t total_count_ = 0;
  double sum_ = 0.0;
};

/// A value attached to a stage span: integer, floating-point, or a short
/// annotation string (e.g. method="Bibliometric").
using SpanValue = std::variant<int64_t, double, std::string>;

/// One node of the span tree. Built by StageSpan (obs/span.h); consumed by
/// the RunReport serializer (obs/report.h).
struct SpanNode {
  std::string name;
  int parent = -1;  ///< index into the arena; -1 for roots
  std::vector<int> children;
  /// Wall / process-CPU seconds between open and close (0 while open).
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  /// Deterministic metrics: bit-identical across thread counts.
  std::vector<std::pair<std::string, SpanValue>> metrics;
  /// Perf metrics: legitimately thread-count- or machine-dependent values
  /// (worker counts, rows per worker). Redacted alongside times when a
  /// byte-comparable report is requested.
  std::vector<std::pair<std::string, SpanValue>> perf;
};

/// \brief Thread-safe sink for counters, gauges, histograms and stage
/// spans.
///
/// Counters/gauges/histograms may be recorded from any thread (a mutex
/// guards the maps — instrumentation touches the registry per *stage*, not
/// per row, so the lock is far off any hot loop). The span tree tracks one
/// open-span stack, matching the library's structure where stages are
/// opened and closed by the orchestrating thread; see docs/OBSERVABILITY.md
/// for the discipline.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the named counter (created at 0 on first use).
  void AddCounter(std::string_view name, int64_t delta);

  /// Sets the named gauge (last write wins).
  void SetGauge(std::string_view name, double value);

  /// Merges a histogram shard into the named histogram. The first merge
  /// defines the bucket bounds; later merges with different bounds are
  /// fatal in checked builds and dropped otherwise.
  void MergeHistogram(std::string_view name, const Histogram& shard);

  /// Snapshots (copies, safe to use while other threads keep recording).
  std::map<std::string, int64_t> Counters() const;
  std::map<std::string, double> Gauges() const;
  std::map<std::string, Histogram> Histograms() const;
  /// The span arena in creation order; children/parent link by index.
  std::vector<SpanNode> Spans() const;

  /// Value of one counter (0 when absent) — convenience for tests.
  int64_t CounterValue(std::string_view name) const;

  // --- span arena, used by StageSpan and the serializer ------------------

  /// Opens a span as a child of the innermost open span; returns its index.
  int OpenSpan(std::string_view name);
  /// Closes span `node` (must be the innermost open span) with its final
  /// timings.
  void CloseSpan(int node, double wall_seconds, double cpu_seconds);
  /// Attaches a key/value to span `node` (perf=true for the redactable
  /// class). Overwrites an existing key.
  void SpanMetric(int node, std::string_view key, SpanValue value, bool perf);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, int64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::vector<SpanNode> spans_;
  std::vector<int> open_stack_;
};

}  // namespace dgc
