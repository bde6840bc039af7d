// The dgc_serve wire protocol (docs/SERVING.md): newline-delimited JSON,
// one request object in, one response object out, per line.
//
// Request schema `dgc.serve.request.v1`: a flat object selecting the
// pipeline configuration (symmetrization method + parameters, clustering
// algorithm + parameters, per-request ResourceBudget, cache mode). Fields
// are strictly validated — an unknown key or a wrong type is an error, not
// a warning — because a typo'd "thresold" that silently falls back to the
// default would corrupt a parameter sweep without any signal.
//
// Response schema `dgc.serve.response.v1`: a single-line envelope that
// embeds the PR 4 run report (`dgc.run_report.v1`, compact form) under the
// "report" key, so every serve response carries the same span tree /
// counters artifact the CLI tools write. Failures — malformed requests,
// missing graphs, tripped budgets — produce an envelope with ok=false and
// the Status code/message; the connection stays usable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/pipeline.h"
#include "dynamic/delta.h"
#include "graph/io.h"
#include "serve/json.h"
#include "util/result.h"

namespace dgc {

class MetricsRegistry;

inline constexpr std::string_view kServeRequestSchema = "dgc.serve.request.v1";
inline constexpr std::string_view kServeResponseSchema =
    "dgc.serve.response.v1";

/// How a request interacts with the symmetrization cache.
enum class CacheMode {
  kUse,      ///< lookup; on miss compute and insert (the default)
  kBypass,   ///< neither lookup nor insert (for A/B timing and tests)
  kRefresh,  ///< drop any existing entry, recompute, insert
};

std::string_view CacheModeName(CacheMode mode);

/// \brief Bounds enforced on every request before any work happens.
struct ServeLimits {
  /// JSON document limits (serve/json.h); json.max_bytes caps the request
  /// line itself.
  JsonLimits json;
  /// Graph-file limits (graph/io.h) applied when a request loads a graph.
  IoLimits io;
};

/// \brief One parsed `dgc.serve.request.v1` request.
struct ServeRequest {
  /// Client correlation id, echoed verbatim in the response ("" = absent).
  std::string id;
  /// True for {"op": "shutdown"}: the server finishes in-flight requests,
  /// acknowledges, and stops accepting.
  bool shutdown = false;

  /// True for {"op": "apply_delta"}: stream an edge batch into the
  /// incremental session addressed by the stage-1 fields, recompute only
  /// the affected rows of the symmetrization, and re-cluster warm-started
  /// from the previous flow (docs/DYNAMIC.md).
  bool apply_delta = false;
  /// The edge batch for op=apply_delta: "inserts" is an array of [u, v] or
  /// [u, v, w] arrays, "deletes" an array of [u, v] arrays.
  EdgeDeltaBatch delta;

  /// Path to the directed edge-list input (required unless shutdown).
  std::string graph_path;

  // --- stage 1: symmetrization (cache-key fields) ---
  SymmetrizationMethod method = SymmetrizationMethod::kDegreeDiscounted;
  double alpha = 0.5;  ///< out-degree discount exponent (degree-discounted)
  double beta = 0.5;   ///< in-degree discount exponent (degree-discounted)
  double threshold = 0.0;  ///< prune threshold (Section 3.5)
  bool self_loops = false;

  // --- stage 2: clustering (not in the cache key) ---
  ClusterAlgorithm algorithm = ClusterAlgorithm::kMlrMcl;
  double inflation = 2.0;  ///< MLR-MCL granularity knob
  Index clusters = 16;     ///< k for Metis / Graclus

  // --- per-request execution controls ---
  int threads = 1;
  int64_t deadline_ms = 0;         ///< 0 = no deadline
  int64_t max_memory_bytes = 0;    ///< 0 = no memory cap
  CacheMode cache = CacheMode::kUse;
  bool labels = false;          ///< include per-vertex labels in the response
  bool redact_timings = false;  ///< redact the embedded run report's timings
};

/// Parses and strictly validates one request line. Errors carry the
/// bounded-parser `request:1:<column>:` diagnostics for syntax and plain
/// field-level messages for semantic violations.
Result<ServeRequest> ParseServeRequest(std::string_view line,
                                       const JsonLimits& limits = {});

/// Builds PipelineOptions for `req` (metrics/cancel left null — the server
/// attaches per-request instances).
PipelineOptions PipelineOptionsForRequest(const ServeRequest& req);

/// Canonical cache key: the graph content hash plus every stage-1 field.
/// Doubles render via shortest-round-trip to_chars, so two requests hit the
/// same entry exactly when their stage-1 configurations are bit-equal.
std::string CacheKeyForRequest(const ServeRequest& req, uint64_t graph_hash);

/// \brief Everything a success envelope serializes.
struct ServeResponseData {
  std::string id;
  /// What the cache did: "hit", "miss", "bypass" or "refresh".
  std::string cache;
  Index num_clusters = 0;
  /// Per-vertex labels; null unless the request asked for them.
  const std::vector<Index>* labels = nullptr;
  /// Per-request registry whose run report embeds under "report".
  const MetricsRegistry* metrics = nullptr;
  bool redact_timings = false;
  /// Incremental counters for op=apply_delta responses; a negative
  /// rows_total (the default) omits both fields from the envelope.
  int64_t rows_recomputed = -1;
  int64_t rows_total = -1;
  /// Chained delta digest (16 hex chars) for op=apply_delta; empty omits.
  std::string delta_digest;
};

/// Single-line `dgc.serve.response.v1` success envelope (no trailing
/// newline; the transport appends it).
std::string BuildSuccessResponse(const ServeResponseData& data);

/// Single-line acknowledgement for {"op": "shutdown"} (ok=true,
/// shutdown=true, no pipeline fields).
std::string BuildShutdownResponse(const std::string& id);

/// Single-line failure envelope carrying the Status code and message. When
/// `metrics` is non-null (a request that failed mid-pipeline, e.g. a budget
/// abort) the partial run report embeds under "report" so the caller can
/// see where the run stopped.
std::string BuildErrorResponse(const std::string& id, const Status& status,
                               const MetricsRegistry* metrics = nullptr,
                               bool redact_timings = false);

}  // namespace dgc
