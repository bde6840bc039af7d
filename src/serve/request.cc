#include "serve/request.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/json_writer.h"
#include "obs/report.h"
#include "util/logging.h"

namespace dgc {

std::string_view CacheModeName(CacheMode mode) {
  switch (mode) {
    case CacheMode::kUse:
      return "use";
    case CacheMode::kBypass:
      return "bypass";
    case CacheMode::kRefresh:
      return "refresh";
  }
  return "?";
}

namespace {

Status FieldError(std::string_view key, std::string_view what) {
  return Status::InvalidArgument("request field \"" + std::string(key) +
                                 "\": " + std::string(what));
}

Status ExpectString(std::string_view key, const JsonValue& v,
                    std::string* out) {
  if (!v.is_string()) return FieldError(key, "expected a string");
  *out = v.AsString();
  return Status::OK();
}

Status ExpectBool(std::string_view key, const JsonValue& v, bool* out) {
  if (!v.is_bool()) return FieldError(key, "expected a boolean");
  *out = v.AsBool();
  return Status::OK();
}

Status ExpectNumber(std::string_view key, const JsonValue& v, double* out) {
  if (!v.is_number()) return FieldError(key, "expected a number");
  *out = v.AsNumber();
  return Status::OK();
}

/// An integer-valued number within [lo, hi]; JSON has no integer type, so
/// 2.5 threads must be rejected here rather than truncated.
Status ExpectInt(std::string_view key, const JsonValue& v, int64_t lo,
                 int64_t hi, int64_t* out) {
  if (!v.is_number()) return FieldError(key, "expected a number");
  const double d = v.AsNumber();
  if (d != std::floor(d)) return FieldError(key, "expected an integer");
  if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
    return FieldError(key, "out of range [" + std::to_string(lo) + ", " +
                               std::to_string(hi) + "]");
  }
  *out = static_cast<int64_t>(d);
  return Status::OK();
}

Result<ClusterAlgorithm> ParseClusterAlgorithm(std::string_view name) {
  if (name == "mlr-mcl" || name == "mlrmcl" || name == "mcl") {
    return ClusterAlgorithm::kMlrMcl;
  }
  if (name == "metis") return ClusterAlgorithm::kMetis;
  if (name == "graclus") return ClusterAlgorithm::kGraclus;
  return Status::NotFound("unknown clustering algorithm \"" +
                          std::string(name) +
                          "\" (want mlr-mcl, metis or graclus)");
}

Result<CacheMode> ParseCacheMode(std::string_view name) {
  if (name == "use") return CacheMode::kUse;
  if (name == "bypass") return CacheMode::kBypass;
  if (name == "refresh") return CacheMode::kRefresh;
  return Status::NotFound("unknown cache mode \"" + std::string(name) +
                          "\" (want use, bypass or refresh)");
}

/// One wire edge: [u, v] (deletes) or [u, v] / [u, v, w] (inserts). The
/// endpoints must be non-negative integers; range-against-the-graph checks
/// happen later in EdgeDeltaBatch::Validate, which knows the vertex count.
Status ParseWireEdge(std::string_view key, const JsonValue& v, bool insert,
                     EdgeDeltaBatch* out) {
  if (!v.is_array()) {
    return FieldError(key, "expected an array of [u, v] arrays");
  }
  const auto& tuple = v.AsArray();
  const size_t max_arity = insert ? 3 : 2;
  if (tuple.size() < 2 || tuple.size() > max_arity) {
    return FieldError(key, insert ? "each insert must be [u, v] or [u, v, w]"
                                  : "each delete must be [u, v]");
  }
  int64_t endpoints[2] = {0, 0};
  for (size_t i = 0; i < 2; ++i) {
    DGC_RETURN_IF_ERROR(ExpectInt(key, tuple[i], 0,
                                  std::numeric_limits<Index>::max(),
                                  &endpoints[i]));
  }
  if (insert) {
    Edge e;
    e.src = static_cast<Index>(endpoints[0]);
    e.dst = static_cast<Index>(endpoints[1]);
    if (tuple.size() == 3) {
      DGC_RETURN_IF_ERROR(ExpectNumber(key, tuple[2], &e.weight));
    }
    out->inserts.push_back(e);
  } else {
    out->deletes.push_back(EdgeKey{static_cast<Index>(endpoints[0]),
                                   static_cast<Index>(endpoints[1])});
  }
  return Status::OK();
}

Status ParseWireEdges(std::string_view key, const JsonValue& v, bool insert,
                      EdgeDeltaBatch* out) {
  if (!v.is_array()) {
    return FieldError(key, "expected an array of [u, v] arrays");
  }
  for (const JsonValue& e : v.AsArray()) {
    DGC_RETURN_IF_ERROR(ParseWireEdge(key, e, insert, out));
  }
  return Status::OK();
}

/// Appends a shortest-round-trip double rendering (the cache-key format;
/// must distinguish every distinct bit pattern).
void AppendDouble(std::string* out, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  DGC_CHECK(r.ec == std::errc());
  out->append(buf, r.ptr);
}

/// Embeds the compact run report under a "report" key (caller emits the
/// preceding separator).
void EmbedReport(JsonWriter& w, const MetricsRegistry& metrics,
                 bool redact_timings) {
  RunReportOptions opts;
  opts.redact_timings = redact_timings;
  opts.compact = true;
  w.String("report");
  w.Raw(": ");
  w.Raw(RunReportToJson(metrics, opts));
}

}  // namespace

Result<ServeRequest> ParseServeRequest(std::string_view line,
                                       const JsonLimits& limits) {
  Result<JsonValue> doc = ParseJson(line, limits);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  ServeRequest req;
  std::string op = "cluster";
  for (const auto& [key, value] : doc->AsObject()) {
    if (key == "schema") {
      std::string schema;
      DGC_RETURN_IF_ERROR(ExpectString(key, value, &schema));
      if (schema != kServeRequestSchema) {
        return FieldError(key, "unsupported schema \"" + schema +
                                   "\" (this server speaks " +
                                   std::string(kServeRequestSchema) + ")");
      }
    } else if (key == "id") {
      DGC_RETURN_IF_ERROR(ExpectString(key, value, &req.id));
    } else if (key == "op") {
      DGC_RETURN_IF_ERROR(ExpectString(key, value, &op));
      if (op != "cluster" && op != "shutdown" && op != "apply_delta") {
        return FieldError(key, "unknown op \"" + op +
                                   "\" (want cluster, apply_delta or "
                                   "shutdown)");
      }
    } else if (key == "inserts") {
      DGC_RETURN_IF_ERROR(
          ParseWireEdges(key, value, /*insert=*/true, &req.delta));
    } else if (key == "deletes") {
      DGC_RETURN_IF_ERROR(
          ParseWireEdges(key, value, /*insert=*/false, &req.delta));
    } else if (key == "graph") {
      DGC_RETURN_IF_ERROR(ExpectString(key, value, &req.graph_path));
    } else if (key == "method") {
      std::string name;
      DGC_RETURN_IF_ERROR(ExpectString(key, value, &name));
      Result<SymmetrizationMethod> m = ParseSymmetrizationMethod(name);
      if (!m.ok()) return FieldError(key, m.status().message());
      req.method = *m;
    } else if (key == "alpha") {
      DGC_RETURN_IF_ERROR(ExpectNumber(key, value, &req.alpha));
    } else if (key == "beta") {
      DGC_RETURN_IF_ERROR(ExpectNumber(key, value, &req.beta));
    } else if (key == "threshold") {
      DGC_RETURN_IF_ERROR(ExpectNumber(key, value, &req.threshold));
      if (req.threshold < 0.0) return FieldError(key, "must be >= 0");
    } else if (key == "self_loops") {
      DGC_RETURN_IF_ERROR(ExpectBool(key, value, &req.self_loops));
    } else if (key == "algorithm") {
      std::string name;
      DGC_RETURN_IF_ERROR(ExpectString(key, value, &name));
      Result<ClusterAlgorithm> a = ParseClusterAlgorithm(name);
      if (!a.ok()) return FieldError(key, a.status().message());
      req.algorithm = *a;
    } else if (key == "inflation") {
      DGC_RETURN_IF_ERROR(ExpectNumber(key, value, &req.inflation));
      if (!(req.inflation > 1.0)) return FieldError(key, "must be > 1");
    } else if (key == "clusters") {
      int64_t k = 0;
      DGC_RETURN_IF_ERROR(
          ExpectInt(key, value, 1, std::numeric_limits<Index>::max(), &k));
      req.clusters = static_cast<Index>(k);
    } else if (key == "threads") {
      int64_t t = 0;
      DGC_RETURN_IF_ERROR(ExpectInt(key, value, 0, 1024, &t));
      req.threads = static_cast<int>(t);
    } else if (key == "deadline_ms") {
      DGC_RETURN_IF_ERROR(ExpectInt(key, value, 0,
                                    std::numeric_limits<int64_t>::max() / 2,
                                    &req.deadline_ms));
    } else if (key == "max_memory_bytes") {
      DGC_RETURN_IF_ERROR(ExpectInt(key, value, 0,
                                    std::numeric_limits<int64_t>::max() / 2,
                                    &req.max_memory_bytes));
    } else if (key == "cache") {
      std::string name;
      DGC_RETURN_IF_ERROR(ExpectString(key, value, &name));
      Result<CacheMode> mode = ParseCacheMode(name);
      if (!mode.ok()) return FieldError(key, mode.status().message());
      req.cache = *mode;
    } else if (key == "labels") {
      DGC_RETURN_IF_ERROR(ExpectBool(key, value, &req.labels));
    } else if (key == "redact_timings") {
      DGC_RETURN_IF_ERROR(ExpectBool(key, value, &req.redact_timings));
    } else {
      // Strict: a misspelled field must fail loudly, not silently run with
      // the default (a sweep with "thresold" would be garbage-in).
      return Status::InvalidArgument("unknown request field \"" + key + "\"");
    }
  }

  req.shutdown = (op == "shutdown");
  req.apply_delta = (op == "apply_delta");
  if (!req.apply_delta && !req.delta.empty()) {
    return Status::InvalidArgument(
        "request fields \"inserts\"/\"deletes\": only valid for "
        "op=apply_delta");
  }
  if (!req.shutdown && req.graph_path.empty()) {
    return Status::InvalidArgument("request field \"graph\": required for op=" +
                                   op);
  }
  return req;
}

PipelineOptions PipelineOptionsForRequest(const ServeRequest& req) {
  PipelineOptions options;
  options.method = req.method;
  options.symmetrization.out_discount = DiscountSpec::Power(req.alpha);
  options.symmetrization.in_discount = DiscountSpec::Power(req.beta);
  options.symmetrization.prune_threshold = req.threshold;
  options.symmetrization.add_self_loops = req.self_loops;
  options.algorithm = req.algorithm;
  options.mlr_mcl.rmcl.inflation = req.inflation;
  options.metis.k = req.clusters;
  options.graclus.k = req.clusters;
  options.num_threads = req.threads;
  options.budget.deadline_ms = req.deadline_ms;
  options.budget.max_memory_bytes = req.max_memory_bytes;
  return options;
}

std::string CacheKeyForRequest(const ServeRequest& req, uint64_t graph_hash) {
  std::string key;
  key.reserve(96);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(graph_hash));
  key += "g=";
  key += hex;
  key += ";m=";
  key += SymmetrizationMethodName(req.method);
  // Stage-2-irrelevant fields are deliberately absent; stage-1 fields that
  // some methods ignore (alpha/beta for A+Aᵀ) are deliberately present —
  // over-discrimination costs a rare duplicate entry, under-discrimination
  // would serve a wrong graph.
  key += ";a=";
  AppendDouble(&key, req.alpha);
  key += ";b=";
  AppendDouble(&key, req.beta);
  key += ";t=";
  AppendDouble(&key, req.threshold);
  key += ";sl=";
  key += req.self_loops ? '1' : '0';
  return key;
}

std::string BuildSuccessResponse(const ServeResponseData& data) {
  JsonWriter w(/*compact=*/true);
  w.Raw("{");
  w.String("schema");
  w.Raw(": ");
  w.String(kServeResponseSchema);
  w.Raw(", ");
  w.String("id");
  w.Raw(": ");
  w.String(data.id);
  w.Raw(", ");
  w.String("ok");
  w.Raw(": ");
  w.Bool(true);
  w.Raw(", ");
  w.String("status");
  w.Raw(": ");
  w.String("OK");
  w.Raw(", ");
  w.String("cache");
  w.Raw(": ");
  w.String(data.cache);
  w.Raw(", ");
  w.String("num_clusters");
  w.Raw(": ");
  w.Int(data.num_clusters);
  if (data.rows_total >= 0) {
    w.Raw(", ");
    w.String("rows_recomputed");
    w.Raw(": ");
    w.Int(data.rows_recomputed);
    w.Raw(", ");
    w.String("rows_total");
    w.Raw(": ");
    w.Int(data.rows_total);
  }
  if (!data.delta_digest.empty()) {
    w.Raw(", ");
    w.String("delta");
    w.Raw(": ");
    w.String(data.delta_digest);
  }
  if (data.labels != nullptr) {
    w.Raw(", ");
    w.String("labels");
    w.Raw(": [");
    for (size_t i = 0; i < data.labels->size(); ++i) {
      if (i > 0) w.Raw(", ");
      w.Int((*data.labels)[i]);
    }
    w.Raw("]");
  }
  if (data.metrics != nullptr) {
    w.Raw(", ");
    EmbedReport(w, *data.metrics, data.redact_timings);
  }
  w.Raw("}");
  return std::move(w).Take();
}

std::string BuildShutdownResponse(const std::string& id) {
  JsonWriter w(/*compact=*/true);
  w.Raw("{");
  w.String("schema");
  w.Raw(": ");
  w.String(kServeResponseSchema);
  w.Raw(", ");
  w.String("id");
  w.Raw(": ");
  w.String(id);
  w.Raw(", ");
  w.String("ok");
  w.Raw(": ");
  w.Bool(true);
  w.Raw(", ");
  w.String("status");
  w.Raw(": ");
  w.String("OK");
  w.Raw(", ");
  w.String("shutdown");
  w.Raw(": ");
  w.Bool(true);
  w.Raw("}");
  return std::move(w).Take();
}

std::string BuildErrorResponse(const std::string& id, const Status& status,
                               const MetricsRegistry* metrics,
                               bool redact_timings) {
  JsonWriter w(/*compact=*/true);
  w.Raw("{");
  w.String("schema");
  w.Raw(": ");
  w.String(kServeResponseSchema);
  w.Raw(", ");
  w.String("id");
  w.Raw(": ");
  w.String(id);
  w.Raw(", ");
  w.String("ok");
  w.Raw(": ");
  w.Bool(false);
  w.Raw(", ");
  w.String("status");
  w.Raw(": ");
  w.String(StatusCodeToString(status.code()));
  w.Raw(", ");
  w.String("error");
  w.Raw(": ");
  w.String(status.message());
  if (metrics != nullptr) {
    w.Raw(", ");
    EmbedReport(w, *metrics, redact_timings);
  }
  w.Raw("}");
  return std::move(w).Take();
}

}  // namespace dgc
