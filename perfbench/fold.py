"""Folds dgc run-report span trees into the benchmark's per-layer metrics.

A run report (schema dgc.run_report.v1) holds a nested span tree. Spans
come from two sources: the benchmark's own spans around each public call
(names starting with "bench.") and the library's span tree below them. Each
span name maps to one per-layer metric; a span's self time (its wall time
minus the wall time its child spans cover) is added to that metric. Spans
with no mapping pass their self time to the nearest mapped ancestor.
"""

from collections import defaultdict
import statistics

# Span name -> per-layer metric that receives the span's self time.
SPAN_METRIC = {
    "bench.graph.read": "graph.read_s",
    "bench.graph.write": "graph.write_s",
    "bench.core.threshold_select": "core.threshold_select_s",
    "bench.core.symmetrize": "core.symmetrize_s",
    "symmetrize": "core.symmetrize_s",
    "reorder": "core.symmetrize_s",
    "prune": "core.symmetrize_s",
    "transpose": "linalg.transpose_s",
    "spgemm": "linalg.spgemm_s",
    "spgemm.aat_symmetric": "linalg.spgemm_s",
    "spgemm.aat_symmetric.update": "linalg.spgemm_s",
    "all_pairs": "linalg.spgemm_s",
    "spgemm.symmetric_sum": "linalg.symmetric_sum_s",
    "tiled_spgemm": "linalg.tiled_s",
    "bench.cluster.mlr_mcl": "cluster.mlr_mcl_s",
    "mlr_mcl": "cluster.mlr_mcl_s",
    "coarsest_solve": "cluster.mlr_mcl_s",
    "rmcl": "cluster.mlr_mcl_s",
    "rmcl.warm_start": "cluster.mlr_mcl_s",
    "rmcl.iteration": "cluster.rmcl_iter_s",
    "coarsen": "cluster.coarsen_s",
    "coarsen.level": "cluster.coarsen_s",
    "refine_level": "cluster.refine_s",
    "project_flow": "cluster.project_flow_s",
    "delta": "dynamic.delta_s",
    "serve.load_graph": "serve.load_graph_s",
    "serve.request": "serve.request_s",
}

# The library's "cluster" span covers whichever stage-2 algorithm ran.
CLUSTER_ALGORITHM_METRIC = {
    "MLR-MCL": "cluster.mlr_mcl_s",
    "Metis": "cluster.metis_s",
    "Graclus": "cluster.graclus_s",
}

LAYERS = ("graph", "core", "linalg", "cluster", "dynamic", "serve")


def _metric_for(span):
    if span["name"] == "cluster":
        algorithm = span["metrics"].get("algorithm", "")
        return CLUSTER_ALGORITHM_METRIC.get(algorithm)
    return SPAN_METRIC.get(span["name"])


def fold_report(report):
    """Returns per-metric self seconds and span counts for one report."""
    acc = defaultdict(float)

    def walk(spans, inherited):
        for span in spans:
            metric = _metric_for(span) or inherited
            children = span["children"]
            self_s = span["wall_seconds"] - sum(c["wall_seconds"] for c in children)
            if metric is not None:
                acc[metric] += max(0.0, self_s)
            m, p = span["metrics"], span["perf"]
            if span["name"] == "rmcl.iteration":
                acc["cluster.rmcl_iterations"] += 1
                acc["cluster.rmcl_expanded_nnz"] += m.get("expanded_nnz", 0)
                acc["_rmcl_kept_nnz"] += m.get("nnz", 0)
            elif span["name"] == "tiled_spgemm":
                acc["linalg.tiles"] += p.get("tiles", 0)
                acc["linalg.spill_bytes"] += m.get("spill_bytes", 0)
            elif span["name"] == "delta":
                acc["_rows_recomputed"] += m.get("rows_recomputed", 0)
                acc["_rows_total"] += m.get("rows_total", 0)
            elif span["name"] == "bench.cluster.mlr_mcl":
                acc["_mlr_mcl_inclusive_s"] += span["wall_seconds"]
            walk(children, metric)

    walk(report["spans"], None)
    acc["_root_s"] = sum(s["wall_seconds"] for s in report["spans"])
    return acc


def job_spans(report, prefix):
    """Inclusive wall of bench.cluster.mlr_mcl under jobs named prefix*."""
    total = 0.0
    for job in report["spans"]:
        if job["name"] == "bench.job" and job["metrics"]["job"].startswith(prefix):
            for child in job["children"]:
                if child["name"] == "bench.cluster.mlr_mcl":
                    total += child["wall_seconds"]
    return total


def sum_folds(folds):
    total = defaultdict(float)
    for f in folds:
        for k, v in f.items():
            total[k] += v
    return total


def layer_shares(acc):
    """Share of the traced root time spent (self) in each layer."""
    root = acc.get("_root_s", 0.0)
    shares = {}
    for layer in LAYERS:
        own = sum(v for k, v in acc.items()
                  if k.startswith(layer + ".") and k.endswith("_s"))
        shares["share." + layer] = own / root if root > 0 else 0.0
    return shares


def median(values):
    return statistics.median(values) if values else 0.0
