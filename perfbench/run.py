#!/usr/bin/env python3
"""dgc end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

Run from the root of a dgc checkout. It builds the libraries, dgc_serve and
perfbench_driver from source into a directory of $CARGO_TARGET_DIR (default
.bench_build) named after the checkout, so checkouts sharing one target
directory never measure each other's build. --seconds defaults to
BENCHMARK.json's run_seconds. It makes the workload's inputs from the seed, sets up, measures for the given
seconds, checks every output, and prints a table and then, as the last line
of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is non-zero when any output check fails.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fold  # noqa: E402
import serve_load  # noqa: E402

WORKLOADS = ("flow", "similarity", "out-of-core", "serve")
# Pipeline threads of each batch workload's timed lists. flow runs at one:
# R-MCL's many short parallel loops each wait for the slowest of 4 threads,
# and on a few shared cores 4-thread flow lists measured the host's
# scheduler (wall spread up to 0.4 across seeds). The similarity workloads
# stay at 4: their spreads held at 4 threads, and at 1 thread out-of-core's
# peak RSS spread across seeds rose to 0.135, past its bound. The traced
# run adds one list at the other count, 4 or 1, for util.speedup_1t.
THREADS = {"flow": 1, "similarity": 4, "out-of-core": 4}
CHECK_THREADS = 4  # verification runs outside the timed region
SETUP_ROUNDS = 5
DEFAULT_SEED = 1
# dgc_serve links every library the driver needs but eval and gen. Each
# named target costs make a dependency scan (~0.25 s even with nothing to
# do), so only these three are named.
LIB_TARGETS = ["dgc_serve_tool", "dgc_eval", "dgc_gen"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


# ------------------------------------------------------------------ build

def build(root, out):
    """Builds dgc (the checkout's own CMake) and perfbench_driver.

    The build trees live under out/<hash of the checkout and of this
    directory>: a CMake cache is reused only by the sources it was
    configured from.
    """
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} is not a dgc checkout (no CMakeLists.txt and src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    key = hashlib.sha256(f"{root.resolve()}\n{HERE}".encode()).hexdigest()[:16]
    dgc_dir, bench_dir = out / key / "dgc", out / key / "perfbench"

    def run(cmd):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))

    if not (dgc_dir / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(root), "-B", str(dgc_dir),
             "-DCMAKE_BUILD_TYPE=Release", "-DDGC_BUILD_TESTS=OFF",
             "-DDGC_BUILD_BENCHMARKS=OFF", "-DDGC_BUILD_EXAMPLES=OFF"])
    run(["cmake", "--build", str(dgc_dir), "-j", jobs, "--target", *LIB_TARGETS])
    if not (bench_dir / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(HERE), "-B", str(bench_dir),
             "-DCMAKE_BUILD_TYPE=Release", f"-DDGC_SOURCE_DIR={root}",
             f"-DDGC_BUILD_DIR={dgc_dir}"])
    run(["cmake", "--build", str(bench_dir), "-j", jobs])
    return bench_dir / "perfbench_driver", dgc_dir / "tools" / "dgc_serve"


# ------------------------------------------------------------------ helpers

def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric(value, unit, samples):
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def read_manifest(run_dir):
    out = {}
    for line in (run_dir / "manifest.txt").read_text().splitlines():
        key, value = line.split()
        out[key] = float(value)
    return out


def driver_call(driver, *args):
    r = subprocess.run([str(driver), *args], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail(f"perfbench_driver {args[0]} failed: {r.stderr.strip()}")


def prepare(driver, workload, seed, scale, run_dir):
    """One timed set-up of the inputs; returns seconds."""
    t0 = time.perf_counter()
    driver_call(driver, "prepare", f"--workload={workload}", f"--seed={seed}",
                f"--scale={scale}", f"--dir={run_dir}")
    return time.perf_counter() - t0


def load_pins(path, workload, seed, scale):
    pins = json.loads(Path(path).read_text())
    return pins.get(f"{workload}/seed{seed}/scale{scale:g}", {})


class Checks:
    """Failed output checks, and the output hashes a run observed."""

    def __init__(self):
        self.problems = []
        self.observed = {}  # output name -> content hash, for --pin

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok


# ------------------------------------------------------------------ batch

def run_batch(args, driver, run_dir, pins):
    setup = [prepare(driver, args.workload, args.seed, args.scale, run_dir)
             for _ in range(SETUP_ROUNDS)]
    result_path = run_dir / "result.json"
    threads = THREADS[args.workload]
    driver_call(driver, "batch", f"--workload={args.workload}",
                f"--dir={run_dir}", f"--seconds={args.seconds}",
                f"--threads={threads}", f"--trace={args.trace}",
                f"--scaling-threads={4 if threads == 1 else 1}",
                f"--out={result_path}")
    result = json.loads(result_path.read_text())
    if args.corrupt == "label":
        corrupt_output(run_dir, args.workload)
    verify_path = run_dir / "verify.json"
    driver_call(driver, "verify", f"--workload={args.workload}",
                f"--dir={run_dir}", f"--threads={CHECK_THREADS}",
                f"--out={verify_path}")
    verify = json.loads(verify_path.read_text())

    checks = Checks()
    jobs = verify["jobs"]
    phases = [result[p] for p in ("untraced", "traced", "scaling")
              if p in result]
    lists = sum(len(p["list_wall_s"]) for p in phases)
    attempted = lists * len(jobs)
    failed = 0
    for job in jobs:
        name = job["job"]
        checks.observed[name] = job["hash"]
        ok = checks.expect(job["valid"], f"{name}: output invalid")
        ok &= checks.expect(job["hash"] == job["first_hash"],
                            f"{name}: repeated runs differ")
        if "cross_hash" in job:
            ok &= checks.expect(job["hash"] == job["cross_hash"],
                                f"{name}: in-memory and tiled results differ")
        if name in pins:
            ok &= checks.expect(job["hash"] == pins[name],
                                f"{name}: hash {job['hash']} != pinned {pins[name]}")
        if not ok:
            failed += lists
    if args.trace:
        return batch_layers(result, args.workload), attempted, failed, checks

    avg_f = statistics.mean(j["avg_f"] for j in jobs if j["avg_f"] >= 0)
    un = result["untraced"]
    walls, cpus, job_walls = un["list_wall_s"], un["list_cpu_s"], un["job_wall_s"]
    # A batch request is one job of the list. Latency quantiles are over the
    # job kinds' median walls: a quantile of the pooled walls falls between
    # two kinds, on the slowest run of one and the fastest of the next.
    kinds = len(jobs)
    kind_walls = [statistics.median(job_walls[k::kinds]) for k in range(kinds)]
    metrics = {
        "setup_s": metric(statistics.median(setup) + result["warmup_s"], "s",
                          len(setup)),
        "wall_s": metric(statistics.median(walls), "s", len(walls)),
        "cpu_s": metric(statistics.median(cpus), "s", len(cpus)),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB", 1),
        "latency_p50_s": metric(quantile(kind_walls, 0.5), "s", len(job_walls)),
        "latency_p90_s": metric(quantile(kind_walls, 0.9), "s", len(job_walls)),
        "throughput_rps": metric(kinds / statistics.median(walls), "req/s",
                                 len(walls)),
        "ok_ratio": metric((attempted - failed) / attempted, "1", attempted),
        "avg_f": metric(avg_f, "1", sum(j["avg_f"] >= 0 for j in jobs)),
    }
    return metrics, attempted, failed, checks


def batch_layers(result, workload):
    """Per-layer metrics from the traced phase (per job list, medians)."""
    traced = result["traced"]
    reports = traced["reports"]
    folds = [fold.fold_report(r) for r in reports]
    n = len(folds)
    total = fold.sum_folds(folds)
    per_list = {k: v / n for k, v in total.items()}
    out = {}
    for name in PER_LAYER_TIMES:
        out[name] = metric(fold.median([f.get(name, 0.0) for f in folds]), "s", n)
    expanded = per_list.get("cluster.rmcl_expanded_nnz", 0.0)
    out["cluster.rmcl_iterations"] = metric(
        per_list.get("cluster.rmcl_iterations", 0.0), "count", n)
    out["cluster.rmcl_expanded_nnz"] = metric(expanded, "nnz.computed", n)
    out["cluster.rmcl_kept_ratio"] = metric(
        per_list.get("_rmcl_kept_nnz", 0.0) / expanded if expanded else 0.0,
        "1", n)
    if workload == "flow":
        dd = sum(fold.job_spans(r, "dd") for r in reports)
        aat = sum(fold.job_spans(r, "aat") for r in reports)
        ratio = dd / aat if aat else 0.0
    else:
        ratio = 0.0
    out["cluster.dd_over_aat_s"] = metric(ratio, "1", n)
    out["linalg.tiles"] = metric(per_list.get("linalg.tiles", 0.0), "count", n)
    out["linalg.spill_bytes"] = metric(per_list.get("linalg.spill_bytes", 0.0),
                                       "B", n)
    out["linalg.spgemm_flops"] = metric(result.get("spgemm_flops_per_list", 0.0),
                                        "flop.computed", 1)
    for name, value in fold.layer_shares(total).items():
        out[name] = metric(value, "1", n)
    un = result["untraced"]
    un_wall = statistics.median(un["list_wall_s"])
    out["util.cpu_per_wall"] = metric(
        statistics.median(c / w for c, w in zip(un["list_cpu_s"],
                                                 un["list_wall_s"])),
        "1", len(un["list_wall_s"]))
    other_wall = result["scaling"]["list_wall_s"][0]  # at 4 threads or 1
    out["util.speedup_1t"] = metric(
        un_wall / other_wall if THREADS[workload] == 1 else other_wall / un_wall,
        "1", 1)
    out["obs.trace_overhead"] = metric(
        statistics.median(traced["list_wall_s"]) / un_wall, "1", n)
    for name in SERVE_ONLY:
        out[name] = metric(0.0, SERVE_ONLY[name], 0)
    return out


def corrupt_output(run_dir, workload):
    """Self-test hook: corrupts one output before verify.

    flow: one label changes; batch graphs: the bibliometric output is
    replaced by the degree-discounted one.
    """
    out = run_dir / "out"
    if workload == "flow":
        path = sorted(out.glob("*.labels"))[0]
        lines = path.read_text().splitlines()
        lines[0] = str(int(lines[0]) + 1)
        path.write_text("\n".join(lines) + "\n")
    else:
        shutil.copy(out / "dd.last.csr", out / "biblio.last.csr")


# ------------------------------------------------------------------ serve

def run_serve(args, driver, serve_bin, run_dir, pins):
    setup = []
    daemon = client = None
    try:
        for i in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            prepare(driver, "serve", args.seed, args.scale, run_dir)
            workload = serve_load.Workload(str(run_dir), read_manifest(run_dir),
                                           args.seed)
            daemon = serve_load.Daemon(str(serve_bin))
            client = serve_load.Client(daemon, workload)
            prime_records = client.prime()
            setup.append(time.perf_counter() - t0)
            if i + 1 < SETUP_ROUNDS:
                client.close()
                client = None
                daemon.stop()
                daemon = None
        if args.trace:
            untraced = client.run(args.seconds / 2)
            traced = client.run(args.seconds / 2)
            single = client.run(0, connections=1)  # one window of requests
            phases = [untraced, traced, single]
        else:
            untraced = client.run(args.seconds,
                                  min_requests=serve_load.RSS_REQUESTS)
            phases = [untraced]
    finally:
        if client is not None:
            client.close()
        if daemon is not None:
            daemon.stop()

    records = [r for p in phases for r in p["records"]]
    checks = Checks()
    failed_ids, avg_f = check_serve(driver, run_dir, workload, prime_records,
                                    records, pins, checks, args)
    attempted = len(records)
    failed = len(failed_ids)

    if args.trace:
        return serve_layers(untraced, traced, single), attempted, failed, checks
    lat = [r["latency_s"] for r in untraced["records"]]
    ok = sum(1 for r in untraced["records"] if r["response"].get("ok"))
    n = len(untraced["records"])
    metrics = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "wall_s": metric(untraced["window_wall_s"], "s", n),
        "cpu_s": metric(untraced["window_cpu_s"], "s", n),
        "peak_rss_mb": metric(untraced["peak_rss_mb"], "MB", 1),
        "latency_p50_s": metric(quantile(lat, 0.5), "s", len(lat)),
        "latency_p90_s": metric(quantile(lat, 0.9), "s", len(lat)),
        "throughput_rps": metric(ok / untraced["wall_s"], "req/s", len(lat)),
        "ok_ratio": metric((attempted - failed) / attempted, "1", attempted),
        "avg_f": metric(avg_f, "1", len(workload.panel())),
    }
    return metrics, attempted, failed, checks


def check_serve(driver, run_dir, workload, prime_records, records, pins,
                checks, args):
    """Checks every response; returns (ids of failed requests, avg_f)."""
    failed = set()

    def labels_hash(record):
        return serve_load.fnv_labels(record["response"].get("labels", []))

    def bad(record, what):
        failed.add(record["response"].get("id", id(record)))
        checks.expect(False, what)

    for r in prime_records:
        if not r["response"].get("ok"):
            bad(r, f"prime {r['key']}: {r['response'].get('error')}")
    if args.corrupt == "label":
        # Self-test hook: one wrong label in the first cache-hit answer.
        first_hit = next(r for r in records if r["kind"] == "hit")
        first_hit["response"]["labels"][0] += 1
    first_hits = {}  # panel key -> its first answer
    for r in records:
        resp = r["response"]
        if not resp.get("ok"):
            bad(r, f"{resp.get('id')}: {resp.get('status')} {resp.get('error')}")
            continue
        cache = resp.get("cache")
        if r["kind"] == "hit":
            first = first_hits.setdefault(r["key"], r)
            if resp["labels"] != first["response"]["labels"]:
                bad(r, f"{resp['id']}: labels differ from earlier {r['key']}")
            if cache != "hit":
                bad(r, f"{resp['id']}: expected a cache hit, got {cache}")
        elif r["kind"] == "miss" and cache != "miss":
            bad(r, f"{resp['id']}: expected a cache miss, got {cache}")
        elif r["kind"] == "delta":
            if cache not in ("chain", "chain+warm"):
                bad(r, f"{resp['id']}: delta disposition {cache}")
            # Locality is a metric, not a check: on a small graph one batch
            # can legitimately reach every row (docs/DYNAMIC.md).
            if not 0 < resp.get("rows_recomputed", -1) <= resp.get("rows_total", 0):
                bad(r, f"{resp['id']}: rows_recomputed outside (0, rows_total]")

    # In-process reference: every panel configuration, two sampled misses
    # and a replay of the final delta state, each through
    # SymmetrizeAndCluster on the same file.
    panel = workload.panel()
    check_lines = []
    for key, fields in panel:
        check_lines.append((key, fields, None))
    rng = random.Random(args.seed)
    misses = [r for r in records if r["kind"] == "miss" and r["response"].get("ok")]
    for r in rng.sample(misses, min(2, len(misses))):
        check_lines.append((r["key"], r["fields"], r))
    deltas = [r for r in prime_records + records
              if r["kind"] == "delta" and r["response"].get("ok")]
    last_delta = max(deltas, key=lambda r: r["delta_seq"]) if deltas else None
    if last_delta is not None:
        updated = run_dir / "lfr_updated.txt"
        with open(workload.lfr) as src, open(updated, "w") as dst:
            dst.write(src.read())
            for batch in workload.applied_deltas[:last_delta["delta_seq"]]:
                for u, v in batch:
                    dst.write(f"{u} {v}\n")
        fields = dict(workload.delta_fields(), graph=str(updated))
        check_lines.append(("delta_replay", fields, last_delta))
    req_path = run_dir / "check_requests.ndjson"
    req_path.write_text("".join(json.dumps(f) + "\n" for _, f, _ in check_lines))
    out_path = run_dir / "check.json"
    driver_call(driver, "check", f"--requests={req_path}", f"--out={out_path}",
                f"--threads={CHECK_THREADS}")
    check = json.loads(out_path.read_text())
    fs = []
    for (key, _, record), h, f in zip(check_lines, check["hashes"],
                                     check["avg_f"]):
        if record is None:  # panel configuration
            fs.append(f)
            checks.observed[key] = h
            if key in first_hits and labels_hash(first_hits[key]) != h:
                for r in records:
                    if r["key"] == key:
                        failed.add(r["response"].get("id"))
                checks.expect(False, f"{key}: serve labels != in-process labels")
            if key in pins:
                checks.expect(h == pins[key], f"{key}: hash {h} != pinned {pins[key]}")
        elif labels_hash(record) != h:
            bad(record, f"{key}: serve labels != in-process labels")
    return failed, statistics.mean(fs)


def serve_layers(untraced, traced, single):
    """Per-layer metrics from the embedded reports of the traced phase.

    Layer times are seconds per window of WINDOW requests.
    """
    recs = [r for r in traced["records"] if r["response"].get("ok")]
    per_window = serve_load.WINDOW / len(recs)
    folds, waits, hit_folds = [], [], []
    by_kind = {"hit": [], "miss": [], "delta": []}
    for r in recs:
        report = r["response"]["report"]
        f = fold.fold_report(report)
        folds.append(f)
        by_kind[r["kind"]].append(r["latency_s"])
        request = [s for s in report["spans"] if s["name"] == "serve.request"]
        if request:
            waits.append(r["latency_s"] - request[0]["wall_seconds"])
        if r["kind"] == "hit":
            hit_folds.append(f)
    total = fold.sum_folds(folds)
    n = len(recs)
    out = {}
    for name in PER_LAYER_TIMES:
        out[name] = metric(total.get(name, 0.0) * per_window, "s", n)
    expanded = total.get("cluster.rmcl_expanded_nnz", 0.0)
    out["cluster.rmcl_iterations"] = metric(
        total.get("cluster.rmcl_iterations", 0.0) * per_window, "count", n)
    out["cluster.rmcl_expanded_nnz"] = metric(expanded * per_window,
                                              "nnz.computed", n)
    out["cluster.rmcl_kept_ratio"] = metric(
        total.get("_rmcl_kept_nnz", 0.0) / expanded if expanded else 0.0, "1", n)
    out["cluster.dd_over_aat_s"] = metric(0.0, "1", 0)
    out["linalg.tiles"] = metric(total.get("linalg.tiles", 0.0) * per_window,
                                 "count", n)
    out["linalg.spill_bytes"] = metric(
        total.get("linalg.spill_bytes", 0.0) * per_window, "B", n)
    out["linalg.spgemm_flops"] = metric(0.0, "flop.computed", 0)
    for name, value in fold.layer_shares(total).items():
        out[name] = metric(value, "1", n)
    hit_total = fold.sum_folds(hit_folds)
    hit_request = hit_total.get("_root_s", 0.0)
    hit_cluster = sum(v for k, v in hit_total.items()
                      if k.startswith("cluster.") and k.endswith("_s"))
    out["share.cluster_on_hits"] = metric(
        hit_cluster / hit_request if hit_request else 0.0, "1", len(hit_folds))
    un_wall = untraced["window_wall_s"]
    out["util.cpu_per_wall"] = metric(untraced["cpu_s"] / untraced["wall_s"],
                                      "1", len(untraced["records"]))
    out["util.speedup_1t"] = metric(single["window_wall_s"] / un_wall, "1",
                                    len(single["records"]))
    out["obs.trace_overhead"] = metric(traced["window_wall_s"] / un_wall, "1",
                                       len(traced["records"]))
    dispositions = [r["response"].get("cache") for r in recs
                    if r["kind"] in ("hit", "miss")]
    out["serve.hit_p50_s"] = metric(fold.median(by_kind["hit"]), "s",
                                    len(by_kind["hit"]))
    out["serve.miss_p50_s"] = metric(fold.median(by_kind["miss"]), "s",
                                     len(by_kind["miss"]))
    out["serve.delta_p50_s"] = metric(fold.median(by_kind["delta"]), "s",
                                      len(by_kind["delta"]))
    out["serve.cache_hit_ratio"] = metric(
        dispositions.count("hit") / len(dispositions) if dispositions else 0.0,
        "1", len(dispositions))
    out["serve.wait_s"] = metric(fold.median(waits), "s", len(waits))
    rows = total.get("_rows_total", 0.0)
    out["dynamic.rows_recomputed_ratio"] = metric(
        total.get("_rows_recomputed", 0.0) / rows if rows else 0.0, "1",
        len(by_kind["delta"]))
    return out


# ------------------------------------------------------------------ metrics

# Per-layer self times (seconds per job list, or per request round on serve).
PER_LAYER_TIMES = [
    "graph.read_s", "graph.write_s",
    "core.threshold_select_s", "core.symmetrize_s",
    "linalg.transpose_s", "linalg.spgemm_s", "linalg.symmetric_sum_s",
    "linalg.tiled_s",
    "cluster.mlr_mcl_s", "cluster.rmcl_iter_s", "cluster.coarsen_s",
    "cluster.refine_s", "cluster.project_flow_s", "cluster.metis_s",
    "cluster.graclus_s",
    "dynamic.delta_s", "serve.load_graph_s",
]
# Per-layer metrics only the serve workload reaches (0 on batch workloads).
SERVE_ONLY = {
    "serve.hit_p50_s": "s", "serve.miss_p50_s": "s", "serve.delta_p50_s": "s",
    "serve.cache_hit_ratio": "1", "serve.wait_s": "s",
    "dynamic.rows_recomputed_ratio": "1", "share.cluster_on_hits": "1",
}


def read_spec():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found beside perfbench/")
    return json.loads(path.read_text())


def main():
    spec = read_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (the self-test uses a small one)")
    ap.add_argument("--pins", default=str(HERE / "pinned.json"),
                    help="hashes pinned per workload/seed/scale")
    ap.add_argument("--corrupt", choices=("label",), default=None,
                    help="self-test: corrupt one output before checking")
    ap.add_argument("--pin", action="store_true",
                    help="record this run's output hashes in --pins "
                         "(only from a build whose outputs are known good)")
    args = ap.parse_args()

    root = Path.cwd()
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    driver, serve_bin = build(root, out)
    run_dir = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    pins = load_pins(args.pins, args.workload, args.seed, args.scale)
    try:
        if args.workload == "serve":
            metrics, attempted, failed, checks = run_serve(
                args, driver, serve_bin, run_dir, pins)
        else:
            metrics, attempted, failed, checks = run_batch(
                args, driver, run_dir, pins)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    checks.expect(not missing and not extra,
                  f"metric names differ from BENCHMARK.json: missing {missing}, "
                  f"extra {extra}")
    if args.pin:
        path = Path(args.pins)
        pins = json.loads(path.read_text())
        pins[f"{args.workload}/seed{args.seed}/scale{args.scale:g}"] = dict(
            sorted(checks.observed.items()))
        path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    for problem in checks.problems:
        log("CHECK FAILED: " + problem)
    correct = not checks.problems
    if not correct and failed == 0:
        failed = attempted
    print(f"{'metric':32} {'value':>14} {'unit':>14} {'samples':>8}")
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:14.6g} {m['unit']:>14} {m['samples']:8d}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in metrics.items() if k in declared}}
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
