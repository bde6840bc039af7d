#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a dgc checkout:

    python3 perfbench/selftest.py

1. Smoke: every workload at a tiny scale, untraced and traced. Each run
   must exit 0, report correct outputs, and emit exactly the metric names
   BENCHMARK.json declares for its mode.
2. A corrupted output (a changed label, a swapped graph) must fail the
   output check.
3. A corrupted pinned hash must fail the output check.
4. A directory holding only BENCHMARK.json and perfbench/ must make the
   benchmark exit non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SMOKE = ["--seed", "1", "--scale", "0.1", "--seconds", "1"]
WORKLOADS = ("flow", "similarity", "out-of-core", "serve")


def run(args, cwd=ROOT):
    r = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return r.returncode, result, r.stderr


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(["--workload", workload, "--trace",
                                     str(trace), *SMOKE])
            names = {m["name"] for m in spec[key]}
            expect(code == 0 and result is not None and result["correct"],
                   f"smoke {workload} trace={trace}" +
                   ("" if code == 0 else f": {err.strip()[-300:]}"))
            if result is not None:
                expect(set(result["metrics"]) == names,
                       f"{workload} trace={trace} emits the declared metrics")

    for workload in ("flow", "similarity", "serve"):
        code, result, _ = run(["--workload", workload, "--corrupt", "label",
                               *SMOKE])
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"corrupted {workload} output fails the check")

    pins = json.loads((HERE / "pinned.json").read_text())
    smoke_key = "flow/seed1/scale0.1"
    expect(smoke_key in pins, "pinned hashes exist for the flow smoke run")
    if smoke_key in pins:
        name = sorted(pins[smoke_key])[0]
        pins[smoke_key][name] = "0" * 16
        work = ROOT / ".bench_run" / "selftest"
        work.mkdir(parents=True, exist_ok=True)
        bad_pins = work / "pins.json"
        bad_pins.write_text(json.dumps(pins))
        code, result, _ = run(["--workload", "flow", "--pins", str(bad_pins),
                               *SMOKE])
        expect(code != 0 and result is not None and not result["correct"],
               "corrupted pinned hash fails the check")

    bare = ROOT / ".bench_run" / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "flow", *SMOKE], cwd=bare, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=180)
    expect(r.returncode != 0 and '"correct"' not in r.stdout,
           "a directory without the sources exits non-zero without a result")
    shutil.rmtree(ROOT / ".bench_run" / "selftest", ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
