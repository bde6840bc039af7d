"""Closed-loop load for the `serve` workload: a dgc_serve daemon over TCP.

One client process keeps CONNECTIONS sockets open; each sends its next
request only after the previous answer arrives. Requests come from a seeded
stream of fixed-composition blocks (see README.md). Wall and daemon CPU
time are reported per WINDOW requests, averaged over the whole phase: a
shorter sample would hold a varying share of the expensive requests.
"""

import itertools
import json
import os
import random
import socket
import subprocess
import threading
import time

CONNECTIONS = 3
WINDOW = 40  # requests per reported wall/CPU figure (two blocks)
# The daemon's peak RSS is read once this many requests are answered. Every
# miss and delta adds a cache entry, so a peak read at the end of a timed
# phase would grow with throughput; at a fixed count it measures the same
# work on every machine (eight blocks).
RSS_REQUESTS = 160
MISSES_PER_BLOCK = 3
DELTAS_PER_BLOCK = 3
DELTA_EDGES = 10

# Stage-2 sweeps that hit the cache once their stage-1 key is primed:
# 4 MLR-MCL inflations over the two citation graphs, 5 Metis and 5 Graclus
# k over the two LFR graphs (14 panel configurations).
CITE_SWEEP = (("cite0", 1.8), ("cite0", 2.6), ("cite1", 2.2), ("cite1", 3.0))
LFR_SWEEP = (("lfr0", "metis", 8), ("lfr0", "metis", 16),
             ("lfr0", "metis", 32), ("lfr1", "metis", 12),
             ("lfr1", "metis", 48), ("lfr1", "graclus", 8),
             ("lfr1", "graclus", 16), ("lfr1", "graclus", 32),
             ("lfr0", "graclus", 12), ("lfr0", "graclus", 48))
MISS_CLUSTERS = 16
DELTA_CLUSTERS = 16
PRIME_CLUSTERS = 16


def fnv_labels(labels):
    """FNV-1a 64 over the labels one per line (perfbench_driver's hash)."""
    h = 0xCBF29CE484222325
    for byte in "".join(f"{v}\n" for v in labels).encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


class Workload:
    """The seeded request stream over one prepared input directory."""

    def __init__(self, run_dir, manifest, seed):
        self.graphs = {}  # name -> (path, stage-1 threshold)
        for name in ("cite0", "cite1", "lfr0", "lfr1"):
            self.graphs[name] = (os.path.join(run_dir, name + ".txt"),
                                 manifest[name + "_threshold"])
        self.lfr = self.graphs["lfr0"][0]  # the apply_delta session's base
        self.rng = random.Random(seed * 1000003 + 17)
        self.delta_rng = random.Random(seed * 1000003 + 29)
        self.misses = 0
        self.lfr_edges = set()
        self.lfr_vertices = 0
        with open(self.lfr) as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 2 and not line.startswith(("#", "%")):
                    u, v = int(parts[0]), int(parts[1])
                    self.lfr_edges.add((u, v))
                    self.lfr_vertices = max(self.lfr_vertices, u + 1, v + 1)
        self.applied_deltas = []  # insert batches, in the order applied

    def fields(self, graph, **stage2):
        path, threshold = self.graphs[graph]
        return dict(graph=path, method="dd", threshold=threshold, **stage2)

    def panel(self):
        """Every cache-hit configuration: (key, request fields)."""
        out = []
        for graph, inflation in CITE_SWEEP:
            out.append((f"{graph}_mlr_{inflation}", self.fields(
                graph, algorithm="mlr-mcl", inflation=inflation)))
        for graph, algorithm, k in LFR_SWEEP:
            out.append((f"{graph}_{algorithm}_{k}", self.fields(
                graph, algorithm=algorithm, clusters=k)))
        return out

    def miss(self):
        """A cold miss: a stage-1 threshold no earlier request used."""
        self.misses += 1
        graph = f"cite{self.misses % 2}"
        fields = self.fields(graph, algorithm="metis", clusters=MISS_CLUSTERS)
        fields["threshold"] *= 1.0 + 1e-9 * self.misses
        return f"miss_{self.misses}", fields

    def delta_fields(self):
        return self.fields("lfr0", algorithm="graclus", clusters=DELTA_CLUSTERS)

    def next_delta_batch(self):
        """DELTA_EDGES edges absent from the session's current graph."""
        batch = []
        while len(batch) < DELTA_EDGES:
            u = self.delta_rng.randrange(self.lfr_vertices)
            v = self.delta_rng.randrange(self.lfr_vertices)
            if u != v and (u, v) not in self.lfr_edges:
                self.lfr_edges.add((u, v))
                batch.append([u, v])
        return batch

    def stream(self):
        """Endless seeded request stream of (kind, key, fields) triples.

        It is made of blocks with a fixed composition: every panel
        configuration once (the cache hits, 14 of 20), MISSES_PER_BLOCK cold
        misses and DELTAS_PER_BLOCK apply_delta writes, in seeded order. A
        fixed composition keeps the work per window the same on every seed.
        """
        while True:
            block = [("hit", key, fields) for key, fields in self.panel()]
            for _ in range(MISSES_PER_BLOCK):
                key, fields = self.miss()
                block.append(("miss", key, fields))
            for _ in range(DELTAS_PER_BLOCK):
                block.append(("delta", "delta", self.delta_fields()))
            self.rng.shuffle(block)
            yield from block


class Daemon:
    """A dgc_serve process in TCP mode on a kernel-assigned port."""

    def __init__(self, binary):
        self.proc = subprocess.Popen(
            [binary, "--port=0"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise RuntimeError(f"dgc_serve did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def cpu_seconds(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                with Connection(self.address) as c:
                    c.call({"op": "shutdown"})
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One NDJSON connection; call() sends a request and waits for its line."""

    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def call(self, request):
        self.sock.sendall((json.dumps(request) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("dgc_serve closed the connection")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.reader.close()
        self.sock.close()


class Client:
    """CONNECTIONS closed-loop connections to one daemon."""

    def __init__(self, daemon, workload):
        self.daemon = daemon
        self.workload = workload
        self.conns = [Connection(daemon.address) for _ in range(CONNECTIONS)]
        self.delta_lock = threading.Lock()
        self.serial = itertools.count(1)

    def close(self):
        for c in self.conns:
            c.__exit__()

    def send(self, conn, kind, key, fields):
        """Sends one request; returns its record."""
        request = dict(fields, labels=True, threads=1)
        request["id"] = f"{kind}-{next(self.serial)}"
        if kind == "delta":
            # Deltas are writes: the client serializes them so the order it
            # records is the order the session applied them.
            with self.delta_lock:
                batch = self.workload.next_delta_batch()
                request.update(op="apply_delta", inserts=batch)
                t0 = time.perf_counter()
                response = conn.call(request)
                latency = time.perf_counter() - t0
                if response.get("ok"):
                    self.workload.applied_deltas.append(batch)
                seq = len(self.workload.applied_deltas)
        else:
            t0 = time.perf_counter()
            response = conn.call(request)
            latency = time.perf_counter() - t0
            seq = 0
        return {"kind": kind, "key": key, "fields": fields,
                "latency_s": latency, "response": response, "delta_seq": seq}

    def run(self, seconds, connections=CONNECTIONS, min_requests=WINDOW):
        """Closed loop for `seconds` and at least `min_requests` requests.

        Each connection sends its next request as soon as its previous one
        is answered. Returns the records, the phase's wall time (until the
        last answer), the daemon's CPU seconds over it, and its peak RSS
        when the RSS_REQUESTS-th answer arrived (None if it never did).
        """
        lock = threading.Lock()
        records, errors = [], []
        rss = []
        stream = self.workload.stream()
        cpu0 = self.daemon.cpu_seconds()
        start = time.perf_counter()

        def worker(conn):
            try:
                while True:
                    with lock:
                        if errors or (len(records) >= min_requests and
                                      time.perf_counter() - start >= seconds):
                            return
                        kind, key, fields = next(stream)
                    record = self.send(conn, kind, key, fields)
                    with lock:
                        records.append(record)
                        if len(records) == RSS_REQUESTS:
                            rss.append(self.daemon.peak_rss_mb())
            except Exception as e:  # re-raised by the caller
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(c,))
                   for c in self.conns[:connections]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        wall = time.perf_counter() - start
        return {"records": records, "wall_s": wall,
                "peak_rss_mb": rss[0] if rss else None,
                "cpu_s": self.daemon.cpu_seconds() - cpu0,
                "window_wall_s": wall * WINDOW / len(records),
                "window_cpu_s": (self.daemon.cpu_seconds() - cpu0) * WINDOW /
                                len(records)}

    def prime(self):
        """Warm-up: one cold request per stage-1 key and the delta session."""
        records = []
        panel = self.workload.panel()
        firsts = {}
        for _, fields in panel:
            firsts.setdefault(fields["graph"], fields)
        for fields in firsts.values():
            # A cheap stage 2: priming only has to fill the stage-1 entry.
            fields = dict(fields, algorithm="metis", clusters=PRIME_CLUSTERS)
            records.append(self.send(self.conns[0], "prime", "prime", fields))
        records.append(self.send(self.conns[0], "delta", "delta",
                                 self.workload.delta_fields()))
        return records
