"""serve_mixed: live reads beside writes through the horizontal serving tier.

Set-up generates two power-law graphs, starts ``repro serve --workers 2``
(a router plus two workers) in its own process group with ``--port 0``,
and loads one session per graph, named so that the two sessions land on
different workers (DCEr at f=0.01, ``localized: true``).

Load is an open loop from this process over two keep-alive connections:
9 queries (32 random nodes, ``top_k`` 1) for every delta.  Requests are due
on a fixed schedule and each is timed from when it was due, so a stall
delays the requests queued behind it.  Most deltas add a few fresh edges
and reveal 1-2 labels (the localized path); every tenth adds 1% of the
edges (the incremental path).  Deltas ask for ``ack: "propagated"``; each
query carries the session's last acknowledged token as ``min_version``.

Phases: a base rate, whose latencies are the headline metrics, then a
ladder of offered rates that stops at the first rung where the query
latency limit is missed (on the highest percentile the rung's sample
supports), a request fails or is shed, or the generator falls behind.

The served labels of every node at the end give the workload's accuracy,
scored on the nodes neither seeded at load nor revealed by a delta.

Checks: every response is well-formed, every fenced query sees
``graph_version >= min_version``, each session's served beliefs match an
in-process cold re-solve of its final graph within 1e-6, and no
``repro serve`` process survives teardown.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    RunRecord,
    median,
    percentile,
    serve_processes,
    stop_group,
    supported_percentile,
)
from repro import (
    DCEr,
    Graph,
    GraphDelta,
    InferenceService,
    MicroBatcher,
    StreamingSession,
    generate_graph,
    macro_accuracy,
    skew_compatibility,
)
from repro.eval.seeding import stratified_seed_labels
from repro.graph.io import load_graph_npz, save_graph_npz
from repro.propagation.linbp import LinBPPropagator
from repro.stream.delta import apply_delta
from repro.utils.placement import place
from tracing import Tracer

N_NODES = 100_000
N_EDGES = 500_000
N_CLASSES = 3
SKEW_H = 3.0
FRACTION = 0.01
ITERATIONS = 300  # serve's load defaults
TOLERANCE = 1e-8
QUERY_NODES = 32
QUERIES_PER_DELTA = 9
SMALL_DELTA_EDGES = 3
BIG_DELTA_EDGES = N_EDGES // 100
BIG_DELTA_EVERY = 10
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 10.0
# A request this late is never sent: the generator sheds it, the rung fails,
# and it counts as a latency miss but not as an attempted operation.
SHED_AFTER_S = 2.0
BASE_RATE = 10.0  # queries/s; the base phase is the ladder's first rung
BASE_SHARE = 0.6  # of the measured seconds
# Doubling rungs: the knee measured on a 2-CPU host when the ladder was set
# (about 12-25 q/s) falls between two rungs, so a rung's outcome rarely flips
# from run to run, and the top rungs reach past 45 q/s.
LADDER = (20.0, 40.0, 80.0)  # queries/s, above the base rate
RUNG_S = 4.0
LIMIT_MS = 100.0  # latency limit of a rung, on its highest supported percentile
AGREEMENT = 1e-6
PROBES = 30


@dataclass
class Sample:
    kind: str
    session: int
    due: float
    sent: float = math.nan
    done: float = math.nan
    ok: bool = False
    detail: str = ""
    traced: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3 if self.ok else math.inf

    @property
    def shed(self) -> bool:
        return self.detail.startswith("shed")

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3


class Client:
    """One keep-alive JSON connection that reconnects after an error."""

    def __init__(self, port: int, timeout: float = REQUEST_TIMEOUT_S) -> None:
        self.port, self.timeout = port, timeout
        self.conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        try:
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, json.loads(data) if data else {}

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Workload:
    """Inputs, server handle and acknowledged state of one serve_mixed run."""

    def __init__(self, seed: int, run_dir: Path, tracer: Tracer) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.graphs: list[Graph] = []
        self.paths: list[Path] = []
        self.seed_labels: list[np.ndarray] = []
        self.names: list[str] = []
        self.deltas: list[list[dict]] = [[], []]
        self.next_delta = [0, 0]
        self.acked: list[list[tuple[int, dict]]] = [[], []]  # (token, delta)
        self.last_token = [0, 0]
        self.lock = threading.Lock()
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.generate_s: list[float] = []
        self.load_s: list[float] = []

    # ------------------------------------------------------------- set-up
    def make_graphs(self) -> None:
        for index in range(2):
            graph_seed = self.seed * 1000 + 500 + index
            started = time.perf_counter()
            with self.tracer.span("graph.generator", seed=graph_seed):
                graph = generate_graph(N_NODES, N_EDGES, skew_compatibility(N_CLASSES, h=SKEW_H),
                                       distribution="powerlaw", seed=graph_seed,
                                       name=f"serve-{graph_seed}")
            self.generate_s.append(time.perf_counter() - started)
            path = self.run_dir / f"graph-{index}.npz"
            save_graph_npz(graph, path)
            self.graphs.append(graph)
            self.paths.append(path)
            # The server draws the same stratified seeds from the same seed.
            self.seed_labels.append(stratified_seed_labels(
                graph.labels, fraction=FRACTION, rng=self.load_seed(index)))

    def load_seed(self, index: int) -> int:
        return self.seed * 1000 + 600 + index

    def plan_deltas(self, n_per_session: int) -> None:
        """Fresh, pairwise distinct edges and unseen reveals for each session."""
        for index, graph in enumerate(self.graphs):
            n = graph.n_nodes
            coo = graph.adjacency.tocoo()
            rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
            keys = set((rows[rows < cols] * n + cols[rows < cols]).tolist())
            revealable = self.rng.permutation(np.flatnonzero(self.seed_labels[index] < 0))
            cursor = 0
            for position in range(n_per_session):
                want = BIG_DELTA_EDGES if position % BIG_DELTA_EVERY == BIG_DELTA_EVERY - 1 \
                    else SMALL_DELTA_EDGES
                edges = []
                while len(edges) < want:
                    pairs = self.rng.integers(0, n, size=(2 * want, 2))
                    for u, v in pairs.tolist():
                        lo, hi = min(u, v), max(u, v)
                        if lo != hi and lo * n + hi not in keys and len(edges) < want:
                            keys.add(lo * n + hi)
                            edges.append([lo, hi])
                n_reveal = 1 + int(self.rng.integers(0, 2))
                nodes = revealable[cursor:cursor + n_reveal].tolist()
                cursor += n_reveal
                self.deltas[index].append({
                    "add_edges": edges,
                    "reveal": [[node, int(graph.labels[node])] for node in nodes],
                })

    def start_server(self) -> None:
        port_file = self.run_dir / "router.port"
        port_file.unlink(missing_ok=True)
        queue_dir = self.run_dir / "queues"
        queue_dir.mkdir(parents=True, exist_ok=True)
        log = open(self.run_dir / "serve.log", "wb")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
                 "--port", "0", "--port-file", str(port_file), "--queue-dir", str(queue_dir)],
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
                env=os.environ.copy(),
            )
        finally:
            log.close()
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}: "
                                   + (self.run_dir / "serve.log").read_text()[-2000:])
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.port = int(text)
                break
            time.sleep(0.05)
        else:
            raise RuntimeError("repro serve did not publish its port")
        client = Client(self.port)
        while time.monotonic() < deadline:
            try:
                if client.request("GET", "/healthz")[0] == 200:
                    client.close()
                    return
            except OSError:
                pass
            time.sleep(0.1)
        raise RuntimeError("repro serve never became healthy")

    def load_sessions(self) -> None:
        # Two session names that the router places on different workers.
        candidates = (f"s{self.seed}-{i}" for i in range(1000))
        first = next(candidates)
        second = next(c for c in candidates if place(c, 2) != place(first, 2))
        self.names = [first, second]
        client = Client(self.port, timeout=300.0)
        for index, name in enumerate(self.names):
            started = time.perf_counter()
            status, body = client.request("POST", "/graphs", {
                "name": name, "path": str(self.paths[index]), "method": "DCEr",
                "fraction": FRACTION, "seed": self.load_seed(index), "localized": True,
                "iterations": ITERATIONS, "tolerance": TOLERANCE,
            })
            self.load_s.append(time.perf_counter() - started)
            if status != 201:
                raise RuntimeError(f"load of {name} failed ({status}): {body}")
        client.close()

    def stop_server(self) -> list[int]:
        if self.process is None:
            return []
        survivors = stop_group(self.process.pid)
        self.process.wait(timeout=10.0)
        self.process = None
        return survivors

    # ------------------------------------------------------------ requests
    def request_for(self, position: int, rng: np.random.Generator):
        """(kind, session, path, payload) of the ``position``-th request."""
        if position % (QUERIES_PER_DELTA + 1) == QUERIES_PER_DELTA:
            session = (position // (QUERIES_PER_DELTA + 1)) % 2
            with self.lock:
                delta = self.deltas[session][self.next_delta[session]]
                self.next_delta[session] += 1
            return "delta", session, f"/graphs/{self.names[session]}/delta", \
                dict(delta, ack="propagated")
        session = position % 2
        nodes = rng.choice(N_NODES, size=QUERY_NODES, replace=False).tolist()
        with self.lock:
            token = self.last_token[session]
        payload = {"nodes": nodes, "top_k": 1}
        if token:
            payload["min_version"] = token
        return "query", session, f"/graphs/{self.names[session]}/query", payload

    def validate(self, kind: str, session: int, payload: dict, status: int, body: dict) -> str:
        """'' when the response is well-formed and consistent, else why not."""
        if status != 200:
            return f"HTTP {status}: {str(body)[:200]}"
        if kind == "delta":
            token = body.get("token")
            if (body.get("n_applied") != 1 or body.get("errors") != [None]
                    or not isinstance(token, int) or body.get("propagated") is not True):
                return f"malformed delta response {str(body)[:200]}"
            with self.lock:
                self.acked[session].append((token, {k: v for k, v in payload.items()
                                                    if k != "ack"}))
                self.last_token[session] = max(self.last_token[session], token)
            return ""
        beliefs = body.get("beliefs")
        labels = body.get("labels")
        if (body.get("nodes") != payload["nodes"] or not isinstance(beliefs, list)
                or len(beliefs) != QUERY_NODES
                or any(len(row) != N_CLASSES for row in beliefs)
                or not isinstance(labels, list) or len(labels) != QUERY_NODES
                or any(not -1 <= label < N_CLASSES for label in labels)
                or not isinstance(body.get("top"), list)):
            return f"malformed query response {str(body)[:200]}"
        if body.get("graph_version", -1) < payload.get("min_version", 0):
            return (f"read-your-writes violated: graph_version {body.get('graph_version')} "
                    f"< min_version {payload['min_version']}")
        return ""

    def phase(self, rate: float, duration: float, start_position: int,
              trace_every: int = 0) -> tuple[list[Sample], int]:
        """Open loop at ``rate`` queries/s (plus deltas) for ``duration`` s."""
        request_rate = rate * (QUERIES_PER_DELTA + 1) / QUERIES_PER_DELTA
        total = max(1, int(duration * request_rate))
        samples: list[Sample] = []
        counter = iter(range(total))
        lock = threading.Lock()
        rng = np.random.default_rng([self.seed, start_position])
        origin = time.perf_counter() + 0.05

        def worker() -> None:
            client = Client(self.port)
            try:
                while True:
                    with lock:
                        k = next(counter, None)
                        if k is None:
                            return
                        kind, session, path, payload = self.request_for(start_position + k, rng)
                    due = origin + k / request_rate
                    sample = Sample(kind, session, due)
                    samples.append(sample)
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sample.sent = time.perf_counter()
                    if sample.sent - due > SHED_AFTER_S:
                        sample.detail = "shed: generator fell too far behind"
                        continue
                    sample.traced = bool(trace_every) and k % trace_every == 0
                    try:
                        if sample.traced:
                            with self.tracer.span("serve.request", kind=kind, session=session):
                                status, body = client.request("POST", path, payload)
                        else:
                            status, body = client.request("POST", path, payload)
                    except (OSError, http.client.HTTPException, ValueError) as exc:
                        sample.detail = f"{type(exc).__name__}: {exc}"
                        continue
                    sample.done = time.perf_counter()
                    sample.detail = self.validate(kind, session, payload, status, body)
                    sample.ok = not sample.detail
            finally:
                client.close()

        threads = [threading.Thread(target=worker, name=f"perfbench-load-{i}")
                   for i in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples, start_position + total


def summarize(samples: list[Sample]) -> dict:
    queries = [s for s in samples if s.kind == "query"]
    deltas = [s for s in samples if s.kind == "delta"]
    q_lat = [s.latency_ms for s in queries]
    d_lat = [s.latency_ms for s in deltas]
    lags = [s.lag_ms for s in samples if not math.isnan(s.sent)]
    tail = sorted(samples, key=lambda s: s.due)[-max(1, len(samples) // 4):]
    q_pct, d_pct, l_pct = (supported_percentile(len(v)) for v in (q_lat, d_lat, lags))
    return {
        "n_queries": len(queries),
        "n_deltas": len(deltas),
        "n_shed": sum(1 for s in samples if s.shed),
        "n_failed": sum(1 for s in samples if not s.ok and not s.shed),
        "query_p50_ms": percentile(q_lat, 50),
        "query_p99_ms": percentile(q_lat, 99),
        "query_limit_pct": q_pct,
        "query_limit_ms": percentile(q_lat, q_pct),
        "delta_p50_ms": percentile(d_lat, 50),
        "delta_p90_ms": percentile(d_lat, 90),
        f"delta_p{d_pct:g}_ms (highest supported)": percentile(d_lat, d_pct),
        "lag_p50_ms": percentile(lags, 50),
        "lag_tail_pct": l_pct,
        "lag_tail_ms": percentile(lags, l_pct),
        "final_quarter_lag_p50_ms": median([s.lag_ms for s in tail if not math.isnan(s.sent)]),
    }


def rung_passes(summary: dict) -> bool:
    """No failures, a flat generator backlog, and the limit on the query
    latency percentile the rung's sample supports (>= 10 samples beyond)."""
    return (summary["n_failed"] == 0 and summary["n_shed"] == 0
            and summary["query_limit_ms"] <= LIMIT_MS
            and summary["final_quarter_lag_p50_ms"] <= LIMIT_MS)


def served_accuracy(workload: Workload, index: int, labels) -> float:
    """Macro accuracy of a session's served labels on the nodes it was never
    told: neither a load-time seed nor revealed by an acknowledged delta."""
    graph = workload.graphs[index]
    known = set(np.flatnonzero(workload.seed_labels[index] >= 0).tolist())
    for _, delta in workload.acked[index]:
        known.update(node for node, _ in delta["reveal"])
    if not isinstance(labels, list) or len(labels) != graph.n_nodes:
        return 0.0
    return macro_accuracy(graph.labels, np.asarray(labels, dtype=np.int64), N_CLASSES,
                          exclude_indices=np.fromiter(known, dtype=np.int64))


def cold_beliefs(workload: Workload, index: int) -> np.ndarray:
    """In-process cold re-solve of a session's final graph."""
    graph = load_graph_npz(workload.paths[index])
    seeds = workload.seed_labels[index].copy()
    compatibility = DCEr(seed=workload.load_seed(index)).fit(graph, seeds).compatibility
    adjacency = graph.adjacency
    for _, delta in sorted(workload.acked[index], key=lambda pair: pair[0]):
        parsed = GraphDelta.from_dict(delta)
        adjacency = apply_delta(adjacency, parsed, strict=True).adjacency
        seeds[parsed.reveal_nodes] = parsed.reveal_labels
    final = Graph(adjacency=adjacency, labels=graph.labels, n_classes=graph.n_classes)
    propagator = LinBPPropagator(max_iterations=ITERATIONS, tolerance=TOLERANCE)
    return propagator.propagate(final, seeds, compatibility=compatibility).beliefs


def run(seed: int, seconds: float, tracer: Tracer, record: RunRecord, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = Workload(seed, run_dir, tracer)
    try:
        _run(workload, seconds, tracer, record)
    finally:
        survivors = workload.stop_server()
        if survivors:
            record.findings.append(f"serve processes ignored SIGTERM and were killed: "
                                   f"{survivors}")
        strays = serve_processes(str(run_dir))
        record.check("no repro serve process survives teardown", not strays,
                     f"survivors: {strays}")


def _run(workload: Workload, seconds: float, tracer: Tracer, record: RunRecord) -> None:
    # The base phase takes most of the measured time; the ladder above it
    # stops at its first failing rung, so a faster program walks more rungs.
    base_s = seconds * BASE_SHARE
    # Every phase run in full bounds how many deltas can be sent.
    most_requests = (BASE_RATE * base_s + sum(LADDER) * RUNG_S) * 10 / 9
    n_deltas = int(most_requests / (QUERIES_PER_DELTA + 1) / 2) + 4

    # ------------------------------------------------------------- set-up
    setup_start = time.perf_counter()
    workload.make_graphs()
    workload.plan_deltas(n_deltas)
    workload.start_server()
    workload.load_sessions()
    warm = Client(workload.port)
    for name in workload.names:  # untimed warm-up query per session
        warm.request("POST", f"/graphs/{name}/query", {"nodes": [0], "top_k": 1})
    warm.close()
    setup_s = time.perf_counter() - setup_start

    # ------------------------------------------------------------ measure
    base, position = workload.phase(BASE_RATE, base_s, 0, trace_every=2 if tracer.enabled else 0)
    base_summary = summarize(base)
    ladder = [{"rate_qps": BASE_RATE, "passed": rung_passes(base_summary), **base_summary}]
    max_rate = BASE_RATE if ladder[0]["passed"] else 0.0
    all_samples = list(base)
    for rate in LADDER if max_rate else ():
        samples, position = workload.phase(rate, RUNG_S, position)
        all_samples.extend(samples)
        summary = summarize(samples)
        passed = rung_passes(summary)
        ladder.append({"rate_qps": rate, "passed": passed, **summary})
        if not passed:
            break
        max_rate = rate
    sent = [s for s in all_samples if not s.shed]
    failures = [s for s in sent if not s.ok]
    record.count(len(sent), len(failures))
    bad = [s.detail for s in failures
           if s.detail.startswith(("malformed", "read-your-writes"))]
    record.check("every response well-formed and read-your-writes holds", not bad, str(bad[:3]))

    record.metric("setup_s", setup_s, "s")
    record.metric("op_ms", base_summary["query_p50_ms"], "ms")
    record.metric("query_p50_ms", base_summary["query_p50_ms"], "ms")
    record.metric("query_p99_ms", base_summary["query_p99_ms"], "ms")
    record.metric("delta_p50_ms", base_summary["delta_p50_ms"], "ms")
    record.metric("delta_p90_ms", base_summary["delta_p90_ms"], "ms")
    record.metric("max_rate_qps", max_rate, "queries/s")
    if not max_rate:
        record.findings.append(f"the base rate {BASE_RATE:g} q/s missed the {LIMIT_MS:g} ms "
                               f"limit or failed requests; max_rate_qps is below it")
    record.report.update({
        "graphs": {"n_nodes": N_NODES, "n_edges": N_EDGES, "k": N_CLASSES, "h": SKEW_H,
                   "seeds": [workload.seed * 1000 + 500 + i for i in range(2)],
                   "sessions": workload.names, "load_s": workload.load_s},
        "open_loop": {"connections": CONNECTIONS, "queries_per_delta": QUERIES_PER_DELTA,
                      "query_nodes": QUERY_NODES, "big_delta_edges": BIG_DELTA_EDGES,
                      "rung_limit_ms_on_highest_supported_percentile": LIMIT_MS,
                      "ladder_qps": [BASE_RATE, *LADDER], "rung_s": RUNG_S},
        "base": {"rate_qps": BASE_RATE, "seconds": base_s, **base_summary},
        "ladder": ladder,
        "max_rate_qps": max_rate,
        "failed_samples": [s.detail for s in failures[:5]],
    })

    # ------------------------------------------ final beliefs vs cold re-solve
    client = Client(workload.port, timeout=120.0)
    deviations, accuracies = [], []
    for index, name in enumerate(workload.names):
        status, body = client.request("POST", f"/graphs/{name}/query", {
            "nodes": list(range(N_NODES)), "min_version": workload.last_token[index]})
        served = np.asarray(body.get("beliefs", []), dtype=np.float64)
        accuracies.append(served_accuracy(workload, index, body.get("labels")))
        cold = cold_beliefs(workload, index)
        deviation = float(np.max(np.abs(served - cold))) if served.shape == cold.shape \
            else math.inf
        deviations.append(deviation)
        record.check(f"session {name}: served beliefs match a cold re-solve within "
                     f"{AGREEMENT:g}", status == 200 and deviation <= AGREEMENT,
                     f"HTTP {status}, max deviation {deviation:.3e} after "
                     f"{len(workload.acked[index])} deltas")
    client.close()
    record.report["final_max_deviation"] = deviations
    record.metric("accuracy", float(np.mean(accuracies)), "fraction")

    if tracer.enabled:
        _per_layer(workload, base, base_summary, record)


def _probe(client: Client, path: str, node_sets) -> list[float]:
    times = []
    for nodes in node_sets:
        started = time.perf_counter()
        status, _ = client.request("POST", path, {"nodes": nodes, "top_k": 1})
        times.append(time.perf_counter() - started)
        if status != 200:
            raise RuntimeError(f"probe {path} returned {status}")
    return times


def _per_layer(workload: Workload, base: list[Sample], base_summary: dict,
               record: RunRecord) -> None:
    tracer = workload.tracer
    rng = np.random.default_rng([workload.seed, 7])

    def node_sets():
        return [rng.choice(N_NODES, size=QUERY_NODES, replace=False).tolist()
                for _ in range(PROBES)]

    name, index = workload.names[0], 0
    path = f"/graphs/{name}/query"
    # Closed-loop probes: through the router, then straight to the owner.
    client = Client(workload.port)
    with tracer.span("serve.router_probe"):
        router_rtt = median(_probe(client, path, node_sets())) * 1e3
    status, fleet = client.request("GET", "/fleet")
    if status != 200:
        raise RuntimeError(f"GET /fleet returned {status}")
    worker_urls = [w["url"] for w in fleet["workers"]]
    owner = next(w for w in fleet["workers"] if name in w["sessions"])
    client.close()
    worker = Client(int(owner["url"].rsplit(":", 1)[1]))
    with tracer.span("serve.worker_probe"):
        worker_rtt = median(_probe(worker, path, node_sets())) * 1e3
    worker.close()
    flushes = queries_deltas = saved = 0
    for url in worker_urls:
        stats_client = Client(int(url.rsplit(":", 1)[1]))
        batcher = stats_client.request("GET", "/stats")[1].get("batcher", {})
        stats_client.close()
        flushes += batcher.get("n_flushes", 0)
        queries_deltas += batcher.get("n_queries", 0) + batcher.get("n_deltas", 0)
        saved += batcher.get("propagations_saved", 0)

    # In-process service and batcher over an identically loaded session.
    service = InferenceService(queue_dir=workload.run_dir / "inproc-queue")
    service.load_graph(name, path=str(workload.paths[index]), method="DCEr", fraction=FRACTION,
                       seed=workload.load_seed(index), localized=True,
                       iterations=ITERATIONS, tolerance=TOLERANCE)
    service_q = []
    with tracer.span("serve.service_probe"):
        for nodes in node_sets():
            started = time.perf_counter()
            service.query_many(name, [(nodes, 1)])
            service_q.append(time.perf_counter() - started)
    batcher = MicroBatcher(service)
    batcher_q = []
    with tracer.span("serve.batcher_probe"):
        for nodes in node_sets():
            started = time.perf_counter()
            batcher.query(name, nodes, 1)
            batcher_q.append(time.perf_counter() - started)
    batcher.close()
    deltas = [delta for _, delta in sorted(workload.acked[index], key=lambda p: p[0])]
    service_d = []
    with tracer.span("serve.service_deltas"):
        for delta in deltas:
            started = time.perf_counter()
            service.apply_deltas(name, [GraphDelta.from_dict(delta)])
            service_d.append(time.perf_counter() - started)
    service.unload(name)

    # Standalone streaming session replaying the same delta sequence.
    graph = load_graph_npz(workload.paths[index])
    with tracer.span("propagation.convergence"):
        started = time.perf_counter()
        Graph(adjacency=graph.adjacency.copy(), labels=graph.labels,
              n_classes=graph.n_classes).operators.spectral_radius()
        radius_s = time.perf_counter() - started
    seeds = workload.seed_labels[index]
    compatibility = DCEr(seed=workload.load_seed(index)).fit(graph, seeds).compatibility
    session = StreamingSession(graph, LinBPPropagator(max_iterations=ITERATIONS,
                                                      tolerance=TOLERANCE),
                               compatibility=compatibility, seed_labels=seeds, localized=True)
    session.propagate()
    anchor_modes, anchor_nnz = dict(session.mode_counts), session.touched_nnz_total
    apply_ms, propagate_ms = [], []
    with tracer.span("stream.replay"):
        for delta in deltas:
            started = time.perf_counter()
            session.apply(GraphDelta.from_dict(delta))
            applied = time.perf_counter()
            session.propagate()
            apply_ms.append((applied - started) * 1e3)
            propagate_ms.append((time.perf_counter() - applied) * 1e3)
    modes = {m: c - anchor_modes.get(m, 0) for m, c in session.mode_counts.items()}

    service_query = median(service_q) * 1e3
    batcher_query = median(batcher_q) * 1e3
    per = record.metrics
    per["graph.generate_s"] = (median(workload.generate_s), "s")
    per["spectral.radius_s"] = (radius_s, "s")
    per["stream.apply_ms"] = (median(apply_ms), "ms")
    per["stream.propagate_ms"] = (median(propagate_ms), "ms")
    for mode in ("localized", "incremental", "full"):
        per[f"stream.mode.{mode}"] = (modes.get(mode, 0), "count")
    per["stream.touched_nnz"] = (session.touched_nnz_total - anchor_nnz, "count")
    per["serve.service_query_ms"] = (service_query, "ms")
    per["serve.service_delta_ms"] = (median(service_d) * 1e3, "ms")
    per["serve.batcher_query_ms"] = (batcher_query, "ms")
    per["serve.batcher_wait_ms"] = (batcher_query - service_query, "ms")
    per["serve.batch_size_mean"] = (queries_deltas / max(1, flushes), "count")
    per["serve.propagations_saved"] = (saved, "count")
    per["serve.worker_rtt_ms"] = (worker_rtt, "ms")
    per["serve.http_ms"] = (worker_rtt - batcher_query, "ms")
    per["serve.router_rtt_ms"] = (router_rtt, "ms")
    per["serve.router_hop_ms"] = (router_rtt - worker_rtt, "ms")
    per["serve.generator_lag_ms"] = (base_summary["lag_p50_ms"], "ms")
    per["serve.generator_lag_tail_ms"] = (base_summary["lag_tail_ms"], "ms")
    traced = [s.latency_ms for s in base if s.kind == "query" and s.traced and s.ok]
    untraced = [s.latency_ms for s in base if s.kind == "query" and not s.traced and s.ok]
    per["trace.overhead_frac"] = (median(traced) / median(untraced) - 1.0, "fraction")
    # The blocking path of one query, measured closed-loop: router hop,
    # HTTP (worker round trip minus the in-process batcher, so it holds
    # whatever the other layers do not), batcher wait, and the service.
    layers = {"serve.router": router_rtt - worker_rtt, "serve.http": worker_rtt - batcher_query,
              "serve.batcher": batcher_query - service_query, "serve.service": service_query}
    for layer, ms in layers.items():
        per[f"share.{layer}"] = (ms / router_rtt, "fraction")
    # The open loop's median differs from the closed-loop round trip by
    # queueing (and by TCP acknowledgement timing on idle connections).
    open_loop = base_summary["query_p50_ms"]
    per["share.unattributed"] = ((open_loop - router_rtt) / router_rtt, "fraction")
    record.report["blocking_path"] = {
        "e2e_ms": {"closed-loop router round trip (p50)": router_rtt,
                   "open-loop query p50 at the base rate": open_loop},
        "layers_ms": layers,
        "unattributed_ms (open-loop p50 minus closed-loop round trip)": open_loop - router_rtt,
        "probes_per_layer": PROBES,
        "replayed_deltas": len(deltas),
    }
