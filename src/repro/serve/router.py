"""Horizontal serving tier: a router fronting a pool of worker processes.

One serving process is bounded by the GIL and by memory: every loaded
session competes for the same interpreter.  The router splits the tier
horizontally —

* **N worker processes**, each a full single-process server (`repro
  serve`: service + micro-batcher + HTTP), spawned and supervised by the
  router, bound to ephemeral ports discovered through ``--port-file``;
* **deterministic session placement**: session ``name`` lives on worker
  ``place(name, N)`` (:mod:`repro.utils.placement` — the same SHA-256
  arithmetic as grid sharding).  The router computes it per request, and
  so can anyone else: smart clients talk straight to the owning worker and
  skip the proxy hop entirely;
* **the same JSON API**: clients point at the router instead of a worker
  and nothing changes — ``/graphs/*`` requests are proxied to the owner
  over keep-alive connections;
* **supervision + recovery**: a worker that dies (crash, OOM kill,
  ``kill -9``) is respawned on the next supervision tick or on the first
  proxied request that hits the corpse, and every session it owned is
  **re-placed**: the router re-issues the recorded load with
  ``recover=true``, so the worker rebuilds the session from source and
  replays its durable delta queue (the queue directory is shared across
  the fleet, so the log survives the worker that wrote it).  Acknowledged
  deltas are never lost; proxied delta retries carry idempotency ids so
  at-least-once delivery cannot double-apply;
* **fleet observability**: ``GET /metrics`` federates every worker's
  registry under an ``instance`` label (PR 8's scrape machinery, reused
  verbatim), ``GET /healthz`` aggregates worker health and names exactly
  which workers/graphs are in trouble, ``GET /fleet`` lists the workers
  for ``repro top --router``.

Everything is stdlib-only (``subprocess`` + ``http.client`` +
``http.server``), matching the serve tier's dependency posture.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro import obs
from repro.obs.scrape import (
    federate_snapshots,
    label_snapshot,
    parse_prometheus,
)
from repro.serve.service import ServeError
from repro.utils.placement import place

__all__ = ["Router", "RouterHTTPServer", "WorkerHandle", "make_router_server"]

# Proxied requests may sit behind a full propagation on the worker.
PROXY_TIMEOUT_SECONDS = 300.0


class WorkerHandle:
    """One supervised worker process and the sessions placed on it."""

    def __init__(self, index: int, host: str) -> None:
        self.index = index
        self.host = host
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.port_file: Path | None = None
        # Successful load payloads by session name — the re-place recipe a
        # recovery replays (with recover=true) onto the respawned worker.
        self.loads: dict[str, dict] = {}
        # Bumped on every (re)spawn; a proxy thread that saw the worker die
        # passes the generation it observed, so recovery runs exactly once
        # per death no matter how many requests hit the corpse.
        self.generation = 0
        self.recover_lock = threading.Lock()
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def pid(self) -> int | None:
        return None if self.process is None else self.process.pid

    def describe(self) -> dict:
        return {
            "index": self.index,
            "url": self.url if self.port else None,
            "metrics_url": f"{self.url}/metrics" if self.port else None,
            "alive": self.alive,
            "pid": self.pid,
            "restarts": self.restarts,
            "sessions": sorted(self.loads),
        }


class Router:
    """Spawns, supervises, and proxies to a pool of serve workers.

    Parameters
    ----------
    n_workers:
        Pool size; session placement is ``place(name, n_workers)``.
    host:
        Interface the workers bind (ephemeral ports) and connect on.
    queue_dir:
        Durable delta-queue directory **shared by all workers** — this is
        what makes recovery lossless.  Defaults to a router-owned
        temporary directory (durable across worker deaths, not across
        router restarts; pass a real path for the latter).
    worker_args:
        Extra ``repro serve`` CLI arguments forwarded to every worker
        (batching knobs, ``--lenient``, ``--max-sessions`` ...).
    spawn_timeout:
        Seconds to wait for a worker to write its port file and pass its
        first health check.
    supervise_interval:
        Supervision tick; dead workers are also detected inline by the
        first proxied request that fails, so this only bounds *idle*
        detection latency.
    """

    def __init__(
        self,
        n_workers: int,
        host: str = "127.0.0.1",
        queue_dir=None,
        worker_args: list[str] | None = None,
        spawn_timeout: float = 60.0,
        supervise_interval: float = 0.5,
        registry=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.host = host
        self.worker_args = list(worker_args or [])
        self.spawn_timeout = float(spawn_timeout)
        self.supervise_interval = float(supervise_interval)
        self.registry = registry if registry is not None else obs.metrics()
        self.started_at = time.time()
        self._owned_tmp: tempfile.TemporaryDirectory | None = None
        if queue_dir is None:
            self._owned_tmp = tempfile.TemporaryDirectory(prefix="repro-queues-")
            queue_dir = self._owned_tmp.name
        self.queue_dir = Path(queue_dir)
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        self.workers = [WorkerHandle(i, host) for i in range(self.n_workers)]
        self._local = threading.local()  # per-thread keep-alive connections
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._c_proxied = self.registry.counter(
            "repro_router_proxied_total",
            "Requests proxied to workers, by method.",
        )
        self._c_recoveries = self.registry.counter(
            "repro_router_recoveries_total",
            "Dead workers respawned with their sessions re-placed.",
        )
        self._c_retries = self.registry.counter(
            "repro_router_retries_total",
            "Proxied requests retried after a worker recovery.",
        )

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Spawn the pool, health-gate every worker, start supervision."""
        try:
            for handle in self.workers:
                self._spawn(handle)
        except Exception:
            self.close()
            raise
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-router-supervisor", daemon=True
        )
        self._supervisor.start()

    def close(self) -> None:
        """Stop supervision and terminate every worker."""
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
            self._supervisor = None
        for handle in self.workers:
            if handle.process is not None and handle.process.poll() is None:
                handle.process.terminate()
        deadline = time.monotonic() + 5.0
        for handle in self.workers:
            if handle.process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                handle.process.kill()
                handle.process.wait(timeout=5.0)
            if handle.port_file is not None:
                handle.port_file.unlink(missing_ok=True)
        if self._owned_tmp is not None:
            self._owned_tmp.cleanup()
            self._owned_tmp = None

    def __enter__(self) -> "Router":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- spawning
    def _worker_command(self, handle: WorkerHandle) -> list[str]:
        return [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", self.host,
            "--port", "0",
            "--port-file", str(handle.port_file),
            "--queue-dir", str(self.queue_dir),
            *self.worker_args,
        ]

    def _spawn(self, handle: WorkerHandle) -> None:
        fd, port_file = tempfile.mkstemp(prefix=f"repro-w{handle.index}-",
                                         suffix=".port")
        os.close(fd)
        os.unlink(port_file)  # the worker creates it after binding
        handle.port_file = Path(port_file)
        handle.port = None
        handle.process = subprocess.Popen(
            self._worker_command(handle),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=os.environ.copy(),
        )
        handle.generation += 1
        try:
            handle.port = self._await_port(handle)
            self._await_healthy(handle)
        except Exception:
            if handle.process.poll() is None:
                handle.process.kill()
                handle.process.wait(timeout=5.0)
            raise

    def _await_port(self, handle: WorkerHandle) -> int:
        deadline = time.monotonic() + self.spawn_timeout
        while time.monotonic() < deadline:
            if handle.process.poll() is not None:
                raise ServeError(
                    f"worker {handle.index} exited with code "
                    f"{handle.process.returncode} before binding",
                    status=502,
                )
            try:
                text = handle.port_file.read_text().strip()
                if text:
                    port = int(text)
                    handle.port_file.unlink()
                    return port
            except (FileNotFoundError, ValueError):
                pass
            time.sleep(0.02)
        raise ServeError(
            f"worker {handle.index} did not report a port within "
            f"{self.spawn_timeout:g}s", status=502,
        )

    def _await_healthy(self, handle: WorkerHandle) -> None:
        """Health-gate: the worker joins the pool only once /healthz is 200."""
        deadline = time.monotonic() + self.spawn_timeout
        last_error = "no response"
        while time.monotonic() < deadline:
            if handle.process.poll() is not None:
                raise ServeError(
                    f"worker {handle.index} died during health gate "
                    f"(exit code {handle.process.returncode})", status=502,
                )
            try:
                status, _ = self._raw_request(handle, "GET", "/healthz", None,
                                              timeout=2.0, fresh=True)
                if status == 200:
                    return
                last_error = f"healthz returned {status}"
            except OSError as exc:
                last_error = str(exc)
            time.sleep(0.05)
        raise ServeError(
            f"worker {handle.index} never became healthy within "
            f"{self.spawn_timeout:g}s ({last_error})", status=502,
        )

    # ---------------------------------------------------------- supervision
    def _supervise(self) -> None:
        # Sleep *before* the first sweep: every worker was health-gated
        # moments ago in start(), and sweeping immediately races tests (and
        # operators) that kill a worker right after startup expecting a
        # large supervise_interval to mean "supervision effectively off".
        while not self._stop.is_set():
            self._stop.wait(self.supervise_interval)
            if self._stop.is_set():
                return
            for handle in self.workers:
                if self._stop.is_set():
                    return
                if handle.process is not None and handle.process.poll() is not None:
                    try:
                        self.recover(handle.index, handle.generation)
                    except Exception:  # pragma: no cover - keep supervising
                        pass

    def recover(self, index: int, dead_generation: int) -> bool:
        """Respawn a dead worker and re-place every session it owned.

        Idempotent per death: callers pass the generation they observed
        dead; whoever wins the lock respawns, everyone else returns
        immediately and retries against the fresh worker.  Each recorded
        load is re-issued with ``recover=true`` — the worker rebuilds the
        session from its source and replays the shared durable queue, so
        the session comes back at the exact version of its last
        acknowledged delta.
        """
        handle = self.workers[index]
        with handle.recover_lock:
            if handle.generation != dead_generation or self._stop.is_set():
                return False  # already recovered (or shutting down)
            if handle.process is not None and handle.process.poll() is None:
                # A proxy thread lands here the instant its request fails,
                # which can be before the kernel has reaped a SIGKILLed
                # worker — wait briefly for the death to materialize before
                # declaring the connection failure a false alarm.
                deadline = time.monotonic() + 2.0
                while (time.monotonic() < deadline
                       and handle.process.poll() is None):
                    time.sleep(0.02)
                if handle.process.poll() is None:
                    return False  # genuinely alive: transient network blip
            self._spawn(handle)
            handle.restarts += 1
            self._c_recoveries.inc()
            for name, payload in sorted(handle.loads.items()):
                body = dict(payload)
                body["recover"] = True
                body["replace"] = True
                status, response = self._raw_request(
                    handle, "POST", "/graphs",
                    json.dumps(body).encode("utf-8"), fresh=True,
                )
                if status != 201:  # pragma: no cover - replay should succeed
                    self.registry.counter(
                        "repro_router_replace_failures_total",
                        "Session re-placements that failed after recovery.",
                    ).inc()
            return True

    # --------------------------------------------------------------- proxy
    def place(self, name: str) -> int:
        """The worker index owning session ``name`` (pure arithmetic)."""
        return place(name, self.n_workers)

    def worker_for(self, name: str) -> WorkerHandle:
        return self.workers[self.place(name)]

    def _connection(self, handle: WorkerHandle, fresh: bool) -> http.client.HTTPConnection:
        """A keep-alive connection to ``handle``, cached per thread+address.

        The cache key includes the port, which changes on every respawn —
        stale connections to a dead generation simply stop being used.
        """
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        key = (handle.host, handle.port)
        conn = pool.get(key)
        if fresh and conn is not None:
            conn.close()
            conn = None
        if conn is None:
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=PROXY_TIMEOUT_SECONDS
            )
            pool[key] = conn
        return conn

    def _raw_request(
        self, handle: WorkerHandle, method: str, path: str,
        body: bytes | None, timeout: float | None = None, fresh: bool = False,
    ) -> tuple[int, bytes]:
        conn = self._connection(handle, fresh)
        if timeout is not None:
            conn.timeout = timeout
        headers = {"Content-Type": "application/json"}
        if body is not None:
            headers["Content-Length"] = str(len(body))
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            return response.status, payload
        except (OSError, http.client.HTTPException):
            # Poison the cached connection so the next attempt dials fresh.
            conn.close()
            pool = getattr(self._local, "pool", {})
            pool.pop((handle.host, handle.port), None)
            raise

    def forward(
        self, method: str, path: str, name: str, body: bytes | None,
    ) -> tuple[int, bytes]:
        """Proxy one ``/graphs/*`` request to the owner of ``name``.

        A connection failure means the worker died mid-request: trigger
        (or wait for) its recovery, then retry exactly once against the
        respawned worker.  Deltas are safe to retry because the proxy
        stamps an idempotency id before the first attempt; loads and
        queries are idempotent by construction.
        """
        handle = self.worker_for(name)
        self._c_proxied.inc()
        generation = handle.generation
        try:
            return self._raw_request(handle, method, path, body)
        except (OSError, http.client.HTTPException):
            self.recover(handle.index, generation)
            self._c_retries.inc()
            try:
                return self._raw_request(handle, method, path, body, fresh=True)
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(
                    f"worker {handle.index} unreachable after recovery: {exc}",
                    status=502,
                ) from exc

    def handle_load(self, payload: dict) -> tuple[int, bytes]:
        """Place and proxy a load; record the recipe for future recovery."""
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ServeError("load needs a non-empty 'name'")
        handle = self.worker_for(name)
        status, response = self.forward(
            "POST", "/graphs", name, json.dumps(payload).encode("utf-8")
        )
        if status == 201:
            recipe = dict(payload)
            recipe.pop("recover", None)
            handle.loads[name] = recipe
        return status, response

    def handle_unload(self, name: str) -> tuple[int, bytes]:
        handle = self.worker_for(name)
        status, response = self.forward("DELETE", f"/graphs/{name}", name, None)
        if status == 200:
            handle.loads.pop(name, None)
        return status, response

    def stamp_delta_id(self, body: bytes) -> bytes:
        """Ensure a proxied delta carries an idempotency id.

        The proxy retries after recovery (at-least-once delivery); the id
        lets the worker's durable queue dedupe the replayed copy, turning
        that into exactly-once application.  Client-supplied ids pass
        through untouched.
        """
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            return body  # let the worker produce the real error message
        if not isinstance(payload, dict) or "id" in payload:
            return body
        payload["id"] = f"router-{uuid.uuid4().hex}"
        return json.dumps(payload).encode("utf-8")

    # -------------------------------------------------------- fleet reads
    def fleet(self) -> dict:
        """The worker listing ``repro top --router`` discovers targets from."""
        return {
            "n_workers": self.n_workers,
            "host": self.host,
            "queue_dir": str(self.queue_dir),
            "workers": [handle.describe() for handle in self.workers],
        }

    def health(self) -> tuple[dict, bool]:
        """Fleet health: 200 only while every worker is up and healthy."""
        problems: list[str] = []
        workers = []
        for handle in self.workers:
            state = handle.describe()
            if not handle.alive:
                problems.append(f"worker {handle.index} is down")
                state["healthz"] = None
            else:
                try:
                    status, body = self._raw_request(
                        handle, "GET", "/healthz", None, timeout=2.0
                    )
                    state["healthz"] = json.loads(body.decode("utf-8"))
                    if status != 200:
                        for problem in state["healthz"].get("problems", []):
                            problems.append(
                                f"worker {handle.index}: {problem}"
                            )
                except (OSError, http.client.HTTPException,
                        json.JSONDecodeError) as exc:
                    problems.append(
                        f"worker {handle.index} health probe failed: {exc}"
                    )
                    state["healthz"] = None
            workers.append(state)
        payload = {
            "role": "router",
            "n_workers": self.n_workers,
            "workers": workers,
            "problems": problems,
            "ok": not problems,
        }
        return payload, not problems

    def metrics_text(self) -> str:
        """Federated ``/metrics``: every worker's registry + the router's.

        Each worker's series gain an ``instance`` label (its authority),
        the router's own gain ``instance="router"`` — counters sum across
        the fleet by construction, exactly like PR 8's multi-endpoint
        ``repro top``.
        """
        labeled = [
            label_snapshot(self.registry.snapshot(), instance="router")
        ]
        for handle in self.workers:
            if not handle.alive:
                continue
            try:
                _, body = self._raw_request(
                    handle, "GET", "/metrics", None, timeout=2.0
                )
                snapshot = parse_prometheus(body.decode("utf-8"))
            except (OSError, http.client.HTTPException, ValueError):
                continue  # a scrape miss must not fail the endpoint
            labeled.append(
                label_snapshot(snapshot, instance=f"{handle.host}:{handle.port}")
            )
        return obs.render_prometheus([federate_snapshots(labeled)])

    def quality(self) -> dict:
        """Fleet-aggregated model quality across every worker.

        Each session lives on exactly one worker, so the per-graph
        payloads concatenate disjointly; the fleet rollup pools the
        prequential counts (example-weighted accuracy) and takes the
        worst drift, matching the worker-level rollup semantics.
        """
        graphs: dict = {}
        workers = []
        scored = correct = 0
        drift_values: list[float] = []
        for handle in self.workers:
            state = {"index": handle.index, "alive": handle.alive}
            if handle.alive:
                try:
                    _, body = self._raw_request(
                        handle, "GET", "/quality", None, timeout=5.0
                    )
                    payload = json.loads(body.decode("utf-8"))
                except (OSError, http.client.HTTPException,
                        json.JSONDecodeError):
                    payload = None
                if payload is not None:
                    graphs.update(payload.get("graphs", {}))
                    scored += int(payload.get("scored") or 0)
                    correct += int(payload.get("correct") or 0)
                    drift = payload.get("max_drift")
                    if drift is not None:
                        drift_values.append(float(drift))
                    state["scored"] = payload.get("scored")
                    state["accuracy"] = payload.get("accuracy")
                    state["max_drift"] = payload.get("max_drift")
            workers.append(state)
        return {
            "role": "router",
            "n_workers": self.n_workers,
            "workers": workers,
            "graphs": graphs,
            "scored": scored,
            "correct": correct,
            "accuracy": (correct / scored) if scored else None,
            "max_drift": max(drift_values) if drift_values else None,
        }

    def stats(self) -> dict:
        """Router tallies plus each worker's own ``/stats`` payload."""
        workers = []
        for handle in self.workers:
            state = handle.describe()
            if handle.alive:
                try:
                    _, body = self._raw_request(
                        handle, "GET", "/stats", None, timeout=5.0
                    )
                    state["stats"] = json.loads(body.decode("utf-8"))
                except (OSError, http.client.HTTPException,
                        json.JSONDecodeError):
                    state["stats"] = None
            else:
                state["stats"] = None
            workers.append(state)
        return {
            "role": "router",
            "uptime_seconds": time.time() - self.started_at,
            "n_workers": self.n_workers,
            "proxied": int(self._c_proxied.value),
            "recoveries": int(self._c_recoveries.value),
            "retries": int(self._c_retries.value),
            "workers": workers,
        }


# ------------------------------------------------------------- HTTP front
class RouterHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the router for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], router: Router,
                 log_json: bool = False) -> None:
        super().__init__(address, RouterHandler)
        self.router = router
        self.log_json = log_json

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self.router.close()


class RouterHandler(BaseHTTPRequestHandler):
    """Same JSON surface as a worker, plus ``/fleet``."""

    server: RouterHTTPServer
    protocol_version = "HTTP/1.1"
    verbose = False

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------ I/O
    def _send_body(self, body: bytes, content_type: str, status: int) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        self._send_body(
            json.dumps(payload).encode("utf-8"), "application/json", status
        )

    def _send_error_json(self, message: str, status: int) -> None:
        self.close_connection = True
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            raise ServeError(f"invalid Content-Length header: {exc}") from exc
        if length < 0:
            raise ServeError("invalid Content-Length header")
        return self.rfile.read(length) if length else b""

    # -------------------------------------------------------------- routing
    def _route(self, method: str) -> None:
        try:
            handled = self._dispatch(method)
        except ServeError as exc:
            self._send_error_json(str(exc), exc.status)
            return
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            return
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self._send_error_json(f"internal error: {exc}", 500)
            return
        if not handled:
            self._send_error_json(f"no route for {method} {self.path}", 404)

    def _dispatch(self, method: str) -> bool:
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        router = self.server.router
        if method == "GET":
            if parts == ["healthz"]:
                payload, ok = router.health()
                self._send_json(payload, status=200 if ok else 503)
                return True
            if parts == ["fleet"]:
                self._send_json(router.fleet())
                return True
            if parts == ["stats"]:
                self._send_json(router.stats())
                return True
            if parts == ["quality"]:
                self._send_json(router.quality())
                return True
            if parts == ["metrics"]:
                self._send_body(
                    router.metrics_text().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8", 200,
                )
                return True
            if len(parts) >= 2 and parts[0] == "graphs":
                status, body = router.forward(
                    "GET", self.path, parts[1], None
                )
                self._send_body(body, "application/json", status)
                return True
            return False
        if method == "DELETE":
            if len(parts) == 2 and parts[0] == "graphs":
                status, body = router.handle_unload(parts[1])
                self._send_body(body, "application/json", status)
                return True
            return False
        if method != "POST":
            return False
        if parts == ["graphs"]:
            raw = self._read_body()
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ServeError(
                    f"request body is not valid JSON: {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise ServeError("request body must be a JSON object")
            status, body = router.handle_load(payload)
            self._send_body(body, "application/json", status)
            return True
        if len(parts) == 3 and parts[0] == "graphs":
            name, verb = parts[1], parts[2]
            body = self._read_body()
            if verb == "delta":
                body = router.stamp_delta_id(body)
            status, response = router.forward("POST", self.path, name, body)
            self._send_body(response, "application/json", status)
            return True
        return False

    # ----------------------------------------------------------- verb hooks
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")


def make_router_server(
    router: Router, host: str = "127.0.0.1", port: int = 8151,
    log_json: bool = False,
) -> RouterHTTPServer:
    """Bind the router endpoint (``port=0`` picks a free port for tests)."""
    return RouterHTTPServer((host, port), router, log_json=log_json)
