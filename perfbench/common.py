"""Shared helpers: statistics, the run record, process memory and teardown."""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Percentiles a timing may be reported at; the highest one used is the
# highest with at least ten samples beyond it.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def median(values) -> float:
    values = [float(v) for v in values]
    return float(np.median(values)) if values else float("nan")


def percentile(values, q: float) -> float:
    values = [float(v) for v in values]
    return float(np.percentile(values, q)) if values else float("nan")


def supported_percentile(n_samples: int) -> float:
    """Highest of :data:`PERCENTILES` with >= 10 samples beyond it (else 50)."""
    best = 50.0
    for q in PERCENTILES:
        if n_samples * (1.0 - q / 100.0) >= 10:
            best = q
    return best


@dataclass
class RunRecord:
    """What one workload run reports: metrics, counts, checks and notes."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    findings: list = field(default_factory=list)
    report: dict = field(default_factory=dict)

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failed check is a failed operation."""
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1
        return bool(ok)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# --------------------------------------------------------------- processes
def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _proc_table() -> dict[int, tuple[int, int]]:
    """``{pid: (ppid, pgid)}`` for every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("utf-8", "replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), int(fields[2]))
    return table


def descendants(root: int) -> list[int]:
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    found, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def group_members(pgid: int) -> list[int]:
    return [pid for pid, (_, group) in _proc_table().items() if group == pgid]


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of ``pid`` in kB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemorySampler:
    """Tracks the peak RSS of this process plus the processes it started.

    A background thread reads ``VmHWM`` of each live descendant every
    ``interval`` seconds; the peak is the largest sum over one sample, so
    processes that run one after another (pool workers of successive grids)
    count once, not once each.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-rss", daemon=True)

    def __enter__(self) -> "MemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def sample(self) -> None:
        kb = sum(peak_rss_kb(pid) for pid in _live(descendants(os.getpid())))
        self._peak_kb = max(self._peak_kb, kb)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def peak_mb(self) -> float:
        self.sample()
        return (peak_rss_kb(os.getpid()) + self._peak_kb) / 1024.0


def stop_group(pgid: int, timeout: float = 10.0) -> list[int]:
    """SIGTERM a process group, SIGKILL what outlives ``timeout``.

    Returns the pids that were still alive after SIGTERM's grace period
    (empty when the group shut down cleanly).
    """
    try:
        os.killpg(pgid, signal.SIGTERM)
    except ProcessLookupError:
        return []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _live(group_members(pgid)):
            return []
        time.sleep(0.05)
    survivors = _live(group_members(pgid))
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return survivors


def _live(pids: list[int]) -> list[int]:
    """Drop zombies (exited, not yet reaped) from ``pids``."""
    alive = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                stat = handle.read().decode("utf-8", "replace")
        except OSError:
            continue
        if stat[stat.rfind(")") + 2] != "Z":
            alive.append(pid)
    return alive


def serve_processes(marker: str) -> list[int]:
    """Pids of live ``repro.cli serve`` processes whose argv mentions ``marker``.

    Scans every process, not just this one's descendants: a worker whose
    router died is re-parented away from this process but keeps its argv.
    """
    found = []
    for pid in _live(list(_proc_table())):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if (b"repro.cli" in argv and b"serve" in argv
                and any(marker.encode() in arg for arg in argv)):
            found.append(pid)
    return found


# ------------------------------------------------------------------ kernels
def spmm_cost(nnz: int, n: int, k: int, value_bytes: int, index_bytes: int) -> tuple[int, int]:
    """Computed flops and bytes moved of one CSR ``W @ F`` with ``k`` columns.

    Bytes count each stored value and column index once, the row pointer
    once, ``F`` read once and the ``n x k`` output written once — a lower
    bound that ignores cache misses, so it is labelled "computed".
    """
    flops = 2 * nnz * k
    moved = nnz * (value_bytes + index_bytes) + (n + 1) * index_bytes + 2 * n * k * value_bytes
    return flops, moved

