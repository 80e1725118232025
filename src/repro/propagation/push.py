"""Residual-push localized solver for linear fixed points ``F = B + A F C``.

The dense engine re-sweeps all ``nnz`` stored edges per iteration even when
a delta perturbed only a handful of rows.  This module solves the same
fixed point by *residual push* (Gauss–Southwell on the whole frontier):
keep ``R = B + A F C - F`` explicitly, and while any row's residual
max-norm exceeds ``epsilon``, absorb those rows' residuals into ``F`` and
scatter their one-hop consequences

    ``R[v] += w_uv * colscale[u] * rowscale[v] * (R_pushed[u] C)``

to the neighbors only — per round the work is ``O(sum deg(frontier) * k)``,
not ``O(nnz * k)``.  Because the update is linear, pushing the whole
frontier simultaneously is exact, and when the loop drains the invariant
``max_u ||R[u]||_inf <= epsilon`` gives the same stopping guarantee as the
dense sweep's max-norm change test with ``tolerance = epsilon`` — which is
why warm localized solves match dense fixed points to the solver tolerance.

``A = diag(rowscale) @ W @ diag(colscale)`` over the *symmetric* base CSR
``W``: symmetry makes column ``u`` of ``W`` available as CSR row ``u``, the
property the scatter step relies on.  The specs for linbp / lgc / harmonic
/ mrw are built by each propagator's ``linear_system`` hook.

Residual initialization has two modes:

* **dense seeding** (no hint): one fused ``O(nnz k)`` pass computes ``R``
  everywhere — self-correcting against any stray residual (e.g. a refreshed
  LinBP epsilon perturbing every row a little), and still 1–2 orders of
  magnitude cheaper than iterating dense sweeps;
* **local seeding** (:class:`LocalizedHint`): exact residuals only on the
  delta-affected rows the caller names — valid when the previous solve
  converged, making everything off the hint provably sub-``epsilon``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.propagation import kernels
from repro.propagation.kernels import reference

__all__ = ["LinearFixedPoint", "LocalizedHint", "solve_localized"]


def _record_push_metrics(stats: dict, rounds: int) -> None:
    """Publish frontier/touched-nnz figures for one localized solve."""
    if not obs.enabled():
        return
    registry = obs.metrics()
    backend = stats["kernel_backend"]
    registry.counter(
        "repro_push_solves_total", "Residual-push localized solves.",
        backend=backend,
    ).inc()
    registry.histogram(
        "repro_push_rounds", "Push rounds per localized solve.",
        buckets=obs.ITERATION_BUCKETS,
    ).observe(rounds)
    registry.histogram(
        "repro_push_frontier_size", "Initial frontier rows per localized solve.",
        buckets=obs.SIZE_BUCKETS,
    ).observe(stats["initial_frontier"])
    registry.histogram(
        "repro_push_max_frontier", "Peak frontier rows per localized solve.",
        buckets=obs.SIZE_BUCKETS,
    ).observe(stats["max_frontier"])
    registry.histogram(
        "repro_push_seed_rows", "Rows residual-seeded per localized solve.",
        buckets=obs.SIZE_BUCKETS,
    ).observe(stats["seed_rows"])
    registry.counter(
        "repro_push_touched_nnz_total",
        "Stored nonzeros visited by localized solves.",
    ).inc(stats["touched_nnz"])


@dataclass
class LinearFixedPoint:
    """One propagator's fixed point in the unified ``F = B + A F C`` form.

    ``adjacency`` is the raw symmetric CSR ``W`` (float64);
    ``rowscale``/``colscale`` are the diagonal factors of
    ``A = diag(rowscale) W diag(colscale)`` (length ``n``); ``coupling`` is
    the ``k x k`` belief-coupling matrix or ``None`` for identity;
    ``offset`` is the ``n x k`` constant term ``B``.  ``details`` carries
    propagator extras (e.g. LinBP's ``scaling``) that must survive into the
    result for later warm resumes.
    """

    adjacency: sp.csr_matrix
    rowscale: np.ndarray
    colscale: np.ndarray
    coupling: np.ndarray | None
    offset: np.ndarray
    details: dict = field(default_factory=dict)


@dataclass
class LocalizedHint:
    """Rows whose residual a delta may have disturbed.

    Everything *not* listed is trusted to already satisfy
    ``||R[row]||_inf <= epsilon`` — only safe when the previous solve
    converged and ``rows`` covers every term of ``B + A F C`` the delta
    changed (edge endpoints plus their neighbors, revealed nodes, added
    nodes; class-mates of revealed seeds for teleport-normalizing walks).
    """

    rows: np.ndarray


def solve_localized(
    spec: LinearFixedPoint,
    initial: np.ndarray,
    epsilon: float,
    max_rounds: int,
    hint: LocalizedHint | None = None,
) -> tuple[np.ndarray, int, bool, list[float], dict]:
    """Drive ``initial`` to the fixed point of ``spec`` by residual push.

    Returns ``(beliefs, rounds, converged, residual_history, stats)`` with
    ``stats`` reporting the backend plus frontier-size / touched-nnz
    figures (``touched_nnz`` counts stored nonzeros visited across residual
    seeding and all push rounds — the number a dense solve would put at
    ``iterations * nnz``).
    """
    adjacency = spec.adjacency
    n_nodes = adjacency.shape[0]
    indptr = adjacency.indptr
    indices = adjacency.indices
    data = np.ascontiguousarray(adjacency.data, dtype=np.float64)
    beliefs = np.ascontiguousarray(initial, dtype=np.float64)
    if beliefs.shape[0] != n_nodes:
        raise ValueError(
            f"initial beliefs have {beliefs.shape[0]} rows for a graph with "
            f"{n_nodes} nodes"
        )
    rowscale = np.ascontiguousarray(spec.rowscale, dtype=np.float64)
    colscale = np.ascontiguousarray(spec.colscale, dtype=np.float64)
    offset = np.ascontiguousarray(spec.offset, dtype=np.float64)
    coupling = (
        None if spec.coupling is None
        else np.ascontiguousarray(spec.coupling, dtype=np.float64)
    )

    epsilon = float(epsilon)
    max_rounds = max(1, int(max_rounds))

    if hint is not None:
        rows = np.unique(np.asarray(hint.rows, dtype=np.int64).ravel())
        rows = rows[(rows >= 0) & (rows < n_nodes)]
        residual = np.zeros_like(beliefs)
        seeded_nnz = reference.seed_residual_rows(
            indptr, indices, data, rowscale, colscale, coupling,
            offset, beliefs, rows, residual,
        )
        candidates = rows
        seed_rows = int(rows.shape[0])
    else:
        residual = reference.full_residual(
            indptr, indices, data, rowscale, colscale, coupling,
            offset, beliefs,
        )
        seeded_nnz = int(adjacency.nnz)
        candidates = np.arange(n_nodes, dtype=np.int64)
        seed_rows = n_nodes

    if candidates.shape[0] and beliefs.shape[1]:
        over = np.abs(residual[candidates]).max(axis=1) > epsilon
        frontier = candidates[over]
    else:
        frontier = np.empty(0, dtype=np.int64)

    history = np.zeros(max_rounds, dtype=np.float64)
    rounds, converged, pushed_nnz, max_frontier = reference.push_rounds(
        indptr, indices, data, rowscale, colscale, coupling,
        beliefs, residual, frontier, epsilon, max_rounds, history,
    )
    stats = {
        "localized": True,
        "kernel_backend": kernels.active_backend(),
        "seed_rows": seed_rows,
        "initial_frontier": int(frontier.shape[0]),
        "max_frontier": int(max_frontier),
        "touched_nnz": int(seeded_nnz) + int(pushed_nnz),
    }
    _record_push_metrics(stats, int(rounds))
    return beliefs, int(rounds), bool(converged), history[:rounds].tolist(), stats
