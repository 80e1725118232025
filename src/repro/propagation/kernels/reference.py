"""Numpy/scipy kernels for the localized propagation layer.

The next frontier is the sorted unique set of touched rows, so a push is
deterministic.  The test suite checks every kernel against the dense
residual formula.

All kernels operate on one linear fixed point ``F = B + A F C`` where
``A = diag(rowscale) @ W @ diag(colscale)`` over the raw symmetric CSR
``(indptr, indices, data)`` and ``C`` is an optional ``k x k`` coupling
matrix (``None`` means identity).  Symmetry of ``W`` is what makes the push
step local: column ``u`` of ``W`` is exactly CSR row ``u``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

try:  # scipy's C kernel behind ``csc @ dense``; None falls back to the
    # operator form (identical accumulation — scipy dispatches to the same
    # routine — just without the reusable output buffer).
    from scipy.sparse import _sparsetools as _csc_tools
except ImportError:  # pragma: no cover - defensive
    _csc_tools = None

__all__ = ["full_residual", "seed_residual_rows", "push_rounds"]


def _rows_over(block: np.ndarray, epsilon: float) -> np.ndarray:
    """Boolean mask of rows whose max-norm exceeds ``epsilon``.

    Column-wise compare-and-or is ~10x faster than ``abs().max(axis=1)``
    for the narrow (few-class) blocks the push produces; the resulting row
    set is identical (pure comparisons, no floating point reordering).
    """
    magnitude = np.abs(block)
    over = magnitude[:, 0] > epsilon
    for column in range(1, block.shape[1]):
        np.logical_or(over, magnitude[:, column] > epsilon, out=over)
    return over


def _csr(indptr, indices, data) -> sp.csr_matrix:
    n = indptr.shape[0] - 1
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _neighbor_positions(indptr, rows):
    """Flat CSR data positions of all neighbors of ``rows``, row-major.

    Returns ``(positions, source, total)`` where ``positions[i]`` indexes
    ``indices``/``data`` and ``source[i]`` is the index into ``rows`` that
    owns position ``i``.  This is the vectorized equivalent of the nested
    ``for u in rows: for p in indptr[u]:indptr[u+1]`` loop, preserving its
    exact element order.
    """
    starts = indptr[rows].astype(np.int64)
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    bounds = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.repeat(starts - bounds, counts) + np.arange(total)
    source = np.repeat(np.arange(rows.shape[0]), counts)
    return positions, source, total


def full_residual(indptr, indices, data, rowscale, colscale, coupling,
                  offset, beliefs) -> np.ndarray:
    """Dense residual ``R = B + A F C - F`` in one fused O(nnz k) pass."""
    matrix = _csr(indptr, indices, data)
    propagated = np.asarray(matrix @ (beliefs * colscale[:, None]))
    propagated *= rowscale[:, None]
    if coupling is not None:
        propagated = propagated @ coupling
    propagated += offset
    propagated -= beliefs
    return propagated


def seed_residual_rows(indptr, indices, data, rowscale, colscale, coupling,
                       offset, beliefs, rows, residual) -> int:
    """Exact residual on ``rows`` only; writes ``residual[rows]`` in place.

    Returns the number of stored nonzeros gathered (the touched-nnz cost of
    the seeding).  Rows outside ``rows`` are left untouched — the caller
    guarantees their residual is already below the push threshold.
    """
    if rows.shape[0] == 0:
        return 0
    positions, source, total = _neighbor_positions(indptr, rows)
    gathered = np.zeros((rows.shape[0], beliefs.shape[1]), dtype=np.float64)
    if total:
        cols = indices[positions]
        weighted = data[positions] * colscale[cols]
        np.add.at(gathered, source, weighted[:, None] * beliefs[cols])
    gathered *= rowscale[rows][:, None]
    if coupling is not None:
        gathered = gathered @ coupling
    residual[rows] = offset[rows] + gathered - beliefs[rows]
    return total


# A round whose frontier neighborhood exceeds this share of the stored
# nonzeros runs as one full row-major sweep instead of a sparse scatter:
# past that point slicing + transposed matmat costs more than the plain
# matvec it is trying to avoid.
DENSE_ROUND_NNZ_MULTIPLE = 4


def push_rounds(indptr, indices, data, rowscale, colscale, coupling,
                beliefs, residual, frontier, epsilon, max_rounds,
                history) -> tuple[int, bool, int, int]:
    """Run epsilon-gated residual-push rounds; mutates beliefs/residual.

    Each round pushes the whole frontier at once (exact by linearity of the
    fixed point): beliefs absorb the frontier residuals, which then scatter
    ``w_uv * colscale[u] * rowscale[v] * (delta_u C)`` to every neighbor
    ``v`` — column ``u`` of the symmetric ``W`` being CSR row ``u``.  The
    next frontier is every touched row whose residual max-norm still
    exceeds ``epsilon``.

    Narrow frontiers scatter through a sparse matmat
    (``W[frontier].T @ scaled-push``); wide ones (neighborhood above
    ``nnz / DENSE_ROUND_NNZ_MULTIPLE``) run one fused dense sweep over the
    whole residual instead, so a saturated frontier never costs more than
    a dense iteration.

    ``history[r]`` records round ``r``'s max pushed residual (the analogue
    of the dense sweep's per-iteration max-norm change).  Returns
    ``(rounds, converged, touched_nnz, max_frontier)``.
    """
    matrix = _csr(indptr, indices, data)
    n = indptr.shape[0] - 1
    nnz = int(indptr[n])
    marked = np.zeros(n, dtype=bool)
    # Multiplying by an exactly-1.0 scale is a bitwise identity for every
    # float (including -0.0 and NaN), so the unit-scale hot path — linbp
    # and other identity-scaled systems — skips those multiplies without
    # changing a bit of the result.
    unit_cols = bool(np.all(colscale == 1.0))
    unit_rows = bool(np.all(rowscale == 1.0))
    touched_nnz = 0
    max_frontier = 0
    rounds = 0
    update_buffer = None
    frontier = frontier.astype(np.int64, copy=False)
    while rounds < max_rounds and frontier.shape[0] > 0:
        if frontier.shape[0] > max_frontier:
            max_frontier = int(frontier.shape[0])
        pushed = residual[frontier]  # fancy indexing already copies
        history[rounds] = float(np.abs(pushed).max())
        beliefs[frontier] += pushed
        residual[frontier] = 0.0
        if coupling is not None:
            pushed = pushed @ coupling
        sub_nnz = int((indptr[frontier + 1] - indptr[frontier]).sum())
        rounds += 1
        if sub_nnz == 0:
            frontier = np.empty(0, dtype=np.int64)
            continue
        if not unit_cols:
            pushed = pushed * colscale[frontier][:, None]
        if DENSE_ROUND_NNZ_MULTIPLE * sub_nnz > nnz:
            # Wide frontier: one ordinary row-major sweep of the scatter
            # image is cheaper than slicing.  Every row's residual gets the
            # (possibly zero) update, and the next frontier rescans all
            # rows — rows never touched still hold their ≤ epsilon values.
            scatter = np.zeros_like(residual)
            scatter[frontier] = pushed
            update = np.asarray(matrix @ scatter)
            if not unit_rows:
                update *= rowscale[:, None]
            residual += update
            touched_nnz += nnz
            frontier = np.flatnonzero(_rows_over(residual, epsilon))
            continue
        # Narrow frontier: the scatter is a sparse matmat — column u of the
        # symmetric W is CSR row u, so W[frontier].T @ (colscale-scaled
        # push) lands each delta's mass on its neighbors.
        sub = matrix[frontier]
        touched_nnz += sub_nnz
        marked[sub.indices] = True
        candidates = np.flatnonzero(marked)
        marked[candidates] = False
        if _csc_tools is not None:
            # csc_matvecs *accumulates* into its output, so a buffer whose
            # touched rows (exactly ``candidates``) are re-zeroed after the
            # gather replaces a full (n, k) alloc+memset every round.
            if update_buffer is None:
                update_buffer = np.zeros_like(residual)
            pushed = np.ascontiguousarray(pushed)
            _csc_tools.csc_matvecs(
                n, frontier.shape[0], pushed.shape[1],
                sub.indptr, sub.indices, sub.data,
                pushed.ravel(), update_buffer.ravel(),
            )
            gathered = update_buffer[candidates]
            update_buffer[candidates] = 0.0
        else:  # pragma: no cover - exercised only on exotic scipy builds
            gathered = np.asarray(sub.T @ pushed)[candidates]
        if not unit_rows:
            gathered *= rowscale[candidates][:, None]
        updated = residual[candidates] + gathered
        residual[candidates] = updated
        frontier = candidates[_rows_over(updated, epsilon)]
    return rounds, bool(frontier.shape[0] == 0), touched_nnz, max_frontier

