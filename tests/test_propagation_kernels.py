"""Tests for the sparse-kernel layer behind localized propagation.

The load-bearing properties:

* each kernel's residual equals the dense formula
  ``B + diag(rowscale) W diag(colscale) F C - F``, and a push leaves
  behind exactly the residual of the beliefs it produced;
* the residual-push solver reaches the dense fixed point of random linear
  systems, with hint-seeded solves matching full-seeded ones.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.propagation import kernels
from repro.propagation.kernels import reference
from repro.propagation.push import LinearFixedPoint, LocalizedHint, solve_localized


def random_system(seed: int, n: int = 120, k: int = 3, coupling: bool = True):
    """A random symmetric CSR plus contraction-safe scales and offsets."""
    rng = np.random.default_rng(seed)
    density = 6.0 / n
    upper = sp.random(n, n, density=density, random_state=rng, format="coo")
    upper = sp.triu(upper, k=1).tocoo()
    # Weights go on the upper triangle *before* symmetrization — the push
    # scatter relies on W[u, v] == W[v, u] exactly.
    upper.data[:] = rng.uniform(0.5, 1.5, upper.nnz)
    W = (upper + upper.T).tocsr()
    degrees = np.asarray(np.abs(W).sum(axis=1)).ravel()
    # Scale rows/cols so rho(A) < 1: divide by (max degree + 1).
    bound = degrees.max() + 1.0
    rowscale = rng.uniform(0.3, 0.9, n) / np.sqrt(bound)
    colscale = rng.uniform(0.3, 0.9, n) / np.sqrt(bound)
    C = None
    if coupling:
        C = rng.uniform(-0.4, 0.4, (k, k))
        C = (C + C.T) / 2
    B = rng.normal(0, 1, (n, k))
    beliefs = rng.normal(0, 1, (n, k))
    return W, rowscale, colscale, C, B, beliefs


def csr_parts(W):
    return W.indptr, W.indices, np.ascontiguousarray(W.data, dtype=np.float64)


COUPLING_CASES = [True, False]


def dense_residual(W, rs, cs, C, B, F):
    """The residual formula ``B + diag(rs) W diag(cs) F C - F``, densely."""
    propagated = (rs[:, None] * W.toarray() * cs[None, :]) @ F
    if C is not None:
        propagated = propagated @ C
    return B + propagated - F


class TestKernelsMatchDenseFormula:
    """Every kernel against the dense residual formula on random systems."""

    @pytest.mark.parametrize("coupling", COUPLING_CASES)
    def test_full_residual(self, coupling):
        W, rs, cs, C, B, F = random_system(0, coupling=coupling)
        indptr, indices, data = csr_parts(W)
        got = reference.full_residual(indptr, indices, data, rs, cs, C, B, F.copy())
        np.testing.assert_allclose(
            got, dense_residual(W, rs, cs, C, B, F), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("coupling", COUPLING_CASES)
    def test_seed_residual_rows(self, coupling):
        W, rs, cs, C, B, F = random_system(1, coupling=coupling)
        indptr, indices, data = csr_parts(W)
        rows = np.unique(np.random.default_rng(5).integers(0, W.shape[0], 17))
        residual = np.zeros_like(F)
        gathered = reference.seed_residual_rows(
            indptr, indices, data, rs, cs, C, B, F, rows, residual
        )
        assert gathered == int((indptr[rows + 1] - indptr[rows]).sum())
        np.testing.assert_allclose(
            residual[rows], dense_residual(W, rs, cs, C, B, F)[rows],
            rtol=0, atol=1e-12,
        )
        untouched = np.setdiff1d(np.arange(W.shape[0]), rows)
        assert not residual[untouched].any()

    @pytest.mark.parametrize("coupling", COUPLING_CASES)
    def test_push_rounds(self, coupling):
        W, rs, cs, C, B, F = random_system(2, coupling=coupling)
        indptr, indices, data = csr_parts(W)
        epsilon = 1e-10
        beliefs = F.copy()
        residual = reference.full_residual(
            indptr, indices, data, rs, cs, C, B, beliefs
        )
        frontier = np.flatnonzero(np.abs(residual).max(axis=1) > epsilon)
        history = np.zeros(500, dtype=np.float64)
        rounds, converged, touched_nnz, max_frontier = reference.push_rounds(
            indptr, indices, data, rs, cs, C,
            beliefs, residual, frontier.astype(np.int64), epsilon, 500, history,
        )
        assert converged and 0 < rounds < 500
        assert max_frontier == frontier.shape[0]
        assert touched_nnz >= W.nnz
        assert np.all(history[:rounds] > epsilon)
        # The residual the push maintained incrementally is the exact
        # residual of the beliefs it produced, and it is drained.
        np.testing.assert_allclose(
            residual, dense_residual(W, rs, cs, C, B, beliefs), rtol=0, atol=1e-12
        )
        assert np.abs(residual).max() <= epsilon


def test_active_backend_is_numpy():
    assert kernels.active_backend() == "numpy"


class TestSolveLocalized:
    @staticmethod
    def dense_fixed_point(W, rs, cs, C, B):
        from scipy.sparse.linalg import spsolve

        n, k = B.shape
        A = (sp.diags(rs) @ W @ sp.diags(cs)).tocsc()
        if C is None:
            return np.column_stack([
                spsolve(sp.eye(n, format="csc") - A, B[:, j]) for j in range(k)
            ])
        # Column-major vec: vec(A F C) = (C^T ⊗ A) vec(F).
        operator = sp.eye(n * k, format="csc") - sp.kron(C.T, A, format="csc")
        return spsolve(operator, B.ravel(order="F")).reshape((n, k), order="F")

    @pytest.mark.parametrize("coupling", COUPLING_CASES)
    def test_converges_to_exact_solution(self, coupling):
        W, rs, cs, C, B, F0 = random_system(7, coupling=coupling)
        spec = LinearFixedPoint(
            adjacency=W, rowscale=rs, colscale=cs, coupling=C, offset=B
        )
        beliefs, rounds, converged, history, stats = solve_localized(
            spec, F0, epsilon=1e-12, max_rounds=2000
        )
        exact = self.dense_fixed_point(W, rs, cs, C, B)
        assert converged
        assert np.abs(beliefs - exact).max() <= 1e-9
        assert stats["kernel_backend"] == "numpy"
        assert stats["touched_nnz"] >= W.nnz  # dense seeding counts the pass
        assert len(history) == rounds

    def test_hint_seeded_matches_full_seeded(self):
        W, rs, cs, C, B, _ = random_system(8)
        spec = LinearFixedPoint(
            adjacency=W, rowscale=rs, colscale=cs, coupling=C, offset=B
        )
        # Solve to convergence first.
        start = np.zeros_like(B)
        solved, _, converged, _, _ = solve_localized(
            spec, start, epsilon=1e-13, max_rounds=4000
        )
        assert converged
        # Perturb the offset on a few rows; re-solve with a hint naming them.
        rows = np.array([3, 17, 40], dtype=np.int64)
        B2 = B.copy()
        B2[rows] += 0.25
        spec2 = LinearFixedPoint(
            adjacency=W, rowscale=rs, colscale=cs, coupling=C, offset=B2
        )
        hinted, _, hinted_converged, _, stats = solve_localized(
            spec2, solved.copy(), epsilon=1e-13, max_rounds=4000,
            hint=LocalizedHint(rows=rows),
        )
        dense, _, _, _, _ = solve_localized(
            spec2, solved.copy(), epsilon=1e-13, max_rounds=4000
        )
        assert hinted_converged
        assert stats["seed_rows"] == 3
        assert np.abs(hinted - dense).max() <= 1e-10

    def test_converged_input_returns_immediately(self):
        W, rs, cs, C, B, _ = random_system(9)
        spec = LinearFixedPoint(
            adjacency=W, rowscale=rs, colscale=cs, coupling=C, offset=B
        )
        solved, _, _, _, _ = solve_localized(
            spec, np.zeros_like(B), epsilon=1e-12, max_rounds=4000
        )
        again, rounds, converged, _, stats = solve_localized(
            spec, solved.copy(), epsilon=1e-10, max_rounds=50,
            hint=LocalizedHint(rows=np.arange(10, dtype=np.int64)),
        )
        assert converged and rounds == 0
        assert stats["initial_frontier"] == 0
        np.testing.assert_array_equal(again, solved)

    def test_shape_mismatch_rejected(self):
        W, rs, cs, C, B, _ = random_system(10)
        spec = LinearFixedPoint(
            adjacency=W, rowscale=rs, colscale=cs, coupling=C, offset=B
        )
        with pytest.raises(ValueError, match="rows"):
            solve_localized(spec, np.zeros((3, B.shape[1])), 1e-8, 10)
