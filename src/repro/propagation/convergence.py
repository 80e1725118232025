"""Spectral radius estimation and the LinBP convergence scaling (Eq. 2).

LinBP converges iff ``rho(H~) < 1 / rho(W)``; the paper therefore rescales
the centered compatibility matrix by ``epsilon = s / (rho(W) * rho(H~))``
with a safety factor ``s`` (0.5 in the experiments).  ``rho(W)`` enters only
through a coarse ladder (:func:`quantize_radius`), so the cold sparse solve
stops once it *proves* the rung; the small ``rho(H~)`` is a dense solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, cg

from repro import obs
from repro.utils.matrix import to_csr
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = [
    "spectral_radius",
    "linbp_scaling",
    "SpectralState",
    "lanczos_spectral_state",
    "quantize_radius",
    "radius_ladder_gap",
    "RADIUS_LADDER_BITS",
]


# The spectral radius feeding the LinBP scaling moves onto a coarse binary
# ladder (relative grid ``2**-RADIUS_LADDER_BITS``, ~0.8%) before the
# scaling is formed.  Rationale: epsilon is a convergence *heuristic* — any
# value under the safety bound is valid — but because it multiplies the
# coupling on every row, a streaming session that re-estimates rho(W) after
# each delta would move the fixed point globally by the estimate's drift,
# forcing warm solvers to re-touch every node for a parameter change of
# ~1e-4.  Snapping rho(W) to the ladder makes the scaling *bit-identical*
# between a warm session and a cold re-solve whenever their radius
# estimates agree to well under one rung, so small deltas leave the fixed
# point unchanged outside the delta's own neighborhood.  Ceiling (never
# flooring) keeps the quantized radius an upper bound, preserving the
# convergence guarantee; every operation is exact in binary floating point,
# so the rung choice is deterministic across machines and backends.
RADIUS_LADDER_BITS = 7

# Cold solves stop uncertified after this many Lanczos steps; past
# BASIS_LIMIT basis vectors the recurrence restarts from its Ritz vector.
CERTIFY_MAX_STEPS = 400
BASIS_LIMIT = 32
_EPS = float(np.finfo(np.float64).eps)


def quantize_radius(radius: float) -> float:
    """Ceil ``radius`` onto the binary scaling ladder (see above)."""
    radius = float(radius)
    if radius <= 0.0 or not math.isfinite(radius):
        return radius
    exponent = math.frexp(radius)[1] - 1  # radius = m * 2**exponent, m in [1,2)
    rung = math.ldexp(1.0, exponent - RADIUS_LADDER_BITS)
    return math.ceil(radius / rung) * rung


def radius_ladder_gap(radius: float) -> float:
    """Relative distance from ``radius`` to its nearest ladder rung.

    A warm radius estimate whose error could straddle a rung boundary must
    be refined before it feeds the scaling — otherwise the warm session and
    a cold solve could snap to different rungs and disagree by a whole grid
    step.  Callers compare this gap against their estimate's error bound.
    """
    radius = float(radius)
    if radius <= 0.0 or not math.isfinite(radius):
        return float("inf")
    exponent = math.frexp(radius)[1] - 1
    rung = math.ldexp(1.0, exponent - RADIUS_LADDER_BITS)
    steps = radius / rung
    fraction = steps - math.floor(steps)
    return min(fraction, 1.0 - fraction) * rung / radius


def spectral_radius(matrix, seed=0) -> float:
    """Spectral radius of a square matrix.

    Sparse input (a nonnegative symmetric adjacency): the certified cold
    solve of :func:`lanczos_spectral_state`.  Dense input: ``eigvals``.
    """
    if sp.issparse(matrix):
        return lanczos_spectral_state(to_csr(matrix), seed=seed).radius
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(dense))))


@dataclass
class SpectralState:
    """Dominant eigenpair estimate of a symmetric matrix.

    ``vector`` is the unit Ritz vector (as ``v0`` after a small edge delta,
    a warm restart); ``n_steps`` counts matrix-vector products;
    ``residual_bound`` is a cold solve's proven bracket width (``rho`` in
    ``[radius, radius + bound]``, or ``[radius - bound, radius]`` uncertified)
    or a warm run's Temple-sharpened Ritz residual (0 at an invariant subspace).
    """

    radius: float
    vector: np.ndarray
    n_steps: int
    residual_bound: float = 0.0


def _lanczos(matrix, start: np.ndarray):
    """Three-term Lanczos recurrence on a symmetric matrix, one product a step.

    Yields ``(ritz_values, residual, exhausted, ritz_vector)``: ``residual =
    beta_{k+1} |y_k| = ||A x - theta x||`` and ``ritz_vector()`` belong to the
    largest Ritz pair, the only one used (no reorthogonalization).  Past
    ``BASIS_LIMIT`` vectors the recurrence restarts from the Ritz vector.
    """
    current = start / np.linalg.norm(start)
    while True:
        previous, basis, alphas, betas = None, [current], [], []
        while len(basis) <= BASIS_LIMIT:
            product = np.asarray(matrix @ current, dtype=np.float64).ravel()
            alphas.append(float(current @ product))
            product -= alphas[-1] * current
            if previous is not None:
                product -= betas[-1] * previous
            values, vectors = eigh_tridiagonal(alphas, betas)
            beta = float(np.linalg.norm(product))
            ritz = partial(_ritz_vector, vectors[:, -1], basis)
            exhausted = beta <= 1e-14 * float(np.abs(values).max())  # exact pair
            yield values, beta * abs(float(vectors[-1, -1])), exhausted, ritz
            if exhausted:
                return
            betas.append(beta)
            previous, current = current, product / beta
            basis.append(current)
        current = ritz()


def _ritz_vector(weights: np.ndarray, basis: list) -> np.ndarray:
    vector = np.zeros(basis[0].shape[0])
    for weight, direction in zip(weights, basis):
        vector += weight * direction
    return vector / (np.linalg.norm(vector) or 1.0)


def _bracket(matrix, vector: np.ndarray) -> tuple[float, float]:
    """Proven ``lower <= rho(matrix) <= upper`` from one explicit vector.

    ``x = A (|vector| + floor)`` is positive on every node with an edge; the
    product smooths degree-1 leaves, where a Ritz vector is least accurate.
    Symmetric ``A``: the Rayleigh quotient of ``x`` is ``<= rho``; nonnegative
    ``A``: ``rho <= max_i (A x)_i / x_i`` (Collatz–Wielandt; 0 on edgeless
    rows).  Both are widened by the worst-case rounding of their sums.
    """
    magnitudes = np.abs(vector)
    magnitudes += 2.0 ** -40 * (magnitudes.max() or 1.0)
    smoothed = matrix @ magnitudes
    image = matrix @ smoothed
    norm = float(smoothed @ smoothed)
    if norm == 0.0:
        return 0.0, 0.0  # A = 0
    widest = int(np.diff(matrix.indptr).max())
    lower = float(smoothed @ image) / norm * (1.0 - (widest + 2 * len(vector) + 3) * _EPS)
    np.divide(image, smoothed, out=image, where=smoothed > 0)  # image is 0 elsewhere
    return lower, float(image.max()) * (1.0 + (widest + 3) * _EPS)


def _shifted_bracket(matrix, target: float, max_steps: int) -> tuple[float, float, int]:
    """:func:`_bracket` of ``x = (target I - A)^-1 1``, by conjugate gradients.

    The fallback where the Ritz vector carries no information: components
    it does not converge on (a hub there can hold the ratio above the rung)
    and nodes whose Perron entry falls below rounding (long paths).  If
    ``rho < target``, ``(target I - A)^-1 = sum_k A^k / target^(k+1) >= 0``:
    once CG's residual has ``||r|| <= 1/2``, ``A x = target x - (1 - r)``.
    """
    shifted = LinearOperator(matrix.shape, lambda v: target * v - matrix @ v, dtype=np.float64)
    iterations = itertools.count()  # one product each (x0 = 0 costs none)
    with np.errstate(all="ignore"):  # rho == target: singular, CG breaks down
        solution, _ = cg(shifted, np.ones(matrix.shape[0]), atol=0.5, maxiter=max_steps,
                         callback=lambda _: next(iterations))
    if not np.isfinite(solution).all():
        return 0.0, math.inf, next(iterations)
    return (*_bracket(matrix, solution), next(iterations) + 2)


def _certified_solve(matrix, start: np.ndarray, max_steps: int):
    """``(lower, upper, ritz_vector, products)`` once the rung is proven.

    A bracket costs two products: tried once the Ritz residual is 1/16 of
    the Ritz value's distance to its rung's top (power-law graphs certify at
    ~1/20-1/32), then each time it halves; open at 1/1024, or stalled, once
    with :func:`_shifted_bracket`.
    """
    if matrix.nnz and float(matrix.data.min()) < 0:
        raise ValueError("the spectral radius solve needs a nonnegative matrix")
    products, checked, shifted = 0, math.inf, False
    for steps, (values, residual, exhausted, ritz) in enumerate(_lanczos(matrix, start), 1):
        theta = float(values[-1])
        headroom = quantize_radius(theta) - theta
        stalled = exhausted or steps >= max_steps or residual <= 64 * _EPS * abs(theta)
        if not (stalled or residual <= min(headroom / 16, checked / 2)):
            continue
        checked, vector = residual, ritz()
        lower, upper = _bracket(matrix, vector)
        products += 2
        if not shifted and quantize_radius(lower) != quantize_radius(upper) and (
            stalled or residual <= headroom / 1024
        ):
            shifted = True
            shifted_lower, shifted_upper, used = _shifted_bracket(
                matrix, quantize_radius(lower), max_steps
            )
            lower, upper = max(lower, shifted_lower), min(upper, shifted_upper)
            products += used
        if stalled or quantize_radius(lower) == quantize_radius(upper):
            break
    return lower, upper, vector, steps + products


def lanczos_spectral_state(
    matrix,
    v0: np.ndarray | None = None,
    max_steps: int = CERTIFY_MAX_STEPS,
    tolerance: float | None = None,
    seed=0,
) -> SpectralState:
    """Dominant eigenpair of a symmetric matrix via the Lanczos iteration.

    ``tolerance=None`` (the cold solve): stop once ``quantize_radius(lower)
    == quantize_radius(upper)`` for the bracket of :func:`_bracket` and
    return ``lower``; the matrix must be nonnegative (else ``ValueError``)
    and symmetric (assumed).  Still open after ``max_steps`` steps, ``rho``
    sits within rounding of a rung boundary: return ``upper``, so the rung
    errs high.  A float ``tolerance`` (warm refreshes): stop once the Ritz
    value is stable to it (relative).  Without ``v0`` the start is a seeded
    positive vector, positive along every component's Perron vector.
    """
    check_positive(max_steps, "max_steps")
    n = matrix.shape[0]
    if n == 0:
        return SpectralState(0.0, np.zeros(0), 0)
    start = np.zeros(n) if v0 is None else np.asarray(v0, dtype=np.float64).ravel()
    if start.shape[0] != n:
        raise ValueError(f"v0 has length {start.shape[0]} for a {n}x{n} matrix")
    if not start.any():
        start = 1.0 + ensure_rng(seed).random(n)
    certified = True
    if tolerance is None:
        with obs.span("spectral.certify", nodes=n) as solve_span:
            lower, upper, vector, steps = _certified_solve(to_csr(matrix), start, max_steps)
            certified = quantize_radius(lower) == quantize_radius(upper)
            solve_span.annotate(products=steps, certified=certified)
        state = SpectralState(lower if certified else upper, vector, steps, upper - lower)
    else:
        previous = None
        for steps, (values, residual, exhausted, ritz) in enumerate(_lanczos(matrix, start), 1):
            theta = float(values[-1])
            stable = previous is not None and abs(theta - previous) <= tolerance * theta
            if exhausted or stable or steps >= max_steps:
                break
            previous = theta
        # Temple: |lambda - theta| <= residual^2 / gap, the Ritz spread as gap.
        bound = 0.0 if exhausted else residual
        if bound and values.shape[0] > 1 and theta - values[-2] > residual:
            bound = residual * residual / float(theta - values[-2])
        state = SpectralState(theta, ritz(), steps, bound)
    if obs.enabled():
        # start="cold": certified solves; start="warm": tolerance runs.
        registry = obs.metrics()
        registry.histogram(
            "repro_lanczos_steps", "Matrix-vector products per Lanczos run.",
            buckets=obs.ITERATION_BUCKETS, start="cold" if tolerance is None else "warm",
        ).observe(state.n_steps)
        if not certified:
            registry.counter(
                "repro_spectral_uncertified_total", "Cold rho(W) solves left uncertified."
            ).inc()
    return state


def linbp_scaling(
    adjacency, centered_compatibility: np.ndarray, safety: float = 0.5, seed=0
) -> float:
    """The scaling factor ``epsilon`` that guarantees LinBP convergence.

    ``epsilon = safety / (ceil_ladder(rho(W)) * rho(H~))`` meets Eq. 2's
    convergence condition with margin ``safety`` (the paper uses 0.5).  The
    one implementation is :meth:`~repro.graph.operators.GraphOperators.linbp_scaling`.
    """
    from repro.graph.operators import operators_for

    check_positive(safety, "safety")
    return operators_for(adjacency).linbp_scaling(
        centered_compatibility, safety=safety, seed=seed
    )
