"""Linearized Belief Propagation (LinBP), the propagation engine (Section 2.3).

The update equation (without echo cancellation, as the paper recommends) is

    ``F <- X + W F H_s``

where ``H_s`` is the (optionally centered) compatibility matrix scaled by
``epsilon`` so the iteration converges (Eq. 2).  Theorem 3.1 shows the final
*labels* do not depend on whether ``X`` and ``H`` are centered — the test
suite exercises exactly that equivalence — but centering plus scaling keeps
the iterates bounded, so it remains the numerically sensible default.

The optional echo-cancellation term reproduces the original LinBP update of
Gatterbauer et al. (2015) for ablation purposes; it is registered separately
as the ``linbp_echo`` propagator.

:class:`LinBPPropagator` is the engine-native implementation; :func:`linbp`
and :func:`propagate_and_label` are thin backwards-compatible wrappers.  When
called with a :class:`~repro.graph.graph.Graph`, the convergence scaling
``epsilon`` (which needs the graph's spectral radius) comes from the cached
operator layer, so repeated runs on the same graph never re-solve the
spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.graph.operators import GraphOperators
from repro.propagation.engine import (
    Propagator,
    fixed_point_iterate,
    register_propagator,
)
from repro.propagation.push import LinearFixedPoint
from repro.utils.matrix import center_columns, center_matrix
from repro.utils.validation import check_positive

__all__ = [
    "LinBPResult",
    "LinBPPropagator",
    "EchoLinBPPropagator",
    "linbp",
    "propagate_and_label",
]


@dataclass
class LinBPResult:
    """Outcome of a LinBP run (legacy result type of :func:`linbp`).

    Attributes
    ----------
    beliefs:
        Final ``n x k`` belief matrix ``F``.
    labels:
        Arg-max labels per node (``-1`` where no information arrived).
    n_iterations:
        Number of update sweeps performed.
    scaling:
        The epsilon applied to the compatibility matrix.
    converged:
        True when the last sweep changed beliefs by less than the tolerance.
    """

    beliefs: np.ndarray
    labels: np.ndarray
    n_iterations: int
    scaling: float
    converged: bool


@register_propagator()
class LinBPPropagator(Propagator):
    """LinBP on the unified engine: ``F <- X + W F H_s``.

    Parameters
    ----------
    max_iterations:
        Number of synchronous update sweeps (paper uses 10).
    tolerance:
        Early-exit threshold on the max-norm belief change.
    dtype:
        Iterate dtype; ``numpy.float32`` halves memory traffic.
    safety:
        Convergence safety factor ``s`` used to derive ``epsilon`` (Eq. 2).
    center:
        Center ``X`` and ``H`` around ``1/k`` before propagating (the
        standard LinBP formulation).  Theorem 3.1 guarantees the labels
        match the uncentered variant.
    echo_cancellation:
        Include the echo-cancellation correction term (ablation only).
    scaling:
        Explicit epsilon; overrides the automatic choice when provided.
    """

    name = "linbp"
    needs_compatibility = True
    supports_warm_start = True
    supports_localized = True

    def __init__(
        self,
        max_iterations: int = 10,
        tolerance: float = 1e-6,
        dtype=np.float64,
        safety: float = 0.5,
        center: bool = True,
        echo_cancellation: bool = False,
        scaling: float | None = None,
    ) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance, dtype=dtype)
        check_positive(safety, "safety")
        self.safety = float(safety)
        self.center = bool(center)
        self.echo_cancellation = bool(echo_cancellation)
        self.scaling = scaling
        # Epsilon depends on rho(W) unless pinned explicitly, in which case
        # the streaming session need not track the spectral radius at all.
        self.uses_spectral_scaling = scaling is None

    def _system_terms(
        self, operators: GraphOperators, prior_beliefs, compatibility
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Shared prep: (possibly centered) priors, modulation and epsilon."""
        explicit = self._dense(prior_beliefs)
        if self.center:
            priors = center_columns(explicit)
            modulation = center_matrix(compatibility)
        else:
            priors = explicit
            modulation = np.asarray(compatibility, dtype=np.float64)

        scaling = self.scaling
        if scaling is None:
            centered = modulation if self.center else center_matrix(compatibility)
            scaling = operators.linbp_scaling(centered, safety=self.safety)
        return priors, modulation, float(scaling)

    def linear_system(
        self, operators, prior_beliefs, seed_labels, n_classes, compatibility
    ):
        priors, modulation, scaling = self._system_terms(
            operators, prior_beliefs, compatibility
        )
        ones = np.ones(operators.n_nodes)
        return LinearFixedPoint(
            adjacency=operators.cast_adjacency(np.float64),
            rowscale=ones,
            colscale=ones,
            coupling=np.asarray(scaling * modulation, dtype=np.float64),
            offset=np.asarray(priors, dtype=np.float64),
            details={"scaling": scaling},
        )

    # Ceiling on epsilon-drift correction terms.  The series contracts by
    # ~rho(scaling * W x modulation) ~ safety per term, so sub-tolerance
    # truncation needs tens of terms at most; hitting the cap means the
    # operator is barely contracting and only dense seeding is safe.
    MAX_DRIFT_CORRECTION_TERMS = 80

    def _localized_prepare(self, warm, spec):
        initial = np.array(warm.beliefs, dtype=np.float64, copy=True)
        previous_scaling = warm.details.get("scaling")
        scaling = spec.details.get("scaling")
        hint_ok = True
        if previous_scaling and scaling:
            drift = float(scaling) / float(previous_scaling) - 1.0
            if drift != 0.0:
                # The refreshed convergence epsilon rescales the coupling on
                # *every* row, so the fixed point moves globally by
                # ``delta = (I - W . C)^-1 drift (F - B)`` — expand that
                # inverse as its Neumann series and absorb terms until the
                # truncation drops below the push threshold.  The leftover
                # residual on rows the delta didn't touch equals exactly the
                # first omitted term, so a converged series keeps local
                # hints valid at any drift magnitude; each term is one
                # O(nnz k) matvec with no frontier bookkeeping, far cheaper
                # than letting the push frontier saturate.
                cutoff = 0.25 * self.tolerance
                term = drift * (initial - spec.offset)
                initial += term
                terms = 0
                peak = float(np.abs(term).max())
                adjacency = spec.adjacency
                coupling = spec.coupling
                # Once the terms are small their absolute float32 rounding
                # (~6e-8 relative per term) is orders of magnitude under the
                # cutoff, so the long geometric tail runs at half the memory
                # traffic; the switch threshold keeps the accumulated single
                # precision error below ~1e-3 of the truncation cutoff.
                single_threshold = max(1e3 * cutoff, 1e-5)
                single = False
                while peak > cutoff and terms < self.MAX_DRIFT_CORRECTION_TERMS:
                    if not single and peak < single_threshold:
                        adjacency = adjacency.astype(np.float32)
                        coupling = coupling.astype(np.float32)
                        term = term.astype(np.float32)
                        single = True
                    term = np.asarray(adjacency @ term) @ coupling
                    initial += term
                    terms += 1
                    peak = float(np.abs(term).max())
                hint_ok = peak <= cutoff
        return initial, hint_ok

    def _run(
        self,
        operators: GraphOperators,
        prior_beliefs,
        seed_labels,
        n_classes: int,
        compatibility: np.ndarray,
        warm_start=None,
    ) -> tuple[np.ndarray, int, bool, list[float], dict]:
        priors, modulation, scaling = self._system_terms(
            operators, prior_beliefs, compatibility
        )
        modulation = np.asarray(scaling * modulation, dtype=self.dtype)
        priors = np.asarray(priors, dtype=self.dtype)
        adjacency = operators.cast_adjacency(self.dtype)
        echo = self.echo_cancellation
        degrees = operators.degrees.astype(self.dtype) if echo else None
        echo_modulation = modulation @ modulation if echo else None

        def step(current: np.ndarray, out: np.ndarray) -> np.ndarray:
            propagated = np.asarray(adjacency @ current)
            np.matmul(propagated, modulation, out=out)
            if echo:
                # Echo cancellation subtracts each node's own (modulated)
                # echo: F <- X + W F H - D F H^2 (linearized correction
                # term).
                out -= degrees[:, None] * (current @ echo_modulation)
            out += priors
            return out

        initial = priors
        if warm_start is not None:
            # The iterate lives in the (possibly centered) belief space, so a
            # previous result's beliefs resume the fixed point directly.  A
            # first-order correction for the drifted convergence scaling —
            # F(eps_new) ~ F + (eps_new/eps_old - 1)(F - X) — removes most of
            # the global residual that an epsilon refresh would otherwise
            # inject everywhere (the echo variant's epsilon enters
            # quadratically, so it resumes uncorrected).
            initial = np.asarray(warm_start.beliefs, dtype=self.dtype)
            previous_scaling = warm_start.details.get("scaling")
            if previous_scaling and not echo:
                drift = float(scaling) / float(previous_scaling) - 1.0
                if drift != 0.0:
                    initial = initial + drift * (initial - priors)

        beliefs, n_iterations, converged, residuals = fixed_point_iterate(
            step, initial, self.max_iterations, self.tolerance
        )
        return beliefs, n_iterations, converged, residuals, {"scaling": float(scaling)}


@register_propagator()
class EchoLinBPPropagator(LinBPPropagator):
    """Original LinBP of Gatterbauer et al. (2015) with echo cancellation.

    The echo term ``- D F H^2`` is outside the ``F = B + A F C`` family, so
    the localized push mode stays off and ``localized=`` requests fall back
    to the dense sweep (exact parity).
    """

    name = "linbp_echo"
    supports_localized = False

    def __init__(
        self,
        max_iterations: int = 10,
        tolerance: float = 1e-6,
        dtype=np.float64,
        safety: float = 0.5,
        center: bool = True,
        scaling: float | None = None,
    ) -> None:
        super().__init__(
            max_iterations=max_iterations,
            tolerance=tolerance,
            dtype=dtype,
            safety=safety,
            center=center,
            echo_cancellation=True,
            scaling=scaling,
        )


def linbp(
    adjacency,
    prior_beliefs,
    compatibility: np.ndarray,
    n_iterations: int = 10,
    safety: float = 0.5,
    center: bool = True,
    echo_cancellation: bool = False,
    scaling: float | None = None,
    tolerance: float = 1e-6,
) -> LinBPResult:
    """Run LinBP and return beliefs plus arg-max labels.

    Backwards-compatible functional wrapper around
    :class:`LinBPPropagator`; see the class for parameter semantics.
    """
    propagator = LinBPPropagator(
        max_iterations=n_iterations,
        tolerance=tolerance,
        safety=safety,
        center=center,
        echo_cancellation=echo_cancellation,
        scaling=scaling,
    )
    result = propagator.propagate(
        adjacency, compatibility=compatibility, prior_beliefs=prior_beliefs
    )
    return LinBPResult(
        beliefs=result.beliefs,
        labels=result.labels,
        n_iterations=result.n_iterations,
        scaling=result.details["scaling"],
        converged=result.converged,
    )


def propagate_and_label(
    graph: Graph,
    seed_labels: np.ndarray,
    compatibility: np.ndarray,
    n_iterations: int = 10,
    safety: float = 0.5,
    **kwargs,
) -> np.ndarray:
    """Convenience wrapper: propagate from a partial labeling, return labels.

    ``seed_labels`` is a full-length vector with ``-1`` for unlabeled nodes.
    Seed nodes keep their given label in the output (they are never
    re-classified), matching the evaluation protocol of the paper which only
    scores the remaining nodes.  Extra ``kwargs`` are forwarded to
    :class:`LinBPPropagator` (``center``, ``scaling``, ``tolerance``, ...).
    """
    if graph.n_classes is None:
        raise ValueError("graph must know its number of classes")
    propagator = LinBPPropagator(
        max_iterations=n_iterations, safety=safety, **kwargs
    )
    result = propagator.propagate(graph, seed_labels, compatibility=compatibility)
    return result.labels
