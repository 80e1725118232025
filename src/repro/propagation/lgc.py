"""Local and Global Consistency (Zhou et al., 2003) label propagation.

Another standard homophily SSL baseline: beliefs iterate as
``F <- alpha * S F + (1 - alpha) * Y`` with the symmetrically normalized
adjacency ``S = D^-1/2 W D^-1/2``.  Included because the paper's second
normalization variant (Eq. 10) borrows exactly this normalization.

:class:`LGCPropagator` runs on the engine's shared fixed-point loop using
the graph's cached symmetric normalization;
:func:`local_global_consistency` is the backwards-compatible wrapper.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import one_hot_labels
from repro.graph.operators import GraphOperators
from repro.propagation.engine import (
    Propagator,
    fixed_point_iterate,
    register_propagator,
)
from repro.propagation.push import LinearFixedPoint
from repro.utils.validation import check_probability

__all__ = ["LGCPropagator", "local_global_consistency"]


@register_propagator()
class LGCPropagator(Propagator):
    """LGC iteration ``F <- alpha S F + (1 - alpha) Y``.

    Parameters
    ----------
    alpha:
        Trades off smoothness against fidelity to the seed labels (the
        original paper uses 0.99; 0.9 converges faster and labels sparse
        graphs equally well).
    """

    name = "lgc"
    needs_compatibility = False
    supports_warm_start = True
    supports_localized = True

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-8,
        dtype=np.float64,
        alpha: float = 0.9,
    ) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance, dtype=dtype)
        check_probability(alpha, "alpha")
        self.alpha = float(alpha)

    def linear_system(
        self, operators, prior_beliefs, seed_labels, n_classes, compatibility
    ):
        if seed_labels is None:
            raise ValueError("LGC needs seed_labels for its fidelity term")
        clamped = self._dense(one_hot_labels(seed_labels, n_classes))
        inv_sqrt = np.sqrt(operators.inverse_degrees)
        return LinearFixedPoint(
            adjacency=operators.cast_adjacency(np.float64),
            rowscale=self.alpha * inv_sqrt,
            colscale=inv_sqrt,
            coupling=None,
            offset=(1.0 - self.alpha) * clamped,
        )

    def _run(
        self,
        operators: GraphOperators,
        prior_beliefs,
        seed_labels,
        n_classes: int,
        compatibility,
        warm_start=None,
    ) -> tuple[np.ndarray, int, bool, list[float], dict]:
        if seed_labels is None:
            raise ValueError("LGC needs seed_labels for its fidelity term")
        clamped = self._dense(one_hot_labels(seed_labels, n_classes), dtype=self.dtype)
        alpha = self.alpha
        fidelity = (1.0 - alpha) * clamped

        smooth = operators.symmetric_normalized

        def step(current: np.ndarray, out: np.ndarray) -> np.ndarray:
            smoothed = np.asarray(smooth @ current)
            np.multiply(smoothed, alpha, out=smoothed)
            smoothed += fidelity
            return smoothed

        initial = clamped
        if warm_start is not None:
            # The teleport term (1 - alpha) Y makes the fixed point unique,
            # so resuming from the previous beliefs is exact.
            initial = np.asarray(warm_start.beliefs, dtype=self.dtype)

        beliefs, n_iterations, converged, residuals = fixed_point_iterate(
            step, initial, self.max_iterations, self.tolerance
        )
        return beliefs, n_iterations, converged, residuals, {}


def local_global_consistency(
    adjacency,
    seed_labels: np.ndarray,
    n_classes: int,
    alpha: float = 0.9,
    n_iterations: int = 100,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Classify unlabeled nodes with the LGC iteration.

    ``seed_labels`` uses ``-1`` for unlabeled nodes.  Returns a full label
    vector; seed nodes keep their given labels.  Backwards-compatible
    wrapper around :class:`LGCPropagator`.
    """
    propagator = LGCPropagator(
        max_iterations=n_iterations, tolerance=tolerance, alpha=alpha
    )
    result = propagator.propagate(adjacency, seed_labels, n_classes=n_classes)
    return result.labels
