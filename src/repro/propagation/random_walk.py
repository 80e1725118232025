"""Random-walk label propagation baselines (Section 2.4).

MultiRankWalk runs one personalized-PageRank-style walk per class: the
teleportation distribution of class ``c`` is uniform over the seed nodes of
class ``c``, and after convergence every node takes the class whose walk
assigns it the highest score.  These methods assume homophily — the paper
uses them to demonstrate how badly homophily-only baselines fail on graphs
with arbitrary compatibilities (Fig. 6i).

:class:`MultiRankWalkPropagator` vectorizes all per-class walks into one
``n x k`` fixed point on the engine's shared loop, reusing the graph's
cached column-normalized operator; :func:`multi_rank_walk` and
:func:`random_walk_with_restart` are the backwards-compatible functional
entry points.
"""

from __future__ import annotations

import numpy as np

from repro.graph.operators import GraphOperators, operators_for
from repro.propagation.engine import (
    Propagator,
    fixed_point_iterate,
    register_propagator,
)
from repro.propagation.push import LinearFixedPoint
from repro.utils.validation import check_positive, check_probability

__all__ = ["MultiRankWalkPropagator", "random_walk_with_restart", "multi_rank_walk"]


def random_walk_with_restart(
    adjacency,
    teleport: np.ndarray,
    restart_probability: float = 0.15,
    n_iterations: int = 100,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Stationary distribution of a walk with restarts (Eq. 3).

    ``f <- alpha_bar * u + alpha * W_col f`` where ``u`` is the normalized
    teleportation vector and ``alpha = 1 - restart_probability``.
    """
    check_positive(n_iterations, "n_iterations")
    check_probability(restart_probability, "restart_probability")
    walk_matrix = operators_for(adjacency).column_normalized
    teleport = np.asarray(teleport, dtype=np.float64).ravel()
    if teleport.shape[0] != walk_matrix.shape[0]:
        raise ValueError("teleport vector length must equal the number of nodes")
    total = teleport.sum()
    if total <= 0:
        raise ValueError("teleport vector must have positive mass")
    teleport = teleport / total
    alpha = 1.0 - restart_probability
    restart_mass = restart_probability * teleport

    def step(current: np.ndarray, out: np.ndarray) -> np.ndarray:
        walked = np.asarray(walk_matrix @ current)
        np.multiply(walked, alpha, out=walked)
        walked += restart_mass
        return walked

    scores, _, _, _ = fixed_point_iterate(step, teleport, n_iterations, tolerance)
    return scores


@register_propagator("mrw")
class MultiRankWalkPropagator(Propagator):
    """MultiRankWalk: one random walk per class, arg-max classification.

    All per-class walks run as a single ``n x k`` fixed point
    ``F <- restart * U + (1 - restart) * W_col F`` where column ``c`` of
    ``U`` is the normalized teleport distribution of class ``c``.  Classes
    without any seed node keep a zero score column (they can never win the
    arg-max), matching the behaviour of the original algorithm under
    extreme label sparsity.
    """

    name = "mrw"
    needs_compatibility = False
    supports_warm_start = True
    supports_localized = True
    # Revealing one seed renormalizes its whole class's teleport column, so
    # localized hints must cover every seed of the revealed classes.
    localized_reveal_scope = "class"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-10,
        dtype=np.float64,
        restart_probability: float = 0.15,
    ) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance, dtype=dtype)
        check_probability(restart_probability, "restart_probability")
        self.restart_probability = float(restart_probability)

    def _teleports(self, seed_labels, n_classes: int, dtype) -> np.ndarray:
        n_nodes = seed_labels.shape[0]
        teleports = np.zeros((n_nodes, n_classes), dtype=dtype)
        for class_index in range(n_classes):
            mask = seed_labels == class_index
            mass = float(mask.sum())
            if mass == 0:
                continue
            teleports[mask, class_index] = 1.0 / mass
        return teleports

    def linear_system(
        self, operators, prior_beliefs, seed_labels, n_classes, compatibility
    ):
        if seed_labels is None:
            raise ValueError("MultiRankWalk needs seed_labels for its teleports")
        teleports = self._teleports(seed_labels, n_classes, np.float64)
        # ``W_col = W diag(1/colsum)`` and the base CSR is symmetric, so the
        # column sums are exactly the degrees: colscale = inverse_degrees.
        return LinearFixedPoint(
            adjacency=operators.cast_adjacency(np.float64),
            rowscale=np.full(
                operators.n_nodes, 1.0 - self.restart_probability, dtype=np.float64
            ),
            colscale=np.asarray(operators.inverse_degrees, dtype=np.float64),
            coupling=None,
            offset=self.restart_probability * teleports,
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
            raise ValueError("MultiRankWalk needs seed_labels for its teleports")
        teleports = self._teleports(seed_labels, n_classes, self.dtype)
        alpha = 1.0 - self.restart_probability
        restart_mass = self.restart_probability * teleports

        walk_matrix = operators.column_normalized

        def step(current: np.ndarray, out: np.ndarray) -> np.ndarray:
            walked = np.asarray(walk_matrix @ current)
            np.multiply(walked, alpha, out=walked)
            walked += restart_mass
            return walked

        initial = teleports
        if warm_start is not None:
            # The restart mass keeps the per-class walks' fixed points
            # unique, so the previous scores resume them exactly.
            initial = np.asarray(warm_start.beliefs, dtype=self.dtype)

        scores, n_iterations, converged, residuals = fixed_point_iterate(
            step, initial, self.max_iterations, self.tolerance
        )
        return scores, n_iterations, converged, residuals, {}


def multi_rank_walk(
    adjacency,
    seed_labels: np.ndarray,
    n_classes: int,
    restart_probability: float = 0.15,
    n_iterations: int = 100,
) -> np.ndarray:
    """MultiRankWalk: one random walk per class, arg-max classification.

    ``seed_labels`` uses ``-1`` for unlabeled nodes.  Backwards-compatible
    wrapper around :class:`MultiRankWalkPropagator`.
    """
    check_positive(n_classes, "n_classes")
    propagator = MultiRankWalkPropagator(
        max_iterations=n_iterations, restart_probability=restart_probability
    )
    result = propagator.propagate(adjacency, seed_labels, n_classes=n_classes)
    return result.labels
