"""Oracle tests for the certified cold rho(W) solve.

The cold solve of :func:`lanczos_spectral_state` stops once a Rayleigh
quotient and a Collatz–Wielandt ratio prove which scaling-ladder rung
``rho`` sits on.  These tests check that rung against dense
``np.linalg.eigvalsh`` — on random small weighted graphs, on graphs exactly
on a rung boundary, and on component layouts built to defeat the
certificate's vector.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph
from repro.obs.registry import MetricsRegistry
from repro.propagation import get_propagator
from repro.propagation.convergence import (
    lanczos_spectral_state,
    linbp_scaling,
    quantize_radius,
    radius_ladder_gap,
    spectral_radius,
)


def dense_radius(adjacency) -> float:
    """``lambda_max`` of a nonnegative symmetric matrix: its spectral radius."""
    if adjacency.shape[0] == 0:
        return 0.0
    return max(0.0, float(np.linalg.eigvalsh(adjacency.toarray())[-1]))


def certified_rung(adjacency, seed=0) -> float:
    return quantize_radius(lanczos_spectral_state(adjacency, seed=seed).radius)


def symmetric(rows, cols, weights, n) -> sp.csr_matrix:
    upper = sp.coo_matrix((weights, (rows, cols)), shape=(n, n))
    return (upper + upper.T).tocsr()


def complete(n: int, weights=None) -> sp.csr_matrix:
    rows, cols = np.triu_indices(n, k=1)
    if weights is None:
        weights = np.ones(rows.size)
    return symmetric(rows, cols, weights, n)


def cycle(n: int) -> sp.csr_matrix:
    nodes = np.arange(n)
    return symmetric(nodes, (nodes + 1) % n, np.ones(n), n)


def star(leaves: int) -> sp.csr_matrix:
    return symmetric(np.zeros(leaves, int), 1 + np.arange(leaves), np.ones(leaves), leaves + 1)


def random_graph(n: int, n_edges: int, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, n, size=(2, n_edges))
    keep = rows != cols
    weights = rng.uniform(0.1, 3.0, size=n_edges)[keep]
    adjacency = symmetric(rows[keep], cols[keep], weights, n)
    adjacency.sum_duplicates()
    return adjacency


def disjoint(*blocks) -> sp.csr_matrix:
    return sp.block_diag(blocks, format="csr")


class TestRandomGraphOracle:
    @given(
        n=st.integers(min_value=1, max_value=300),
        density=st.floats(min_value=0.0, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_certified_rung_matches_dense_eigvalsh(self, n, density, seed):
        adjacency = random_graph(n, int(density * n), seed)
        radius = dense_radius(adjacency)
        rung = certified_rung(adjacency, seed=seed)
        if radius_ladder_gap(radius) > 1e-9:
            assert rung == quantize_radius(radius)
        else:  # within rounding of a boundary: the rung may only err high
            assert rung >= radius * (1 - 1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_returned_radius_is_a_lower_bound(self, seed):
        adjacency = random_graph(120, 400, seed)
        state = lanczos_spectral_state(adjacency, seed=seed)
        radius = dense_radius(adjacency)
        assert state.radius <= radius * (1 + 1e-12)
        assert state.radius + state.residual_bound >= radius * (1 - 1e-12)


class TestRungBoundaries:
    """``rho`` exactly on a rung: the rung errs high, identically for every seed."""

    @pytest.mark.parametrize(
        "name, adjacency, radius",
        [
            ("K9", complete(9), 8.0),
            ("K17", complete(17), 16.0),
            ("C5", cycle(5), 2.0),
            ("C64", cycle(64), 2.0),
            ("C300", cycle(300), 2.0),
            ("K1,64", star(64), 8.0),
        ],
    )
    def test_boundary_rung_is_upper_and_deterministic(self, name, adjacency, radius):
        assert quantize_radius(radius) == radius  # really on a boundary
        rungs = {certified_rung(adjacency, seed=seed) for seed in range(5)}
        assert len(rungs) == 1, rungs
        assert rungs.pop() >= radius

    @pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9])
    def test_k17_scaled_off_the_boundary(self, factor):
        adjacency = complete(17) * factor
        expected = quantize_radius(16.0 * factor)
        assert expected != quantize_radius(16.0 * (2 - factor))
        assert certified_rung(adjacency) == expected

    def test_k17_with_jittered_weights(self):
        rng = np.random.default_rng(3)
        jitter = 1 + 1e-9 * rng.choice([-1.0, 1.0], size=17 * 16 // 2)
        adjacency = complete(17, weights=jitter)
        radius = dense_radius(adjacency)
        assert radius_ladder_gap(radius) > 1e-12  # off the boundary ...
        assert radius_ladder_gap(radius) < 1e-8  # ... but barely
        assert certified_rung(adjacency) == quantize_radius(radius)


class TestComponents:
    """A Ritz vector carries no information off the component it converges
    on; hubs elsewhere must not push the certified rung off."""

    @staticmethod
    def giant(n=600, seed=7) -> sp.csr_matrix:
        return random_graph(n, 6 * n, seed)

    def test_giant_dominates_a_star_with_a_bigger_hub(self):
        giant = self.giant()
        giant_radius = dense_radius(giant)
        leaves = int(giant_radius**2 * 0.8)  # rho(star) = sqrt(leaves) < rho
        assert leaves > giant_radius  # centre degree above the giant's rho
        adjacency = disjoint(giant, star(leaves))
        radius = dense_radius(adjacency)
        assert radius == pytest.approx(giant_radius)
        assert certified_rung(adjacency) == quantize_radius(radius)

    def test_star_dominates_the_giant(self):
        giant = self.giant()
        leaves = int(dense_radius(giant) ** 2 * 1.5)
        adjacency = disjoint(star(leaves), giant)
        radius = dense_radius(adjacency)
        assert radius == pytest.approx(math.sqrt(leaves))
        assert certified_rung(adjacency) == quantize_radius(radius)

    def test_many_small_components_with_hubs(self):
        blocks = [self.giant(n=400, seed=1)]
        blocks += [star(leaves) for leaves in (3, 30, 90, 150)]
        blocks += [complete(size) for size in (2, 3, 12)]
        adjacency = disjoint(*blocks)
        for seed in range(3):
            assert certified_rung(adjacency, seed=seed) == quantize_radius(
                dense_radius(adjacency)
            )

    def test_empty_graph(self):
        state = lanczos_spectral_state(sp.csr_matrix((0, 0)))
        assert state.radius == 0.0
        assert spectral_radius(sp.csr_matrix((0, 0))) == 0.0

    def test_edgeless_graph(self):
        assert spectral_radius(sp.csr_matrix((5, 5))) == 0.0

    def test_isolated_nodes_beside_edges(self):
        adjacency = disjoint(sp.csr_matrix((3, 3)), complete(4) * 1.3, sp.csr_matrix((2, 2)))
        assert certified_rung(adjacency) == quantize_radius(dense_radius(adjacency))

    def test_negative_entries_rejected(self):
        adjacency = complete(4).tolil()
        adjacency[0, 1] = adjacency[1, 0] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            spectral_radius(adjacency.tocsr())
        with pytest.raises(ValueError, match="nonnegative"):
            linbp_scaling(adjacency.tocsr(), np.eye(3) - 1.0 / 3.0)


class TestCost:
    def test_matvec_ceiling_on_power_law_graph(self):
        graph = generate_graph(
            20_000, 100_000, skew_compatibility(3, h=3.0),
            distribution="powerlaw", seed=5, powerlaw_exponent=0.3,
        )
        state = lanczos_spectral_state(graph.adjacency)  # certifies in ~17 products
        assert quantize_radius(state.radius) == quantize_radius(
            float(eigsh(graph.adjacency, k=1, which="LA", tol=1e-12)[0][0])
        )
        assert state.n_steps <= 30


class TestObservability:
    def test_span_steps_and_uncertified_counter(self):
        registry, records = MetricsRegistry(), []
        previous = obs.configure_tracing(records.append)
        try:
            with obs.use_registry(registry):
                lanczos_spectral_state(complete(9))  # on a boundary: uncertified
                lanczos_spectral_state(complete(9) * 1.01)
        finally:
            obs.configure_tracing(previous)
        text = registry.render_prometheus()
        assert 'repro_lanczos_steps_count{start="cold"} 2' in text
        assert "repro_spectral_uncertified_total 1" in text
        spans = [record for record in records if record["name"] == "spectral.certify"]
        assert [span["attrs"]["certified"] for span in spans] == [False, True]

    def test_beliefs_bitwise_identical_with_obs_on_and_off(self, heterophily_graph):
        compatibility = skew_compatibility(3, h=3.0)
        seeds = np.arange(0, heterophily_graph.n_nodes, 10)

        def beliefs():
            graph = Graph(
                adjacency=heterophily_graph.adjacency.copy(),
                labels=heterophily_graph.labels,
                n_classes=heterophily_graph.n_classes,
            )
            partial = graph.partial_labels(seeds)
            result = get_propagator("linbp").propagate(
                graph, partial, compatibility=compatibility
            )
            return result.beliefs

        previous = obs.set_enabled(True)
        try:
            on = beliefs()
            obs.set_enabled(False)
            off = beliefs()
        finally:
            obs.set_enabled(previous)
        assert np.array_equal(on, off)
