"""label_cold: one user labels one new, sparsely labeled graph.

Set-up generates several distinct power-law graphs and, for each, an
independent reference for the scaling-ladder rung of rho(W) from
``scipy.sparse.linalg.eigsh``.  The timed operation is one
``run_experiment(graph, DCEr(...), label_fraction=f, propagator="linbp")``
on a fresh :class:`Graph`, so every point pays for the operators and the
cold rho(W) solve.  Accuracy and L2 also average over untimed extra points
on the same graphs (other label samples, operators warm).

After each point, outside the timed region, the point's labels are
recomputed with the same propagator on the same graph: they must be in
range (-1 marks a node no belief reached) and reproduce the point's
accuracy, and H must be finite and k x k.
The traced run also runs each point again through the public calls
``run_experiment`` makes (operators -> rho(W) -> fit -> propagate ->
score), each in its own span, which gives the per-layer self times; that
decomposition must reproduce the point's accuracy and L2 exactly.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse.linalg as spla

from common import RunRecord, median, spmm_cost
from repro import (
    DCEr,
    Graph,
    compatibility_l2,
    generate_graph,
    gold_standard_compatibility,
    macro_accuracy,
    run_experiment,
    skew_compatibility,
    stratified_seed_indices,
)
from repro.eval.experiment import resolve_propagator
from repro.propagation.convergence import quantize_radius, radius_ladder_gap
from tracing import Tracer

N_NODES = 100_000
N_EDGES = 500_000
N_CLASSES = 3
SKEW_H = 3.0
POWERLAW_EXPONENT = 0.3
LABEL_FRACTION = 0.001
N_GRAPHS = 5  # rho(W)'s solve time varies by graph; more graphs steady the median
# Untimed extra points per timed one, on the same graph with its operators
# warm: DCEr at f=0.001 scatters widely from label sample to label sample, so
# accuracy and L2 average over these too.
QUALITY_POINTS = 2
SAFETY = 0.5  # run_experiment's default; LinBP keeps its native 10 sweeps

LAYERS = ("graph.operators", "propagation.convergence", "estimate.fit", "propagate", "score")


def reference_rung(graph) -> tuple[float, float, float, bool]:
    """Independent rho(W) via symmetric Lanczos, with its own error bound.

    For a symmetric matrix the residual norm ``||W v - lambda v||`` of a
    unit Ritz vector bounds the distance from ``lambda`` to an eigenvalue.
    Returns ``(rung, radius, error, near_boundary)``.
    """
    adjacency = graph.adjacency.astype(np.float64)
    start = np.random.default_rng(0).standard_normal(adjacency.shape[0])
    values, vectors = spla.eigsh(adjacency, k=1, which="LA", v0=start, tol=1e-10)
    radius = float(values[0])
    vector = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
    error = float(np.linalg.norm(adjacency @ vector - radius * vector))
    near_boundary = radius_ladder_gap(radius) * radius <= error
    return quantize_radius(radius), radius, error, near_boundary


def fresh(graph: Graph) -> Graph:
    """A new Graph over the same arrays: no operator cache, so rho(W) is cold."""
    return Graph(adjacency=graph.adjacency, labels=graph.labels,
                 n_classes=graph.n_classes, name=graph.name)


def decomposed_point(tracer: Tracer, graph: Graph, point_seed: int) -> dict:
    """One point through the public calls ``run_experiment`` makes, spanned."""
    started = time.perf_counter()
    with tracer.span("label.point", seed=point_seed):
        with tracer.span("graph.operators"):
            operators = graph.operators
            operators.degrees
        with tracer.span("propagation.convergence"):
            operators.spectral_radius()
        seeds = stratified_seed_indices(graph.labels, fraction=LABEL_FRACTION,
                                        rng=np.random.default_rng(point_seed))
        partial = graph.partial_labels(seeds)
        with tracer.span("estimate.fit", method="DCEr"):
            estimation = DCEr(seed=point_seed).fit(graph, partial)
        with tracer.span("propagate"):
            engine = resolve_propagator("linbp", None, None, SAFETY)
            propagation = engine.propagate(graph, partial,
                                           compatibility=estimation.compatibility)
        with tracer.span("score"):
            gold = gold_standard_compatibility(graph)
            accuracy = macro_accuracy(graph.labels, propagation.labels,
                                      graph.n_classes, exclude_indices=seeds)
            l2 = compatibility_l2(estimation.compatibility, gold)
    details = estimation.details
    return {
        "seconds": time.perf_counter() - started,
        "accuracy": accuracy,
        "l2": l2,
        "iterations": propagation.n_iterations,
        "sketch_s": float(details.get("summarization_seconds", 0.0)),
        "optimize_s": float(details.get("optimization_seconds", 0.0)),
        "restarts": int(details.get("n_restarts", 1)),
        "converged": float(np.mean(details.get("converged", True))),
    }


def run(seed: int, seconds: float, tracer: Tracer, record: RunRecord, run_dir) -> None:
    # ------------------------------------------------------------- set-up
    setup_start = time.perf_counter()
    graphs, references, generate_s, reference_s = [], [], [], []
    graph_seeds = [seed * 1000 + index for index in range(N_GRAPHS)]
    for graph_seed in graph_seeds:
        started = time.perf_counter()
        with tracer.span("graph.generator", seed=graph_seed):
            graph = generate_graph(
                N_NODES, N_EDGES, skew_compatibility(N_CLASSES, h=SKEW_H),
                distribution="powerlaw", seed=graph_seed, name=f"label_cold-{graph_seed}",
                powerlaw_exponent=POWERLAW_EXPONENT,
            )
        generate_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        references.append(reference_rung(graph))
        reference_s.append(time.perf_counter() - started)
        graphs.append(graph)

    def point(graph: Graph, point_seed: int):
        candidate = fresh(graph)
        started = time.perf_counter()
        result = run_experiment(candidate, DCEr(seed=point_seed), label_fraction=LABEL_FRACTION,
                                propagator="linbp", seed=point_seed)
        return time.perf_counter() - started, candidate, result

    point(graphs[0], seed)  # untimed warm-up point
    setup_s = time.perf_counter() - setup_start

    # ------------------------------------------------------------ measure
    rung_checked = [False] * N_GRAPHS
    times, accuracies, distances, pieces = [], [], [], []
    n_points = 0
    started = time.perf_counter()
    while n_points < N_GRAPHS or time.perf_counter() - started < seconds:
        index = n_points % N_GRAPHS
        point_seed = seed * 1000 + 100 + n_points
        n_points += 1
        record.attempted += 1
        try:
            elapsed, candidate, result = point(graphs[index], point_seed)
            # Outside the timed region: the point's labels, from the same
            # propagator on the same graph (rho(W) is cached by now).
            seeds = stratified_seed_indices(candidate.labels, fraction=LABEL_FRACTION,
                                            rng=np.random.default_rng(point_seed))
            partial = candidate.partial_labels(seeds)
            labels = resolve_propagator("linbp", None, None, SAFETY).propagate(
                candidate, partial, compatibility=result.compatibility).labels
            if tracer.enabled:
                piece = decomposed_point(tracer, fresh(graphs[index]), point_seed)
                record.check(f"point {point_seed}: decomposed point reproduces run_experiment",
                             piece["accuracy"] == result.accuracy
                             and piece["l2"] == result.l2_to_gold)
                pieces.append(piece)
        except Exception as exc:  # one failed point must not end the run
            record.failed += 1
            record.findings.append(f"point {point_seed} raised {exc!r}")
            continue
        times.append(elapsed)
        accuracies.append(result.accuracy)
        distances.append(result.l2_to_gold)
        for extra in range(QUALITY_POINTS):
            extra_seed = seed * 1000 + 100_000 + n_points * QUALITY_POINTS + extra
            record.attempted += 1
            try:
                warm = run_experiment(candidate, DCEr(seed=extra_seed),
                                      label_fraction=LABEL_FRACTION, propagator="linbp",
                                      seed=extra_seed)
            except Exception as exc:
                record.failed += 1
                record.findings.append(f"quality point {extra_seed} raised {exc!r}")
                continue
            accuracies.append(warm.accuracy)
            distances.append(warm.l2_to_gold)

        H = np.asarray(result.compatibility)
        accuracy = macro_accuracy(candidate.labels, labels, N_CLASSES, exclude_indices=seeds)
        ok = (H.shape == (N_CLASSES, N_CLASSES) and bool(np.all(np.isfinite(H)))
              and labels.min() >= -1 and labels.max() < N_CLASSES
              and accuracy == result.accuracy)
        record.check(f"point {point_seed}: H finite k x k, labels in range and reproducible",
                     ok, f"H shape {H.shape}, accuracy {result.accuracy} vs {accuracy}")
        if not rung_checked[index]:
            rung_checked[index] = True
            ref_rung, ref_radius, ref_error, near = references[index]
            radius = candidate.operators.spectral_radius()
            program_rung = quantize_radius(radius)
            detail = (f"graph {graph_seeds[index]}: program rho {radius!r} -> rung "
                      f"{program_rung!r}; eigsh rho {ref_radius!r} +- {ref_error:.2e} -> "
                      f"rung {ref_rung!r}")
            if near:
                record.findings.append("rung reference within its error of a boundary, "
                                       "not counted: " + detail)
            else:
                record.check("rho(W) rung matches eigsh reference, " + detail,
                             program_rung == ref_rung, detail)
    measured_s = time.perf_counter() - started

    record.metric("setup_s", setup_s, "s")
    record.metric("op_ms", median(times) * 1e3, "ms")
    record.metric("label_p50_s", median(times), "s")
    record.metric("accuracy", float(np.mean(accuracies)), "fraction")
    record.metric("l2_to_gold", float(np.mean(distances)), "frobenius")
    nnz, n = int(graphs[0].adjacency.nnz), graphs[0].n_nodes
    flops, moved = spmm_cost(nnz, n, N_CLASSES, graphs[0].adjacency.data.itemsize,
                             graphs[0].adjacency.indices.itemsize)
    record.report.update({
        "label_s": {"n": len(times), "p50": median(times)},
        "quality_points": len(accuracies),
        "points_per_s": len(times) / measured_s,
        "graphs": {"n_nodes": N_NODES, "n_edges": N_EDGES, "k": N_CLASSES, "h": SKEW_H,
                   "distribution": f"powerlaw({POWERLAW_EXPONENT})", "f": LABEL_FRACTION,
                   "nnz": [int(g.adjacency.nnz) for g in graphs], "seeds": graph_seeds},
        "setup_parts_s": {"generate": generate_s, "reference_eigsh": reference_s},
        "propagate_computed": {"flops_per_sweep": flops,
                               "bytes_per_sweep": moved, "nnz": nnz, "n": n, "k": N_CLASSES,
                               "dtype": str(graphs[0].adjacency.dtype)},
    })

    if not tracer.enabled:
        return
    # ------------------------------------------------------- per layer
    roots, per_name = tracer.self_time_by_name("label.point")
    root_s = median(roots)
    layer_s = {name: median(per_name.get(name, [0.0])) for name in LAYERS}
    unattributed_s = median(per_name.get("label.point", [0.0]))
    iterations = median([p["iterations"] for p in pieces])
    per = record.metrics
    per["graph.generate_s"] = (median(generate_s), "s")
    per["graph.operators_s"] = (layer_s["graph.operators"], "s")
    per["spectral.radius_s"] = (layer_s["propagation.convergence"], "s")
    per["spectral.rung_ok"] = (sum(1 for name, ok, _ in record.checks
                                   if ok and name.startswith("rho(W) rung")), "count")
    per["estimate.fit_s.DCEr"] = (layer_s["estimate.fit"], "s")
    per["estimate.sketch_s"] = (median([p["sketch_s"] for p in pieces]), "s")
    per["estimate.optimize_s"] = (median([p["optimize_s"] for p in pieces]), "s")
    per["estimate.restarts"] = (median([p["restarts"] for p in pieces]), "count")
    per["estimate.converged_frac"] = (float(np.mean([p["converged"] for p in pieces])),
                                      "fraction")
    per["propagate.s"] = (layer_s["propagate"], "s")
    per["propagate.iterations"] = (iterations, "count")
    per["propagate.spmm_bytes_computed"] = (iterations * moved, "bytes")
    per["propagate.ops_per_byte_computed"] = (flops / moved, "flop/byte")
    per["score.s"] = (layer_s["score"], "s")
    per["trace.overhead_frac"] = (root_s / median(times) - 1.0, "fraction")
    for name in LAYERS:
        per[f"share.{name}"] = (layer_s[name] / root_s, "fraction")
    per["share.unattributed"] = (unattributed_s / root_s, "fraction")
    record.report["blocking_path"] = {
        "e2e_s": {"label_p50_s (untraced run_experiment)": median(times),
                  "traced decomposed point p50": root_s},
        "layers_self_s": layer_s,
        "unattributed_s": unattributed_s,
    }
