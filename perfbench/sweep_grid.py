"""sweep_grid: a researcher reproduces an accuracy-vs-sparsity figure.

The timed operation is one ``repro.runner.execute_grid`` of a 32-run grid
(two generated 300k-node power-law graphs x MCE, DCE, DCEr, GS x
f in {0.001, 0.01} x two repetitions, LinBP) with ``n_workers=min(2, nproc)``
into a fresh store.  Graph generation runs inside the program
(``runner.spec.build_graph``), so it is part of the timed work; rho(W) is paid
once per graph batch.

Checks: every outcome is ``ok``, and a serial in-process re-run
(``n_workers=1``) produces records identical to the parallel ones — for one
graph's first repetition in the untraced run, for the whole grid in the
traced run, where the serial run also gives ``runner.serial_s`` and the
per-run layer times.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import RunRecord, median, nproc, spmm_cost
from repro import GridSpec, ResultStore, execute_grid
from tracing import Tracer

N_NODES = 300_000
N_EDGES = 1_500_000
N_CLASSES = 3
SKEW_H = 3.0
ESTIMATORS = ("MCE", "DCE", "DCEr", "GS")
FRACTIONS = (0.001, 0.01)
N_REPETITIONS = 2
N_GRAPHS = 2
SETUP_REPEATS = 5


def make_grid(seed: int, n_nodes: int = N_NODES, n_edges: int = N_EDGES,
              estimators=ESTIMATORS, fractions=FRACTIONS,
              repetitions: int = N_REPETITIONS) -> GridSpec:
    graphs = [
        {"kind": "generate", "name": f"sweep-{seed}-{index}", "n_nodes": n_nodes,
         "n_edges": n_edges, "n_classes": N_CLASSES, "h": SKEW_H,
         "distribution": "powerlaw", "seed": seed * 1000 + index}
        for index in range(N_GRAPHS)
    ]
    return GridSpec(graphs=graphs, estimators=list(estimators), label_fractions=list(fractions),
                    propagators=["linbp"], n_repetitions=repetitions, base_seed=seed,
                    name=f"sweep-{seed}")


def timed_grid(runs, store_dir: Path, n_workers: int, tracer: Tracer, name: str):
    """Execute into a fresh store; returns (report, wall, [(outcome, done_at), ...])."""
    store = ResultStore(store_dir)
    arrivals = []
    started = time.perf_counter()
    with tracer.span(name, n_workers=n_workers):
        report = execute_grid(runs, store=store, n_workers=n_workers,
                              progress=lambda o: arrivals.append((o, time.perf_counter())))
    wall = time.perf_counter() - started
    store.close()
    return report, wall, [(o, t - started) for o, t in arrivals]


def run(seed: int, seconds: float, tracer: Tracer, record: RunRecord, run_dir: Path) -> None:
    workers = min(2, nproc())
    # ------------------------------------------------------------- set-up
    # Set-up is short (mostly spawning the pool), so it runs several times
    # and setup_s is the median.
    setup_times = []
    for attempt in range(SETUP_REPEATS):
        setup_start = time.perf_counter()
        grid = make_grid(seed)
        runs = grid.expand()
        # Untimed warm-up: a two-run grid on small graphs through the same pool.
        warm = make_grid(seed, n_nodes=2_000, n_edges=10_000, estimators=["DCEr"],
                         fractions=[0.05], repetitions=1)
        timed_grid(warm.expand(), run_dir / f"warm-store-{attempt}", workers, Tracer(False),
                   "warm")
        setup_times.append(time.perf_counter() - setup_start)
    setup_s = median(setup_times)

    # ------------------------------------------------------------ measure
    walls, reports = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started + walls[-1] <= seconds:
        report, wall, _ = timed_grid(runs, run_dir / f"store-{len(walls)}", workers, tracer,
                                     "runner.execute_grid")
        walls.append(wall)
        reports.append(report)
    report = reports[-1]
    outcomes = report.outcomes
    n_ok = sum(1 for r in reports for o in r.outcomes if o.status == "ok")
    n_runs = sum(len(r.outcomes) for r in reports)
    record.count(n_runs, n_runs - n_ok)
    record.check("every outcome is ok", n_ok == n_runs,
                 f"{n_ok}/{n_runs} ok; statuses "
                 f"{sorted({o.status for r in reports for o in r.outcomes})}")

    # Serial in-process re-run: identical records.
    if tracer.enabled:
        subset = runs
    else:
        first = runs[0].graph_hash
        subset = [r for r in runs if r.graph_hash == first and r.repetition == 0]
    serial_report, serial_wall, serial_arrivals = timed_grid(
        subset, run_dir / "serial-store", 1, tracer, "runner.serial")
    parallel = {o.spec.content_hash: o.result for o in outcomes}
    mismatched = [o.spec.label for o in serial_report.outcomes
                  if o.status != "ok" or o.result != parallel.get(o.spec.content_hash)]
    record.check(f"serial and parallel records identical ({len(subset)} runs)",
                 not mismatched, f"mismatched: {mismatched[:4]}")

    def by(method: str):
        return {(o.spec.graph_hash, o.spec.label_fraction, o.spec.repetition): o.result
                for o in outcomes if o.ok and o.spec.estimator == method}

    dcer, gs = by("DCEr"), by("GS")
    gaps = [gs[key]["accuracy"] - dcer[key]["accuracy"] for key in dcer if key in gs]
    record.metric("setup_s", setup_s, "s")
    record.metric("op_ms", sum(walls) / max(1, n_ok) * 1e3, "ms")
    record.metric("runs_per_s", n_ok / sum(walls), "1/s")
    record.metric("accuracy", float(np.mean([r["accuracy"] for r in dcer.values()])), "fraction")
    record.metric("l2_to_gold", float(np.mean([r["l2_to_gold"] for r in dcer.values()])),
                  "frobenius")
    record.report.update({
        "grid": {"n_runs": len(runs), "n_workers": workers, "graphs": N_GRAPHS,
                 "n_nodes": N_NODES, "n_edges": N_EDGES, "estimators": ESTIMATORS,
                 "fractions": FRACTIONS, "repetitions": N_REPETITIONS,
                 "graph_seeds": [g["seed"] for g in grid.graphs]},
        "grid_wall_s": walls,
        "setup_s_each": setup_times,
        "dcer_points": len(dcer),
        "accuracy_gap_gs": {"value": float(np.mean(gaps)), "n": len(gaps),
                            "definition": "mean GS minus DCEr accuracy, matching points"},
        "serial_check_runs": len(subset),
    })

    if not tracer.enabled:
        return
    # ------------------------------------------------------- per layer
    # The serial path hands back each graph batch whole, its outcomes in
    # execution order: the gap between two batch arrivals is the batch's
    # graph build plus its runs, so the build is that gap minus the runs'
    # own time.  rho(W) is paid inside each batch's first propagation.
    groups: list[tuple[float, list]] = []
    for outcome, done_at in serial_arrivals:
        if not groups or groups[-1][1][0].spec.graph_hash != outcome.spec.graph_hash:
            groups.append((done_at, []))
        groups[-1][1].append(outcome)
    build_s, first_prop, other_prop = [], [], []
    previous_at = 0.0
    for done_at, batch in groups:
        build_s.append(done_at - previous_at - sum(o.timing["total_seconds"] for o in batch))
        first_prop.append(batch[0].timing["propagation_seconds"])
        other_prop.extend(o.timing["propagation_seconds"] for o in batch[1:])
        previous_at = done_at
    serial_outcomes = serial_report.outcomes
    estimation = {m: [o.timing["estimation_seconds"] for o in serial_outcomes
                      if o.spec.estimator == m] for m in ESTIMATORS}
    total_run_s = sum(o.timing["total_seconds"] for o in outcomes)
    parallel_wall = walls[-1]
    per = record.metrics
    per["runner.serial_s"] = (serial_wall, "s")
    per["runner.build_graph_s"] = (median(build_s), "s")
    per["runner.parallel_efficiency"] = (serial_wall / (workers * parallel_wall), "fraction")
    per["runner.fixed_cost_s"] = (workers * parallel_wall - total_run_s, "s")
    for method in ESTIMATORS:
        per[f"estimate.fit_s.{method}"] = (median(estimation[method]), "s")
    per["propagate.s"] = (median(other_prop), "s")
    per["spectral.radius_s"] = (median(first_prop) - median(other_prop), "s")
    iterations = median([o.result["propagation_iterations"] for o in serial_outcomes])
    nnz = 2 * N_EDGES  # the planted generator produces exactly m undirected edges
    flops, moved = spmm_cost(nnz, N_NODES, N_CLASSES, 8, 4)
    per["propagate.iterations"] = (iterations, "count")
    per["propagate.spmm_bytes_computed"] = (iterations * moved, "bytes")
    per["propagate.ops_per_byte_computed"] = (flops / moved, "flop/byte")
    per["accuracy_gap_gs"] = (float(np.mean(gaps)), "fraction")
    per["trace.overhead_frac"] = (tracer.bookkeeping_s / parallel_wall, "fraction")
    # Blocking path of the serial run: builds, fits, propagations, the
    # rest of each run (seeding + scoring), and the runner's own residual.
    fits = sum(sum(v) for v in estimation.values())
    props = sum(o.timing["propagation_seconds"] for o in serial_outcomes)
    rest = sum(o.timing["total_seconds"] for o in serial_outcomes) - fits - props
    builds = sum(build_s)
    unattributed = serial_wall - builds - fits - props - rest
    per["share.runner.build_graph"] = (builds / serial_wall, "fraction")
    per["share.estimate.fit"] = (fits / serial_wall, "fraction")
    per["share.propagate"] = (props / serial_wall, "fraction")
    per["share.score"] = (rest / serial_wall, "fraction")
    per["share.unattributed"] = (unattributed / serial_wall, "fraction")
    record.report["blocking_path"] = {
        "e2e_s": {"serial grid": serial_wall, "parallel grid": parallel_wall},
        "layers_s": {"runner.build_graph": builds, "estimate.fit": fits,
                     "propagate (incl. rho(W) once per graph)": props,
                     "score + seeding": rest},
        "unattributed_s": unattributed,
        "spmm_per_sweep_computed": {"flops": flops, "bytes": moved, "nnz": nnz, "n": N_NODES,
                                    "k": N_CLASSES, "dtype": "float64", "index": "int32"},
    }
