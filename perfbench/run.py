#!/usr/bin/env python3
"""Repository benchmark: cold labeling, a figure sweep and mixed serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload label_cold --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring and ``BENCHMARK.json``):

* ``label_cold``  — ``run_experiment`` with DCEr + LinBP on fresh 100k-node
  power-law graphs (cold operators and rho(W) every point);
* ``sweep_grid``  — ``repro.runner.execute_grid`` over a 32-run accuracy vs
  sparsity grid on two 300k-node graphs, into a fresh store;
* ``serve_mixed`` — ``repro serve --workers 2`` under an open loop of
  queries and deltas over two keep-alive connections.

The workload seed derives every input; the program only receives the
generated inputs, so a claim can be re-checked on any seed not used while
writing it (e.g. ``--seed 1001``).

With ``--trace 0`` the last stdout line carries every end-to-end metric,
which every workload reports: ``setup_s``, ``peak_rss_mb``, ``accuracy``
(macro accuracy of the DCEr-labeled nodes) and ``op_ms``, the wall time a
user waits per operation — a cold ``run_experiment`` point (median) on
label_cold, grid wall time per completed run on sweep_grid, and query
latency at the base rate (median) on serve_mixed.  With ``--trace 1`` it
carries every per-layer metric (0 for a layer the workload does not
exercise).  Lines before it are a human-readable report:
environment, sample counts, correctness checks, findings and the blocking
path of each workload split into layers plus an unattributed residual.
Spans of a traced run are written to ``.perfbench/`` in the checkout.

Exit status is 0 when the run completed (failed correctness checks are
reported in the result, ``correct: false``), 2 when the checkout holds no
``src/repro`` program, 1 when the run itself broke or did not produce an
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("label_cold", "sweep_grid", "serve_mixed")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_environment(run_dir: Path) -> dict:
    """Cap BLAS/OpenMP threads at nproc, keep temp files in the checkout and
    put the checkout's ``src`` first on the import path.

    Runs before numpy is imported; child processes inherit the environment.
    """
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), cpus) if current.isdigit() and int(current) > 0 else cpus
        os.environ[var] = str(cap)
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(HERE)]
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(threads: dict, args) -> dict:
    import numpy
    import scipy

    from repro import __version__, obs
    from repro.propagation.kernels import active_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": __version__,
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS", "auto"),
        "kernel_backend": active_backend(),
        "REPRO_OBS": "on" if obs.enabled() else "off",
        "thread_caps": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(key: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    threads = pin_environment(run_dir)
    try:
        from common import MemorySampler, RunRecord
        from tracing import Tracer

        module = __import__(args.workload)
        env = environment(threads, args)
        record = RunRecord()
        tracer = Tracer(enabled=bool(args.trace))
        with MemorySampler() as memory:
            module.run(args.seed, args.seconds, tracer, record, run_dir)
            record.metric("peak_rss_mb", memory.peak_mb(), "MB")
    except Exception:
        traceback.print_exc()
        shutil.rmtree(run_dir, ignore_errors=True)
        return 1
    shutil.rmtree(run_dir, ignore_errors=True)

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer.enabled:
        tracer.write(OUT / f"spans-{stamp}.jsonl")
    failed_frac = record.failed / max(1, record.attempted)
    summary = {
        "environment": env,
        "report": record.report,
        "attempted": record.attempted,
        "failed": record.failed,
        "failed_frac": failed_frac,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in record.checks],
        "findings": record.findings,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record.metrics.items()},
    }
    (OUT / f"summary-{stamp}.json").write_text(json.dumps(summary, indent=1, default=str))

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# environment " + json.dumps(env, default=str))
    print("# report " + json.dumps(record.report, default=str))
    n_failed_checks = sum(1 for _, ok, _ in record.checks if not ok)
    print(f"# checks {len(record.checks) - n_failed_checks}/{len(record.checks)} passed; "
          f"failed_frac {failed_frac:.6f} ({record.failed}/{record.attempted})")
    for name, ok, detail in record.checks:
        if not ok:
            print(f"# FAILED CHECK {name}: {detail}")
    for finding in record.findings:
        print(f"# finding {finding}")

    for name, (value, unit) in sorted(record.metrics.items()):
        print(f"# metric {name} = {value:.6g} {unit}")
    if args.trace:
        metrics = {name: {"value": record.metrics.get(name, (0.0, unit))[0], "unit": unit}
                   for name, unit in declared_metrics("per_layer").items()}
    else:
        declared = declared_metrics("end_to_end")
        missing = sorted(set(declared) - set(record.metrics))
        if missing:
            print(f"perfbench: {args.workload} reported no {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        metrics = {name: {"value": record.metrics[name][0], "unit": unit}
                   for name, unit in declared.items()}
    print(json.dumps({
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
