"""riskeig benchmark: CLI pipelines end to end, and layer by layer when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hjb-1d --seed 1 --seconds 30 --trace 0

Each run is one process driving one workload's CLI pipeline in-process, a
closed loop with one pipeline at a time and ``--threads 2``:

* ``--trace 0`` repeats the pipeline for ``--seconds`` seconds and, spread
  evenly between the repeats, times the start-up of a fresh interpreter
  (import and config validation) several times; it reports the end-to-end
  metrics named in ``BENCHMARK.json``.
* ``--trace 1`` repeats the pipeline untraced for about half of ``--seconds``,
  runs it once more under the outside-in tracer (``tracer.py``), then probes
  the 2-D eigensolve stall and times the workload's sweep at one thread, and
  reports the per-layer metrics.

Every repeat at one seed must write the same ``result.json`` bytes, traced or
not; a repeat that differs, raises, or exits 2 or 3 counts as failed.  Human
readable lines go first; the last line of standard output is the JSON result.
Working output goes to ``.perfbench_out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, summarize
from workloads import OU_2D, THREADS, WORKLOADS, load_oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPEATS = 2        # determinism needs a repeat at the same seed
# start-up speed follows the machine's load, so its samples are spread over
# the whole run rather than taken in one burst
SETUP_REPEATS = 15

# 2-D OU at r=5, h=0.1 (n=9801) is where inverse iteration stalls; a few
# seconds of iterations show whether it converges and how far off it is
STALL_RADIUS = 5.0
STALL_SPACING = 0.1
STALL_MAX_ITER = 500

BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from riskeig.cli import ExperimentConfig
ExperimentConfig(**json.loads(sys.argv[2])).validate()
print("ready", flush=True)
"""


@dataclass
class Repeat:
    exit_code: int | None      # None: the pipeline raised
    wall_s: float
    sha256: str | None
    result: dict | None
    result_bytes: int
    log_warnings: int
    failed: bool = False


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def measure_setup(fields: dict) -> float:
    """Seconds from spawning an interpreter to riskeig imported and the config validated."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(fields)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    ready = None
    lines = []
    for line in proc.stdout:
        if line.strip() == "ready":
            ready = time.perf_counter()
            break
        lines.append(line)
    lines += proc.stdout.readlines()
    proc.stdout.close()
    code = proc.wait(timeout=60)
    if ready is None or code != 0:
        raise RuntimeError("set-up child failed:\n" + "".join(lines))
    return ready - start


class Bench:
    def __init__(self, workload, seed: int):
        import click
        import riskeig.cli

        self.wl = workload
        self.seed = seed
        self.click = click
        self.cli = riskeig.cli.main
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        workload.write_inputs(self.dir)
        self.repeats: list[Repeat] = []
        self.log_counter = _WarningCounter()
        logging.getLogger("riskeig").addHandler(self.log_counter)

    def repeat(self, tracer=None) -> Repeat:
        out = self.dir / f"rep{len(self.repeats)}"
        argv = self.wl.argv(out, self.seed)
        sink = io.StringIO()
        self.log_counter.count = 0

        def call():
            return self.cli.main(args=argv, prog_name="riskeig", standalone_mode=False)

        code: int | None
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rv = call() if tracer is None else tracer.run("cli.run", call)
                code = rv if isinstance(rv, int) else 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except self.click.ClickException as exc:
                code = exc.exit_code
                sink.write(exc.format_message() + "\n")
            except Exception:
                code = None
                sink.write(traceback.format_exc())
        wall = time.perf_counter() - start
        (self.dir / f"rep{len(self.repeats)}.log").write_text(sink.getvalue())

        path = out / "result.json"
        data = path.read_bytes() if path.exists() else None
        rep = Repeat(
            exit_code=code,
            wall_s=wall,
            sha256=None if data is None else hashlib.sha256(data).hexdigest(),
            result=None if data is None else json.loads(data),
            result_bytes=0 if data is None else len(data),
            log_warnings=self.log_counter.count + len(caught),
        )
        first = next((r.sha256 for r in self.repeats if not r.failed), None)
        rep.failed = (
            code not in self.wl.ok_exit_codes
            or data is None
            or (first is not None and rep.sha256 != first)
        )
        self.repeats.append(rep)
        if len(self.repeats) > 1:
            # keep the first repeat's output as the reference, drop the rest
            shutil.rmtree(out, ignore_errors=True)
        return rep

    def repeat_for(self, seconds: float, minimum: int, setup: list[float] | None = None) -> None:
        """Repeat the pipeline for ``seconds``; with ``setup``, take set-up samples in between."""
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            if setup is not None:
                due = SETUP_REPEATS * min(1.0, (time.perf_counter() - start) / seconds)
                while len(setup) < max(1.0, due):
                    setup.append(measure_setup(self.wl.fields))
            self.repeat()
            walls = [r.wall_s for r in self.repeats]
            if len(walls) >= minimum and time.perf_counter() + statistics.median(walls) > deadline:
                break
        while setup is not None and len(setup) < SETUP_REPEATS:
            setup.append(measure_setup(self.wl.fields))

    def reference_result(self) -> dict | None:
        return next((r.result for r in self.repeats if not r.failed), None)

    def close(self) -> None:
        logging.getLogger("riskeig").removeHandler(self.log_counter)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:
        pass
    return {
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version") if k in blas},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def outputs_correct(bench: Bench, lam_err: float, res: dict) -> bool:
    """Every repeat succeeded alike, lambda matches its closed form, the gating checks pass."""
    checks = dict(bench.wl.checks(res))
    return (
        not any(r.failed for r in bench.repeats)
        and lam_err <= bench.wl.lambda_tol
        and all(checks[name] for name in bench.wl.gate)
    )


def end_to_end(bench: Bench, setup: list[float], oracles) -> tuple[dict, bool]:
    wl = bench.wl
    reps = bench.repeats
    good = [r for r in reps if not r.failed]
    walls = [r.wall_s for r in (good or reps)]
    res = bench.reference_result()
    if res is None:
        raise RuntimeError("no repeat produced a result.json")
    ref = wl.reference(oracles)
    lam_err = abs(wl.reported_lambda(res) - ref)

    passed = []
    for r in reps:
        rc = wl.checks(r.result) if (r.result is not None and not r.failed) else []
        passed.append(sum(ok for _, ok in rc) / len(rc) if rc else 0.0)

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lambda_abs_err": lam_err,
        "checks_passed": statistics.fmean(passed),
        "ok_rate": len(good) / len(reps),
    }
    print(f"# samples: wall_s n={len(walls)}, setup_s n={len(setup)}")
    print(f"# lambda reference {ref!r}, reported {wl.reported_lambda(res)!r}")
    print(f"# error_rate {len(reps) - len(good)}/{len(reps)}")
    for name, ok in wl.checks(res):
        print(f"# check {name}: {'pass' if ok else 'FAIL'}" + (" (gates correct)" if name in wl.gate else ""))
    if res.get("exit_check") is not None:
        print(f"# exit ratio {res['exit_check']['value']!r} +- {res['exit_check']['stderr']!r}")
    return metrics, outputs_correct(bench, lam_err, res)


def stall_probe(model_spec: dict) -> dict:
    """Capped inverse iteration on the 2-D OU operator at r=5; a stall shows as converged=0."""
    import numpy as np
    from riskeig.discretize import Policy, assemble, make_grid
    from riskeig.eigensolve import principal_eigenpair
    from riskeig.errors import ConvergenceError
    from riskeig.model import model_from_config

    model = model_from_config(model_spec)
    grid = make_grid(2, STALL_RADIUS, STALL_SPACING)
    op = assemble(model, grid, Policy.uniform(grid), "hybrid")
    try:
        pair = principal_eigenpair(op, max_iter=STALL_MAX_ITER)
        converged = 1
    except ConvergenceError as exc:
        pair = exc.payload["eigenpair"]
        converged = 0
    defect = float(np.max(np.abs(op.entries @ pair.v - pair.eigenvalue * pair.v) / pair.v))
    return {
        "eigensolve.stall_probe.converged": converged,
        "eigensolve.stall_probe.defect": defect,
    }


def time_sweep(fields: dict, threads: int) -> float:
    from riskeig.cli import ExperimentConfig
    from riskeig.continuation import sweep

    cfg = ExperimentConfig(**fields)
    model = cfg.build_model()
    start = time.perf_counter()
    sweep(model, cfg.radii, cfg.h, tol=cfg.tol, pi_tol=cfg.pi_tol,
          eigen_tol=cfg.eigen_tol, scheme=cfg.scheme, threads=threads)
    return time.perf_counter() - start


def per_layer(bench: Bench, seconds: float, oracles) -> tuple[dict, bool]:
    wl = bench.wl
    bench.repeat_for(seconds / 2.0, minimum=1)
    untraced = statistics.median(r.wall_s for r in bench.repeats)

    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.repeat(tracer)
    finally:
        tracer.uninstall()
    tracer.write(bench.dir / "spans.csv.gz")
    if traced.result is None:
        raise RuntimeError("the traced repeat produced no result.json")
    rows = summarize(tracer.spans())
    cnt = tracer.counters

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def self_s(prefix):
        return sum(r["self_s"] for n, r in rows.items() if n == prefix or n.startswith(prefix + "."))

    def total_s(name):
        return rows.get(name, {}).get("total_s", 0.0)

    res = traced.result
    iters = cnt["eigensolve.iterations"]
    steps = cnt["montecarlo.path_steps"]
    metrics = {
        "model.drift_at.calls": calls("model.drift_at"),
        "model.cost_at.calls": calls("model.cost_at"),
        "model.covariance.calls": calls("model.covariance"),
        "model.self_s": self_s("model"),
        "discretize.assemble.calls": calls("discretize.assemble"),
        "discretize.assemble.self_s": self_s("discretize.assemble"),
        "discretize.drift_cost_apply.calls": calls("discretize.drift_cost_apply"),
        "discretize.drift_cost_apply.self_s": self_s("discretize.drift_cost_apply"),
        "eigensolve.principal_eigenpair.calls": calls("eigensolve.principal_eigenpair"),
        "eigensolve.iterations": iters,
        "eigensolve.ms_per_iteration":
            1e3 * total_s("eigensolve.principal_eigenpair") / iters if iters else 0.0,
        "eigensolve.factorizations": cnt["eigensolve.factorizations"],
        "eigensolve.bicgstab_solves": cnt["eigensolve.bicgstab_solves"],
        "eigensolve.self_s": self_s("eigensolve"),
        "eigensolve.dirichlet_solves": calls("eigensolve.solve_hjb_dirichlet"),
        "eigensolve.policy_sweeps": cnt["eigensolve.policy_sweeps"],
        "continuation.sweep.calls": calls("continuation.sweep"),
        "continuation.sweep.self_s": self_s("continuation.sweep"),
        "continuation.log_warnings": traced.log_warnings,
        "groundstate.self_s": self_s("groundstate"),
        "groundstate.write_field_csv.self_s": self_s("groundstate.write_field_csv"),
        "montecarlo.run_paths.calls": calls("montecarlo.run_paths"),
        "montecarlo.path_steps": steps,
        "montecarlo.ns_per_path_step":
            1e9 * total_s("montecarlo.run_paths") / steps if steps else 0.0,
        "montecarlo.truncated": cnt["montecarlo.truncated"],
        "montecarlo.absorbed": cnt["montecarlo.absorbed"],
        "montecarlo.self_s": self_s("montecarlo"),
        "montecarlo.estimator_abs_err": wl.estimator_err(res),
        "cli.write_json.self_s": self_s("cli.write_json"),
        "cli.result_bytes": traced.result_bytes,
        "cli.untraced_s": self_s("cli.run"),
        "trace.overhead_s": traced.wall_s - untraced,
    }
    metrics.update(stall_probe(OU_2D))
    metrics["continuation.sweep.threads1_s"] = time_sweep(wl.fields, 1)

    busiest = sorted(
        ((layer, self_s(layer)) for layer in
         ("model", "discretize", "eigensolve", "continuation", "groundstate", "montecarlo", "cli")),
        key=lambda kv: -kv[1],
    )
    print(f"# traced wall {traced.wall_s:.3f} s, untraced median {untraced:.3f} s "
          f"over {len(bench.repeats) - 1} repeats, {len(tracer.spans())} spans")
    print("# self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in busiest))
    lam_err = abs(wl.reported_lambda(res) - wl.reference(oracles))
    return metrics, outputs_correct(bench, lam_err, res)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if not (SRC / "riskeig" / "__init__.py").is_file():
        print(f"perfbench: no riskeig sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    oracles = load_oracles(ROOT)

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    bench = Bench(wl, args.seed)
    try:
        if args.trace:
            metrics, correct = per_layer(bench, args.seconds, oracles)
        else:
            setup: list[float] = []
            bench.repeat_for(args.seconds, MIN_REPEATS, setup)
            metrics, correct = end_to_end(bench, setup, oracles)
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
        for rep in bench.repeats:
            print(f"# repeat exit={rep.exit_code} wall={rep.wall_s:.4f} s sha256={rep.sha256}"
                  + (" FAILED" if rep.failed else ""))
    for name, value in metrics.items():
        print(f"{name:<42} {value:.6g} {units[name]}")
    report = {
        "correct": bool(correct),
        "attempted": len(bench.repeats),
        "failed": sum(r.failed for r in bench.repeats),
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
