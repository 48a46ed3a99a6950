"""Timings of the Euler-Maruyama kernel, HJB solves, radius sweeps, certificates and verify, as JSON.

Every row is one fixed config at seed 12345, timed in a fresh interpreter
that imports riskeig from a given ``src/`` directory.  ``--before`` names a
second checkout's ``src/`` whose numbers fill the ``before`` column; the two
sides alternate on each repeat and each cell is the median of ``--repeats``.
A row's ``after_wins`` counts the repeats whose after run was below the
before run of the same pair:

    python tools/bench_mc.py --out BENCH_16.json --before OTHER/src
    python tools/bench_mc.py --out BENCH_16.json             # after column only
    python tools/bench_mc.py --out B.json --rows solve-lq-r8 sweep-lq-1d   # some rows
    python tools/bench_mc.py --out BENCH_18.json --before OTHER/src --repeats 10 \
        --rows cert-lq-1d cert-ou-2d exit-ou-2d
    python tools/bench_mc.py --out BENCH_20.json --before OTHER/src --repeats 10 \
        --rows pool-3x2 sweep-ou-2d sweep-lq-1d exit-ou-2d

The ``run_paths`` rows march the ``ou_quadratic`` model at 1, 2 and 8
workers (the ``threads`` argument of the march, which forks at most
``nproc`` workers) and report nanoseconds per marched path-step (a
path stops at its exit step).  The ``ident`` rows time ``ergodic_identity``
itself, the march of ``verify`` and of the c07 acceptance test: it
integrates the cost and G = <grad psi, a grad psi>, interpolated from the
ground state of the r = 8, h = 0.01 grid, inside that grid's window; the
solve is not timed.  The ``solve`` rows time one ``solve_hjb_dirichlet`` of
``lq_clamped`` on the r = 8, h = 0.01 grid, at 101 actions (the default) and
at 1001, in milliseconds per solve: the mean of three solves after an untimed
one on the same grid.  The ``sweep`` rows time ``continuation.sweep`` at 1 and
2 workers, in milliseconds per sweep, on the sweeps of two perfbench
workloads: hjb-1d's (``lq_clamped``, radii 2, 4, 6, 8, h = 0.01) and
ground-2d's (2-D OU, radii 2, 3, 4, h = 0.1), at the CLI's default
tolerances and scheme.  The ``cert`` rows time ``certify``'s
``ergodicity_certificate`` on the top solve of those two sweeps (gamma =
0.1, r_cut = 1, the CLI's defaults), in milliseconds per certificate: the
mean of three after an untimed one; they also report the Noda steps of the
certificate's eigensolve.  The sweep is not timed.  The ``exit-ou-2d`` row is
ground-2d's exit march at 1 and 2 workers: 2000 2-D OU paths from (2, 0),
absorbed in the ball of radius r_cut = 1 within T = 20 at dt = 1e-3,
integrating f - lambda of the r = 4, h = 0.1 solve, in nanoseconds per
marched path-step.  The ``pool`` rows time the fork pool itself: one
``_fork_map`` call of 3 jobs at 2 workers, from a parent whose resident set
is brought to 80 MB, with jobs that return None and jobs that return 0.5 MB
arrays, in milliseconds per call: the mean of 20 calls after an untimed one.
The parent's peak RSS is reported beside them.
The last rows are the wall time of the ``verify`` battery at ``--paths 2000
--horizon 20``, at ``--threads 1`` and ``2``, interpreter start-up included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 12345

# row name -> run_paths config; "absorb" is the radius of the absorbing ball,
# "grid_r" the radius of the ground state whose G the march integrates
MARCHES = {
    "ou-4096x5000": {"x0": 0.0, "paths": 4096, "horizon": 5.0, "dt": 1e-3, "absorb": None},
    "fk-2000x20000": {"x0": 2.5, "paths": 2000, "horizon": 20.0, "dt": 1e-3, "absorb": None},
    "exit-2000-r1": {"x0": 2.0, "paths": 2000, "horizon": 20.0, "dt": 1e-3, "absorb": 1.0},
    "ident-2000x5000": {"x0": 0.0, "paths": 2000, "horizon": 20.0, "dt": 0.004, "absorb": None,
                        "grid_r": 8.0},
    "ident-10000x2500": {"x0": 0.0, "paths": 10_000, "horizon": 5.0, "dt": 0.002, "absorb": None,
                         "grid_r": 8.0},
}
# worker counts of the march rows, the threads argument of run_paths
WORKERS = (1, 2, 8)
OU_2D = {"dim": 2, "drift": {"family": "ou"}, "cost": {"family": "quadratic", "kappa": 0.375}}
# row name -> the sweep's ExperimentConfig fields
SWEEPS = {
    "sweep-lq-1d": {"model": "lq_clamped", "radii": (2.0, 4.0, 6.0, 8.0), "h": 0.01},
    "sweep-ou-2d": {"model": OU_2D, "radii": (2.0, 3.0, 4.0), "h": 0.1},
}
SWEEP_WORKERS = (1, 2)
# row name -> the lq_clamped grid radius; the rows run at each action count
SOLVES = {"solve-lq-r8": 8.0}
SOLVE_ACTIONS = (101, 1001)
SOLVE_REPEATS = 3
# row name -> the sweep row whose top solve the certificate bumps
CERTS = {"cert-lq-1d": "sweep-lq-1d", "cert-ou-2d": "sweep-ou-2d"}
CERT_REPEATS = 3
# row name -> (the sweep row of the solve, x0); certify's exit march starts at
# min(r_cut + 1, R/2) on the first axis and ends in the ball of radius r_cut
EXITS = {"exit-ou-2d": ("sweep-ou-2d", (2.0, 0.0))}
EXIT_PATHS, EXIT_HORIZON = 2000, 20.0
EXIT_WORKERS = (1, 2)
# row name -> (jobs, workers, MB the parent holds); the rows run at each result size
POOLS = {"pool-3x2": (3, 2, 80)}
POOL_RESULT_KB = (0, 512)   # 0: the jobs return None
POOL_CALLS = 20
VERIFY = ["verify", "--model", "ou_quadratic", "--paths", "2000", "--horizon", "20",
          "--seed", str(SEED)]


def _march(name: str, workers: int) -> dict:
    """Time one run_paths config at a worker count in this interpreter."""
    import numpy as np

    from riskeig import (SimConfig, builtin, ergodic_identity, ground_state, make_grid,
                         solve_hjb_dirichlet)
    from riskeig import groundstate
    from riskeig.montecarlo import _resolve, _sigma_action, run_paths

    spec = MARCHES[name]
    model = builtin("ou_quadratic")
    drift_fn, cost_fn = _resolve(model, None)
    cfg = SimConfig(dt=spec["dt"], horizon=spec["horizon"], paths=spec["paths"], seed=SEED)
    if "grid_r" in spec:
        gs = ground_state(solve_hjb_dirichlet(model, make_grid(1, spec["grid_r"], 0.01)))
        batches = []

        def keep_batch(*args, **kwargs):
            # the identity keeps no batch, so catch the one it marches
            batches.append(run_paths(*args, **kwargs))
            return batches[-1]

        groundstate.run_paths = keep_batch
        start = time.perf_counter()
        ergodic_identity(model, gs, cfg, threads=workers)
        seconds = time.perf_counter() - start
        (batch,) = batches
        cfg = batch.cfg
    else:
        integrands = (cost_fn,)
        if spec["absorb"] is not None:
            # the exit march integrates f - lambda with the model's closed-form lambda
            integrands = (lambda x: cost_fn(x) - 0.25,)
        start = time.perf_counter()
        batch = run_paths(
            drift_fn, _sigma_action(model), np.array([spec["x0"]]), cfg, model.dim,
            integrands=integrands, absorb_radius=spec["absorb"], threads=workers,
        )
        seconds = time.perf_counter() - start
    steps = np.where(batch.exit_step >= 0, batch.exit_step, cfg.n_steps)
    return {"seconds": seconds, "path_steps": int(steps.sum()),
            "value": 1e9 * seconds / int(steps.sum())}


def _sweep(name: str, workers: int) -> dict:
    """Time one sweep config at a worker count in this interpreter, in milliseconds."""
    from riskeig.cli import ExperimentConfig
    from riskeig.continuation import sweep

    cfg = ExperimentConfig(**SWEEPS[name])
    model = cfg.build_model()
    start = time.perf_counter()
    sweep(model, cfg.radii, cfg.h, tol=cfg.tol, pi_tol=cfg.pi_tol, eigen_tol=cfg.eigen_tol,
          scheme=cfg.scheme, threads=workers)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "value": 1e3 * seconds}


def _solve(name: str, actions: int) -> dict:
    """Time solves of one grid at an action count in this interpreter, in ms per solve."""
    from riskeig import builtin, make_grid, solve_hjb_dirichlet

    model = builtin("lq_clamped", n_actions=actions)
    grid = make_grid(1, SOLVES[name], 0.01)
    solve_hjb_dirichlet(model, grid)
    start = time.perf_counter()
    for _ in range(SOLVE_REPEATS):
        solve_hjb_dirichlet(model, grid)
    seconds = (time.perf_counter() - start) / SOLVE_REPEATS
    return {"seconds": seconds, "value": 1e3 * seconds}


def _certify_context(sweep_row: str, **fields):
    """certify's solved context for a sweep row's config, solved serially and untimed."""
    from riskeig.cli import ExperimentConfig, _solve

    cfg = ExperimentConfig(**SWEEPS[sweep_row], seed=SEED, threads=1, **fields)
    return cfg, _solve(cfg, cfg.build_model())


def _certificate(name: str, _param: int) -> dict:
    """Time certify's certificate on a sweep's top solve, in ms, and count its Noda steps."""
    from riskeig import groundstate

    cfg, ctx = _certify_context(CERTS[name])
    steps = []
    solve = groundstate.principal_eigenpair

    def counted(*args, **kwargs):
        pair = solve(*args, **kwargs)
        steps.append(pair.iterations)
        return pair

    groundstate.principal_eigenpair = counted
    ctx.certificate(cfg)
    start = time.perf_counter()
    for _ in range(CERT_REPEATS):
        ctx.certificate(cfg)
    seconds = (time.perf_counter() - start) / CERT_REPEATS
    return {"seconds": seconds, "value": 1e3 * seconds, "noda_steps": steps[0]}


def _exit_march(name: str, workers: int) -> dict:
    """Time certify's exit march at a worker count, in ns per marched path-step."""
    import numpy as np

    from riskeig.montecarlo import _march_to_ball

    sweep_row, x0 = EXITS[name]
    cfg, ctx = _certify_context(sweep_row, paths=EXIT_PATHS, horizon=EXIT_HORIZON)
    sol = ctx.gs.sol
    sim = cfg.sim_config()
    start = time.perf_counter()
    _, batch, _ = _march_to_ball(ctx.model, sol, sol.eigenpair.eigenvalue, 0.0, cfg.r_cut,
                                 np.array(x0), sim, workers)
    seconds = time.perf_counter() - start
    steps = int(np.where(batch.exit_step >= 0, batch.exit_step, sim.n_steps).sum())
    return {"seconds": seconds, "path_steps": steps, "value": 1e9 * seconds / steps}


def _pool(name: str, kb: int) -> dict:
    """Time _fork_map calls whose jobs return kb-sized arrays, in ms per call."""
    import numpy as np

    from riskeig.montecarlo import _fork_map

    jobs, workers, parent_mb = POOLS[name]
    # float64 ballast, every page touched, that brings the parent's RSS to parent_mb
    ballast = np.ones(max(0, parent_mb - _rss_mb()) << 17)
    job = (lambda i: None) if kb == 0 else (lambda i: np.full(kb << 7, float(i)))
    _fork_map(job, jobs, workers)
    start = time.perf_counter()
    for _ in range(POOL_CALLS):
        _fork_map(job, jobs, workers)
    seconds = (time.perf_counter() - start) / POOL_CALLS
    rss = _rss_mb()
    del ballast
    return {"seconds": seconds, "value": 1e3 * seconds, "parent_rss_mb": rss}


def _rss_mb() -> int:
    """This process's peak resident set, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10


TIMED = {**dict.fromkeys(MARCHES, _march), **dict.fromkeys(SOLVES, _solve),
         **dict.fromkeys(SWEEPS, _sweep), **dict.fromkeys(CERTS, _certificate),
         **dict.fromkeys(EXITS, _exit_march), **dict.fromkeys(POOLS, _pool)}


def _measure(src: Path, row: str, workers: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    if row == "verify":
        with tempfile.TemporaryDirectory(prefix="riskeig-bench-") as tmp:
            cmd = [sys.executable, "-m", "riskeig.cli", *VERIFY, "--threads", str(workers),
                   "--out", tmp]
            start = time.perf_counter()
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            seconds = time.perf_counter() - start
        # exit 1 is a failed statistical check, still a complete run
        if proc.returncode not in (0, 1):
            sys.exit(f"verify exited {proc.returncode}:\n{proc.stderr}")
        return {"seconds": seconds, "value": seconds}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--row", row, "--param", str(workers)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="JSON file to write the rows to")
    parser.add_argument("--before", type=Path, help="src/ of the checkout to compare against")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--rows", nargs="+", choices=[*TIMED, "verify"],
                        help="time only these rows (default: all)")
    parser.add_argument("--row", choices=sorted(TIMED), help=argparse.SUPPRESS)
    parser.add_argument("--param", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.row:
        print(json.dumps(TIMED[args.row](args.row, args.param)))
        return
    if args.out is None:
        parser.error("--out is required")

    sides = {"after": ROOT / "src"}
    if args.before is not None:
        sides["before"] = args.before.resolve()
    for src in sides.values():
        if not (src / "riskeig" / "__init__.py").is_file():
            sys.exit(f"no riskeig package under {src}")

    rows = []
    # (row, its worker count, a solve row's action count or a pool row's result
    # size in KB), passed on as --param
    plan = [*((m, w) for m in MARCHES for w in WORKERS),
            *((s, k) for s in SOLVES for k in SOLVE_ACTIONS),
            *((s, w) for s in SWEEPS for w in SWEEP_WORKERS), *((c, 1) for c in CERTS),
            *((e, w) for e in EXITS for w in EXIT_WORKERS),
            *((p, kb) for p in POOLS for kb in POOL_RESULT_KB), ("verify", 1), ("verify", 2)]
    for row, w in plan:
        if args.rows and row not in args.rows:
            continue
        samples = {side: [] for side in sides}
        for rep in range(args.repeats):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            for side in order:
                samples[side].append(_measure(sides[side], row, w))
                print(f"{row} x{w} {side}: {samples[side][-1]['value']:.4g}", file=sys.stderr)
        if row == "verify":
            entry = {"layer": "cli.verify", "config": " ".join([*VERIFY, "--threads", str(w)]),
                     "unit": "s"}
        elif row in SOLVES:
            entry = {"layer": "eigensolve.solve_hjb_dirichlet",
                     "config": {"name": row, "model": "lq_clamped", "actions": w,
                                "r": SOLVES[row], "h": 0.01}, "unit": "ms"}
        elif row in SWEEPS:
            entry = {"layer": "continuation.sweep",
                     "config": {"name": row, "workers": w, **SWEEPS[row]}, "unit": "ms"}
        elif row in CERTS:
            entry = {"layer": "groundstate.ergodicity_certificate",
                     "config": {"name": row, **SWEEPS[CERTS[row]], "gamma": 0.1, "r_cut": 1.0},
                     "unit": "ms"}
        elif row in EXITS:
            sweep_row, x0 = EXITS[row]
            entry = {"layer": "montecarlo.run_paths",
                     "config": {"name": row, "workers": w, "model": OU_2D,
                                "r": SWEEPS[sweep_row]["radii"][-1], "h": SWEEPS[sweep_row]["h"],
                                "x0": x0, "paths": EXIT_PATHS, "horizon": EXIT_HORIZON,
                                "dt": 1e-3, "absorb": 1.0},
                     "unit": "ns/path-step"}
        elif row in POOLS:
            jobs, workers, parent_mb = POOLS[row]
            entry = {"layer": "montecarlo._fork_map",
                     "config": {"name": row, "jobs": jobs, "workers": workers,
                                "result_kb": w, "parent_mb": parent_mb}, "unit": "ms"}
        else:
            entry = {"layer": "montecarlo.run_paths",
                     "config": {"name": row, "workers": w, **MARCHES[row]}, "unit": "ns/path-step"}
        for side in ("before", "after"):
            vals = [s["value"] for s in samples.get(side, [])]
            entry[side] = statistics.median(vals) if vals else None
            entry[side + "_runs"] = vals
        if row in MARCHES or row in EXITS:
            entry["path_steps"] = samples["after"][0]["path_steps"]
        if row in POOLS:
            entry["parent_rss_mb"] = {side: samples[side][0]["parent_rss_mb"] for side in sides}
        if row in CERTS:
            entry["noda_steps"] = {side: samples[side][0]["noda_steps"] for side in sides}
        entry["after_wins"] = (
            sum(a < b for a, b in zip(entry["after_runs"], entry["before_runs"]))
            if "before" in sides else None
        )
        entry["nproc"] = os.cpu_count()
        rows.append(entry)

    args.out.write_text(
        json.dumps({"seed": SEED, "repeats": args.repeats, "nproc": os.cpu_count(), "rows": rows},
                   indent=2) + "\n"
    )
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
