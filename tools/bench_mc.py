"""Timings of the Euler-Maruyama kernel and the verify pipeline, written to a JSON file.

Every row is one fixed config at seed 12345, timed in a fresh interpreter
that imports riskeig from a given ``src/`` directory.  ``--before`` names a
second checkout's ``src/`` whose numbers fill the ``before`` column; the two
sides alternate on each repeat and each cell is the median of ``--repeats``:

    python tools/bench_mc.py --out BENCH_14.json --before OTHER/src
    python tools/bench_mc.py --out BENCH_14.json             # after column only

The ``run_paths`` rows march the ``ou_quadratic`` model at 1, 2 and 8
workers (the ``threads`` argument of the march, which forks at most
``nproc`` workers) and report nanoseconds per marched path-step (a
path stops at its exit step).  The ``ident`` rows time ``ergodic_identity``
itself, the march of ``verify`` and of the c07 acceptance test: it
integrates the cost and G = <grad psi, a grad psi>, interpolated from the
ground state of the r = 8, h = 0.01 grid, inside that grid's window; the
solve is not timed.  The last rows are the wall time of the ``verify``
battery at ``--paths 2000 --horizon 20``, at ``--threads 1`` and ``2``,
interpreter start-up included.
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
    cmd = [sys.executable, str(Path(__file__).resolve()), "--march", row, "--workers", str(workers)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="JSON file to write the rows to")
    parser.add_argument("--before", type=Path, help="src/ of the checkout to compare against")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--march", choices=sorted(MARCHES), help=argparse.SUPPRESS)
    parser.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.march:
        print(json.dumps(_march(args.march, args.workers)))
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
    for row, w in [*((m, w) for m in MARCHES for w in WORKERS), ("verify", 1), ("verify", 2)]:
        samples = {side: [] for side in sides}
        for rep in range(args.repeats):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            for side in order:
                samples[side].append(_measure(sides[side], row, w))
                print(f"{row} x{w} {side}: {samples[side][-1]['value']:.4g}", file=sys.stderr)
        entry = {
            "layer": "cli.verify" if row == "verify" else "montecarlo.run_paths",
            "config": " ".join([*VERIFY, "--threads", str(w)]) if row == "verify"
            else {"name": row, "workers": w, **MARCHES[row]},
            "unit": "s" if row == "verify" else "ns/path-step",
        }
        for side in ("before", "after"):
            vals = [s["value"] for s in samples.get(side, [])]
            entry[side] = statistics.median(vals) if vals else None
            entry[side + "_runs"] = vals
        if row != "verify":
            entry["path_steps"] = samples["after"][0]["path_steps"]
        entry["nproc"] = os.cpu_count()
        rows.append(entry)

    args.out.write_text(
        json.dumps({"seed": SEED, "repeats": args.repeats, "nproc": os.cpu_count(), "rows": rows},
                   indent=2) + "\n"
    )
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
