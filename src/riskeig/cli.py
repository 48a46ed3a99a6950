"""Batch front-end: solve, sweep, certify, and verify pipelines.

Exit codes: 0 pass, 1 check failure, 2 usage or validation, 3 infrastructure
(solver/estimator failure).  Every run writes manifest.json with the resolved
config, its hash, and library versions; outputs are byte-stable for a fixed
(config, seed) pair regardless of --threads.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__
from ._serialize import config_hash, dumps, write_csv, write_json
from .continuation import SweepResult, _summarize
from .continuation import sweep as run_sweep
from .discretize import make_grid
from .eigensolve import solution_residual, solve_hjb_dirichlet
from .errors import RiskeigError
from .groundstate import (
    GroundState,
    classify,
    ergodic_identity,
    ergodicity_certificate,
    exit_check_passes,
    ground_state,
    write_field_csv,
)
from .model import Model, builtin, model_from_config
from .montecarlo import (
    Bump,
    SimConfig,
    _check_bump_box,
    _fork_map,
    exit_exponential_moment,
    exit_representation_check,
    fk_lambda,
    gamma_integral,
    monotonicity_probe,
)

SWEEP_CSV_HEADER = ["radius", "spacing", "lambda", "residual", "policy_sweeps"]


@dataclass
class ExperimentConfig:
    """Fully-resolved run plan; validated before any compute starts."""

    model: dict | str
    radii: tuple = (2.0, 4.0, 6.0, 8.0)
    h: float = 0.01
    r: float | None = None
    tol: float = 1e-6
    eigen_tol: float = 1e-10
    pi_tol: float = 1e-12
    scheme: str = "hybrid"
    paths: int = 10_000
    dt: float = 1e-3
    horizon: float = 50.0
    seed: int = 12345
    kill_radius: float | None = None
    gamma: float = 0.1
    r_cut: float = 1.0
    epsilon: float = 0.1
    bump_lo: float = -1.0
    bump_hi: float = 1.0
    suite: str = "golden"
    threads: int = field(default_factory=lambda: os.cpu_count() or 1)
    out: str = "riskeig_out"

    def build_model(self) -> Model:
        spec = {"builtin": self.model} if isinstance(self.model, str) else self.model
        return model_from_config(spec)

    def sim_config(self) -> SimConfig:
        kill = self.kill_radius if self.kill_radius is not None else 2.0 * max(self.radii)
        return SimConfig(
            dt=self.dt, horizon=self.horizon, paths=self.paths,
            seed=self.seed, kill_radius=kill,
        )

    def validate(self) -> None:
        self.build_model()
        if len(self.radii) == 0 or any(r <= 0 for r in self.radii):
            raise ValueError(f"radii must be positive, got {self.radii}")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError(f"radii must be strictly increasing, got {self.radii}")
        if not self.h > 0:
            raise ValueError("grid spacing must be positive")
        if self.r is not None and not self.r > self.h:
            raise ValueError(f"domain radius {self.r} must exceed the grid spacing {self.h}")
        if not self.radii[0] > self.h:
            raise ValueError(f"every radius must exceed the grid spacing {self.h}, got {self.radii}")
        if self.scheme not in ("hybrid", "upwind"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.gamma > 0:
            raise ValueError(f"certificate bump size gamma must be positive, got {self.gamma}")
        if not self.r_cut > 0:
            raise ValueError(f"certificate ball radius r_cut must be positive, got {self.r_cut}")
        self.sim_config()
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def manifest_dict(self) -> dict:
        # everything that shapes the numbers; output location excluded
        d = {}
        for f in fields(self):
            if f.name == "out":
                continue
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d


def _build_config(config_path: str | None, **flags) -> ExperimentConfig:
    file_values: dict = {}
    if config_path:
        with open(config_path) as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(file_values)
    for key, val in flags.items():
        if val is not None:
            merged[key] = val
    if "model" not in merged:
        raise click.UsageError("no model: pass --model or a --config with a model entry")
    if "radii" in merged:
        merged["radii"] = tuple(float(x) for x in merged["radii"])
    cfg = ExperimentConfig(**merged)
    try:
        cfg.validate()
    except (ValueError, RiskeigError) as exc:
        raise click.UsageError(str(exc)) from exc
    return cfg


def _sweep_kwargs(cfg: ExperimentConfig) -> dict:
    return dict(tol=cfg.tol, pi_tol=cfg.pi_tol, eigen_tol=cfg.eigen_tol,
                scheme=cfg.scheme, threads=cfg.threads)


@dataclass
class _Solved:
    """A pipeline's one solve: the sweep, and the ground state of its top radius."""

    model: Model
    sweep: SweepResult
    gs: GroundState

    def certificate(self, cfg: ExperimentConfig):
        return ergodicity_certificate(
            self.gs, cfg.gamma, cfg.r_cut, saturation_gap=self.sweep.saturation_gap
        )


def _solve(cfg: ExperimentConfig, model: Model) -> _Solved:
    res = run_sweep(model, cfg.radii, cfg.h, **_sweep_kwargs(cfg))
    return _Solved(model=model, sweep=res, gs=ground_state(res.solutions[-1]))


def _parse_radii(ctx, param, value):
    if value is None:
        return None
    try:
        return tuple(float(x) for x in value.split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {value!r}")


def _prepare_out(cfg: ExperimentConfig, command: str) -> Path:
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": cfg.manifest_dict(),
        "config_hash": config_hash(cfg.manifest_dict()),
        "seed": cfg.seed,
        "versions": {
            "riskeig": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    write_json(outdir / "manifest.json", manifest)
    return outdir


def _guard(outdir: Path | None, fn):
    """Run a pipeline step; solver failures exit 3 with machine-readable JSON."""
    try:
        return fn()
    except RiskeigError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        click.echo(dumps(payload).rstrip(), err=True)
        if outdir is not None:
            write_json(outdir / "error.json", payload)
        sys.exit(3)


def common_options(f):
    for opt in reversed([
        click.option("--model", "model", type=str, default=None, help="builtin model name"),
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None),
        click.option("--radii", callback=_parse_radii, default=None, help="comma-separated sweep radii"),
        click.option("--h", "h", type=float, default=None, help="grid spacing"),
        click.option("--tol", type=float, default=None, help="saturation tolerance"),
        click.option("--paths", type=int, default=None),
        click.option("--dt", type=float, default=None),
        click.option("--horizon", type=float, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--threads", type=int, default=None,
                     help="Monte Carlo jobs (verify's marches, other pipelines' chunks of paths) "
                          "run on up to min(threads, cpu_count) forked workers and sweeps "
                          "solve on this many threads; outputs do not depend on it"),
        click.option("--out", type=str, default=None, help="output directory"),
        click.option("--scheme", type=click.Choice(["hybrid", "upwind"]), default=None),
    ]):
        f = opt(f)
    return f


@click.group()
@click.version_option(version=__version__)
def main():
    """Risk-sensitive eigenvalue solver and verification tool."""


@main.command("solve")
@common_options
@click.option("--r", type=float, default=None, help="domain radius")
def cmd_solve(config_path, r, **flags):
    """One Dirichlet HJB solve: eigenvalue, eigenfunction, selector."""
    # merge --r into the config so the manifest records the radius actually used
    cfg = _build_config(config_path, r=r, **flags)
    model = cfg.build_model()
    radius = cfg.r if cfg.r is not None else cfg.radii[-1]
    outdir = _prepare_out(cfg, "solve")

    def run():
        grid = make_grid(model.dim, radius, cfg.h)
        sol = solve_hjb_dirichlet(
            model, grid, tol=cfg.pi_tol, eigen_tol=cfg.eigen_tol, scheme=cfg.scheme
        )
        result = sol.to_json_dict()
        result["hjb_residual"] = solution_residual(model, sol)
        result["lambda_history"] = sol.lambda_history
        write_json(outdir / "result.json", result)
        fdir = outdir / "fields"
        fdir.mkdir(exist_ok=True)
        write_field_csv(fdir / "eigenfunction.csv", grid, {"v": sol.eigenpair.v})
        click.echo(
            f"lambda={result['lambda']:.12g}  residual={result['residual']:.3g}  "
            f"hjb_residual={result['hjb_residual']:.3g}  sweeps={sol.policy_sweeps}"
        )

    _guard(outdir, run)


@main.command("sweep")
@common_options
def cmd_sweep(config_path, **flags):
    """Radius continuation: solve every radius, extrapolate the limit."""
    cfg = _build_config(config_path, **flags)
    model = cfg.build_model()
    outdir = _prepare_out(cfg, "sweep")

    def run():
        res = run_sweep(model, cfg.radii, cfg.h, **_sweep_kwargs(cfg))
        write_csv(outdir / "sweep.csv", SWEEP_CSV_HEADER, map(astuple, res.rows))
        write_json(outdir / "result.json", {
            "rows": res.rows,
            "lambda_star": res.lambda_star,
            "saturation_gap": res.saturation_gap,
            "converged": res.converged,
            "regime": res.regime,
        })
        for row in res.rows:
            click.echo(f"r={row.radius:<6g} lambda={row.lam:.12g}  residual={row.residual:.3g}")
        click.echo(f"{res.regime} = {res.lambda_star:.12g}  (saturation gap {res.saturation_gap:.3g})")

    _guard(outdir, run)


@main.command("certify")
@common_options
@click.option("--gamma", type=float, default=None, help="certificate bump size")
@click.option("--r-cut", type=float, default=None, help="certificate ball radius")
def cmd_certify(config_path, gamma, r_cut, **flags):
    """Ground-state construction and ergodicity classification."""
    cfg = _build_config(config_path, gamma=gamma, r_cut=r_cut, **flags)
    # an abstaining certificate's exit check starts at min(r_cut + 1, R/2)
    if not cfg.r_cut < 0.5 * cfg.radii[-1]:
        raise click.UsageError(f"r_cut={cfg.r_cut} must be below half the top radius {cfg.radii[-1]}")
    model = cfg.build_model()
    outdir = _prepare_out(cfg, "certify")

    def run():
        ctx = _solve(cfg, model)
        sol = ctx.gs.sol
        cert = ctx.certificate(cfg)
        exit_check = None
        if cert.classification != "geometric-certified":
            x0 = np.zeros(model.dim)
            x0[0] = min(cfg.r_cut + 1.0, 0.5 * sol.grid.radius)
            exit_check = exit_representation_check(
                model, sol, cfg.r_cut, x0, cfg.sim_config(), threads=cfg.threads,
            )
        label = classify(cert, exit_check)

        write_json(outdir / "result.json", {
            "classification": label,
            "lambda": sol.eigenpair.eigenvalue,
            "regime": ctx.sweep.regime,
            "saturation_gap": ctx.sweep.saturation_gap,
            "certificate": cert,
            "exit_check": exit_check,
        })
        fdir = outdir / "fields"
        fdir.mkdir(exist_ok=True)
        write_field_csv(fdir / "ground_state.csv", sol.grid, {
            "psi": ctx.gs.psi, "grad_psi": ctx.gs.grad_psi, "twisted_drift": ctx.gs.drift,
            "lyapunov": cert.lyapunov,
        })
        click.echo(f"classification: {label}  (delta_hat={cert.delta_hat:.6g}, "
                   f"noise floor {cert.noise_floor:.3g})")

    _guard(outdir, run)


# ---------------------------------------------------------------------------
# verify: the golden battery


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    target: float
    tol: float
    detail: object = field(default_factory=dict)   # a dict or a report dataclass


def _golden_battery(cfg: ExperimentConfig) -> list[CheckResult]:
    """The full statistical battery on the quadratic benchmark.

    Tolerances are the declared acceptance tolerances.  The PDE work runs
    first: the benchmark solve, its certificate, the probes' base and both
    probes, then the double-well solve.  The seven Monte Carlo marches then
    run as jobs of one fork pool of up to --threads workers, each march whole
    on one worker at threads=1, so every report is the one a sequential run
    gives.  The PDE checks do not depend on paths/horizon; the Monte Carlo
    ones can fail at reduced scale: at --paths 2000 --horizon 20
    fk-cross-validation reads about 0.30 against 0.25 +- 0.05 (ROADMAP item 1).
    """
    model = cfg.build_model()
    sim = cfg.sim_config()
    threads = cfg.threads

    ou = _solve(cfg, model)
    res, sol = ou.sweep, ou.gs.sol
    lam_top = sol.eigenpair.eigenvalue
    cert = ou.certificate(cfg)
    # the probes' base sweep is the first radii of ours: each radius is an
    # independent solve, so its rows are the ones a fresh sweep would give
    base = _summarize(model, res.solutions[:3], cfg.h, cfg.tol)
    probe = monotonicity_probe(
        model, Bump(epsilon=cfg.epsilon, lo=cfg.bump_lo, hi=cfg.bump_hi), base, threads=threads
    )
    flat = monotonicity_probe(model, Bump(epsilon=0.3), base, threads=threads)
    dw = _solve(cfg, builtin("double_well"))

    x0 = np.zeros(model.dim)
    x0[0] = 2.0
    # Euler's invariant-measure bias for the identity terms scales like dt/8;
    # dt=0.004 keeps it under one standard error at the default path count
    ident_sim = replace(sim, dt=max(sim.dt, 0.004))
    flat_cost = model.with_cost(lambda x, u: np.full(len(model.points(x)), 0.5), label="flat")
    # one job per march, longest first so the pool ends close to the longest
    # march; each estimator runs at its default threads=1, so no job forks
    # again.  The comments give each march's seconds alone at --paths 2000
    # --horizon 20, seed 1, on a 2-core host
    marches = (
        # start away from the origin: the finite-horizon prefactor log Psi(x0)/T
        # offsets the downward tail-undersampling bias of the plain FK mean
        lambda: fk_lambda(model, sol, np.full(model.dim, 2.5), sim),                # 1.91 s
        lambda: ergodic_identity(dw.model, dw.gs, ident_sim),                       # 1.66 s
        # past T ~ 15 the plateau is carried by tail paths the ensemble no longer
        # resolves and the raw mean decays; probe the plateau inside that window
        lambda: gamma_integral(model, sol, lam_top, np.zeros(model.dim),
                               replace(sim, horizon=min(sim.horizon, 12.0))),       # 1.19 s
        lambda: ergodic_identity(model, ou.gs, ident_sim),                          # 0.73 s
        lambda: gamma_integral(flat_cost, None, 1.5, np.zeros(model.dim),
                               replace(sim, paths=min(sim.paths, 256))),            # 0.61 s
        lambda: exit_representation_check(model, sol, 1.0, x0, sim),                # 0.28 s
        lambda: exit_exponential_moment(
            model, sol, lam_top, max(cert.delta_hat / 2.0, 1e-6), 1.0, x0, sim),    # 0.28 s
    )
    fk, dw_ident, gam, ident, sub, exit_check, moment = _fork_map(
        lambda i: marches[i](), len(marches), threads
    )

    chain = bool(np.all(res.lambdas <= fk.value + 3.0 * fk.stderr))
    rate_ok = bool(abs(sub.fitted_rate - 1.0) <= 0.1 and sub.verdict == "convergent-suspected")
    return [
        CheckResult(
            name="eigenvalue-extrapolation",
            passed=bool(abs(res.lambda_star - 0.25) <= 1e-2 and np.all(res.lambdas < 0.25)),
            value=res.lambda_star, target=0.25, tol=1e-2,
            detail={"lambdas": [float(x) for x in res.lambdas], "regime": res.regime},
        ),
        CheckResult(
            name="fk-cross-validation",
            passed=bool(abs(fk.value - 0.25) <= 5e-2 and chain),
            value=fk.value, target=0.25, tol=5e-2,
            detail={"stderr": fk.stderr, "ordering_chain": chain,
                    "truncated_fraction": fk.truncated_fraction},
        ),
        CheckResult(
            name="exit-representation",
            passed=exit_check_passes(exit_check),
            value=exit_check.value, target=1.0, tol=3.0 * exit_check.stderr,
            detail=exit_check,
        ),
        CheckResult(
            name="geometric-certificate",
            passed=bool(cert.classification == "geometric-certified"),
            value=cert.delta_hat, target=cert.noise_floor, tol=0.0,
            detail=cert,
        ),
        CheckResult(
            name="exit-exponential-moment",
            passed=bool(moment.verdict == "finite-consistent"),
            value=moment.estimate.value, target=float("nan"), tol=float("nan"),
            detail=moment,
        ),
        CheckResult(
            name="gamma-integral",
            passed=bool(gam.verdict == "divergent-consistent" and rate_ok),
            value=gam.plateau, target=float("nan"), tol=float("nan"),
            detail={"benchmark": gam, "subcritical": sub},
        ),
        CheckResult(
            name="monotonicity-probe",
            passed=bool(probe.strict and probe.gap > 1e-3 and abs(flat.gap - 0.3) <= 1e-6),
            value=probe.gap, target=1e-3, tol=0.0,
            detail={"bump": probe, "constant_bump": flat},
        ),
        CheckResult(
            name="ergodic-identity",
            passed=bool(
                ident.abs_gap <= 3.0 * ident.stderr and dw_ident.abs_gap <= 3.0 * dw_ident.stderr
            ),
            value=ident.total, target=lam_top, tol=3.0 * ident.stderr,
            detail={"benchmark": ident, "double_well": dw_ident},
        ),
    ]


@main.command("verify")
@common_options
@click.option("--suite", type=click.Choice(["golden"]), default=None)
def cmd_verify(config_path, suite, **flags):
    """Run the statistical verification battery and report pass/fail."""
    cfg = _build_config(config_path, suite=suite, **flags)
    if cfg.model not in ("ou_quadratic", {"builtin": "ou_quadratic"}):
        raise click.UsageError("the golden suite is defined on the ou_quadratic benchmark")
    try:
        _check_bump_box(Bump(cfg.epsilon, cfg.bump_lo, cfg.bump_hi), cfg.radii)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    outdir = _prepare_out(cfg, "verify")

    def run():
        checks = _golden_battery(cfg)
        ok = all(c.passed for c in checks)
        write_json(outdir / "result.json", {
            "suite": cfg.suite,
            "passed": ok,
            "checks": checks,
        })
        width = max(len(c.name) for c in checks)
        for c in checks:
            click.echo(f"{c.name:<{width}}  {'PASS' if c.passed else 'FAIL'}")
        click.echo(("all checks passed" if ok else "some checks FAILED"))
        if not ok:
            sys.exit(1)

    _guard(outdir, run)


if __name__ == "__main__":
    main()
