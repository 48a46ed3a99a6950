"""Diagnostics of the ground state of a solve.

psi = log of the eigenfunction turns the multiplicative eigenproblem into an
additive one; the drift corrected by a grad(psi) drives the ground-state
("twisted") diffusion whose recurrence properties are what the certificates
and simulation checks below interrogate.  A solve (``HjbSolution``) carries
psi, its gradient and the twisted drift itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._serialize import write_csv
from .discretize import Grid, assemble_fields
from .eigensolve import HjbSolution, principal_eigenpair
from .errors import InvariantError
from .model import Model
from .montecarlo import FkEstimate, SimConfig, _resolve, _sigma_action, field_interpolant, run_paths


@dataclass
class CertificateReport:
    classification: str
    delta_hat: float
    lambda_base: float
    lambda_bumped: float
    gamma: float
    r_cut: float
    noise_floor: float
    drift_check_max: float
    checked_nodes: int
    # written to the fields CSV, not to result.json
    lyapunov: np.ndarray = field(repr=False, default=None, metadata={"json": None})


def ergodicity_certificate(
    sol: HjbSolution, gamma: float, r_cut: float, saturation_gap: float = 0.0
) -> CertificateReport:
    """Foster-Lyapunov certificate for the twisted diffusion.

    Dropping the potential by gamma inside the ball of radius r_cut lowers
    the principal eigenvalue by delta_hat; the eigenfunction ratio
    V = (bumped)/(base) then satisfies a drift inequality for the twisted
    generator, verified nodewise outside the ball with margin delta_hat/2.
    delta_hat below three saturation gaps is treated as discretization noise
    and the certificate abstains.  Transience is never certified here.
    Everything is read off the solve ``sol``: exp(psi), the twisted drift,
    and its eigenvalue, eigenvector, coefficients, scheme and eigensolve
    tolerance, so the model is not evaluated again.  The bumped
    eigensolve starts from the solve's eigenvector, a gamma-perturbation
    away, which takes it to the same tolerance in fewer Noda steps than a
    start from all ones in 1-D (in 2-D the Arnoldi start makes either one
    factorization); lambda_bumped agrees with a cold start's to within that
    tolerance, not bit for bit.
    """
    if not gamma > 0:
        raise ValueError(f"bump size gamma must be positive, got {gamma}")
    grid = sol.grid
    lam = sol.eigenpair.eigenvalue
    v = np.exp(sol.psi)

    inside = np.linalg.norm(grid.nodes, axis=1) <= r_cut
    op = assemble_fields(grid, sol.b, sol.c - gamma * inside, sol.a, scheme=sol.scheme)
    pair = principal_eigenpair(op, sol.eigen_tol, v0=sol.eigenpair.v)
    delta_hat = lam - pair.eigenvalue

    lyap = pair.v / v

    op_tw = assemble_fields(grid, sol.twisted_drift, np.zeros(grid.n), sol.a, scheme=sol.scheme)

    # margin check L* V <= -(delta_hat/2) V strictly outside the bump ball;
    # skip the outermost ring, where the Dirichlet wall distorts the stencil
    check = grid.interior_mask() & ~inside
    resid = (op_tw.entries @ lyap + 0.5 * delta_hat * lyap) / lyap
    drift_check_max = float(np.max(resid[check])) if check.any() else math.inf

    noise_floor = 3.0 * (saturation_gap if math.isfinite(saturation_gap) else 0.0)
    certified = delta_hat > noise_floor and drift_check_max <= 1e-9
    return CertificateReport(
        classification="geometric-certified" if certified else "inconclusive",
        delta_hat=float(delta_hat),
        lambda_base=float(lam),
        lambda_bumped=float(pair.eigenvalue),
        gamma=float(gamma),
        r_cut=float(r_cut),
        noise_floor=float(noise_floor),
        drift_check_max=drift_check_max,
        checked_nodes=int(check.sum()),
        lyapunov=lyap,
    )


def exit_check_passes(est: FkEstimate) -> bool:
    """The exit representation holds: ratio within 3 stderr of 1, under 1% of paths lost."""
    return bool(abs(est.value - 1.0) <= 3.0 * est.stderr and est.truncated_fraction < 0.01)


def classify(certificate: CertificateReport, exit_check: FkEstimate | None = None) -> str:
    """Combine PDE and simulation evidence into one classification token.

    The certificate alone can certify geometric ergodicity; a passing exit
    representation certifies plain recurrence.  Anything else stays
    inconclusive.
    """
    if certificate.classification == "geometric-certified":
        return "geometric-certified"
    if exit_check is not None and exit_check_passes(exit_check):
        return "recurrent-certified"
    return "inconclusive"


@dataclass
class IdentityReport:
    mu_f: float
    half_mu_G: float
    total: float = field(metadata={"json": "sum"})
    lam: float = field(metadata={"json": "lambda"})
    abs_gap: float
    stderr: float
    stderr_f: float
    stderr_G: float
    paths_used: int
    truncated_fraction: float
    warnings: list[str] = field(default_factory=list)


def ergodic_identity(
    model: Model,
    sol: HjbSolution,
    cfg: SimConfig,
    threads: int = 1,
) -> IdentityReport:
    """Occupation check of half mu(|sigma^T grad psi|^2) + mu(f) = lambda.

    mu is sampled by time-averaging the base (untwisted) diffusion under the
    solve's policy, from the origin, after a warm-up of a tenth of the
    horizon; G = <grad psi, a grad psi> is interpolated from the grid and
    lambda is the solve's eigenvalue.  Paths leaving the grid window are
    dropped from the averages and flagged.
    """
    grad = sol.grad_psi
    grid, lam = sol.grid, sol.eigenpair.eigenvalue
    g_nodes = np.einsum("nd,nde,ne->n", grad, sol.a, grad)

    drift_fn, cost_fn = _resolve(model, sol)
    g_fn = field_interpolant(grid, g_nodes)

    # clamp the window to the grid so the interpolants never extrapolate
    cfg_run = replace(cfg, kill_radius=min(cfg.kill_radius, grid.radius))
    warm_step = max(1, int(round(cfg_run.n_steps * 0.1)))
    batch = run_paths(
        drift_fn, _sigma_action(model), np.zeros(model.dim), cfg_run,
        integrands=(cost_fn, g_fn), snapshot_steps=(warm_step,), threads=threads,
    )

    keep = ~batch.truncated
    n_used = int(keep.sum())
    warnings_out: list[str] = []
    trunc_frac = 1.0 - n_used / cfg_run.paths
    if trunc_frac > 0:
        warnings_out.append(
            f"{trunc_frac:.2%} of paths left the grid window and were dropped"
        )
    if n_used == 0:
        raise InvariantError("all paths escaped the grid window")

    span = (cfg_run.n_steps - warm_step) * cfg_run.dt
    warm = batch.snapshots[warm_step]["integrals"]
    avg_f = (batch.integrals[0][keep] - warm[0][keep]) / span
    avg_g = (batch.integrals[1][keep] - warm[1][keep]) / span

    mu_f = float(np.mean(avg_f))
    half_g = 0.5 * float(np.mean(avg_g))
    combined = avg_f + 0.5 * avg_g
    se = float(np.std(combined, ddof=1) / math.sqrt(n_used)) if n_used > 1 else math.inf
    se_f = float(np.std(avg_f, ddof=1) / math.sqrt(n_used)) if n_used > 1 else math.inf
    se_g = float(np.std(0.5 * avg_g, ddof=1) / math.sqrt(n_used)) if n_used > 1 else math.inf
    total = mu_f + half_g
    return IdentityReport(
        mu_f=mu_f,
        half_mu_G=half_g,
        total=total,
        lam=float(lam),
        abs_gap=abs(total - lam),
        stderr=se,
        stderr_f=se_f,
        stderr_G=se_g,
        paths_used=n_used,
        truncated_fraction=trunc_frac,
        warnings=warnings_out,
    )


def write_field_csv(path, grid: Grid, columns: dict[str, np.ndarray]):
    """Node coordinates plus named fields, one row per node (plot-ready)."""
    names: list[str] = [f"x{d + 1}" for d in range(grid.dim)]
    cols: list[np.ndarray] = [grid.nodes[:, d] for d in range(grid.dim)]
    for name, values in columns.items():
        values = np.asarray(values)
        if values.ndim == 1:
            names.append(name)
            cols.append(values)
        else:
            for d in range(values.shape[1]):
                names.append(f"{name}_{d + 1}")
                cols.append(values[:, d])
    write_csv(path, names, cols)
