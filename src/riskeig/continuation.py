"""Domain continuation: sweep Dirichlet radii and extrapolate the limit.

The principal Dirichlet eigenvalue is nondecreasing in the radius and
converges (geometrically for confining drifts) to the whole-space value, so a
short increasing sweep plus a geometric tail fit gives the limit estimate and
the last increment gives the saturation diagnostic.  The radii are
independent solves, the jobs of the package's one fork pool,
``montecarlo._fork_map``, each solved in a forked child and sent back whole.
The strictness probe lives here too: it is a sweep of the bumped cost,
compared with the base sweep's limit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import make_grid
from .eigensolve import (
    DEFAULT_EIGEN_TOL,
    DEFAULT_PI_TOL,
    HjbSolution,
    solve_hjb_dirichlet,
)
from .errors import InvariantError
from .model import Model, check_coefficient_bounds
from .montecarlo import _fork_map

log = logging.getLogger(__name__)

# monotonicity slack: discretization error moves each lambda_r by O(h^2), so
# tiny inversions between nearly-saturated radii are noise, not a bug
MONOTONE_SLACK = 1e-8

REGIME_WHOLE_SPACE = "Lambda*"
REGIME_DIRICHLET_LIMIT = "Dirichlet limit lambda*"


@dataclass(frozen=True)
class SweepRow:
    radius: float
    spacing: float
    lam: float = field(metadata={"json": "lambda"})
    residual: float
    policy_sweeps: int


@dataclass
class SweepResult:
    rows: list[SweepRow]
    lambda_star: float
    saturation_gap: float
    converged: bool
    regime: str
    solutions: list[HjbSolution]

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([r.lam for r in self.rows])


def estimate_lambda_star(rows: list[SweepRow]) -> float:
    """Geometric tail extrapolation from the last three sweep rows.

    With increments d_k = lam_k - lam_{k-1} shrinking by a roughly constant
    ratio q, the remaining mass is d_last * q / (1 - q).  Falls back to the
    last eigenvalue when the tail is not usably geometric.
    """
    if len(rows) < 3:
        raise ValueError("extrapolation needs at least three sweep rows")
    l1, l2, l3 = (r.lam for r in rows[-3:])
    d1, d2 = l2 - l1, l3 - l2
    if d1 <= 0 or d2 <= 0:
        log.info("sweep tail already flat; returning last eigenvalue")
        return l3
    q = d2 / d1
    if not 0.0 < q < 1.0:
        log.warning("tail ratio %.3g outside (0,1); returning last eigenvalue", q)
        return l3
    return max(l3 + d2 * q / (1.0 - q), l3)


def sweep(
    model: Model,
    radii: tuple[float, ...],
    spacing: float,
    tol: float = 1e-6,
    pi_tol: float = DEFAULT_PI_TOL,
    eigen_tol: float = DEFAULT_EIGEN_TOL,
    scheme: str = "hybrid",
    threads: int = 1,
) -> SweepResult:
    """Solve the Dirichlet problem on an increasing family of radii.

    ``tol`` is the saturation target: the sweep counts as converged once the
    last eigenvalue increment falls below it.  Radii are independent solves:
    they are the jobs of ``_fork_map``, in increasing radius, on up to
    min(threads, cpu_count) forked children, and each solution comes back
    whole over its child's connection, so the result does not depend on
    ``threads``.  A failing radius raises as a
    serial sweep would: the smallest failing radius wins.
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) == 0:
        raise ValueError("sweep needs at least one radius")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")

    solutions = _fork_map(
        lambda i: solve_hjb_dirichlet(
            model, make_grid(model.dim, radii[i], spacing),
            tol=pi_tol, eigen_tol=eigen_tol, scheme=scheme,
        ),
        len(radii), threads,
    )
    return _summarize(model, solutions, spacing, tol)


def _summarize(model: Model, solutions, spacing: float, tol: float) -> SweepResult:
    """Rows, monotonicity check, extrapolated limit and saturation gap of solved radii.

    ``solutions`` are in increasing radius; a prefix of a sweep's solutions
    summarizes exactly as a fresh sweep over those radii would.
    """
    rows = [
        SweepRow(
            radius=s.grid.radius,
            spacing=s.grid.spacing,
            lam=s.eigenpair.eigenvalue,
            residual=s.eigenpair.residual,
            policy_sweeps=s.policy_sweeps,
        )
        for s in solutions
    ]

    lams = [r.lam for r in rows]
    for k in range(1, len(lams)):
        if lams[k] < lams[k - 1] - MONOTONE_SLACK:
            raise InvariantError(
                "Dirichlet eigenvalues decreased along growing radii: "
                f"lambda({rows[k - 1].radius})={lams[k - 1]:.12g} -> "
                f"lambda({rows[k].radius})={lams[k]:.12g}",
                payload={"rows": rows},
            )

    if len(rows) >= 3:
        lam_star = estimate_lambda_star(rows)
    else:
        lam_star = lams[-1]
    gap = lams[-1] - lams[-2] if len(lams) >= 2 else float("inf")

    bounds = check_coefficient_bounds(model, scan_radius=rows[-1].radius, scan_step=spacing)
    regime = REGIME_WHOLE_SPACE if bounds.predicate() else REGIME_DIRICHLET_LIMIT

    return SweepResult(
        rows=rows,
        lambda_star=lam_star,
        saturation_gap=gap,
        converged=bool(gap <= tol),
        regime=regime,
        solutions=solutions,
    )


@dataclass(frozen=True)
class Bump:
    """Additive cost bump epsilon * indicator(box); None bounds mean everywhere."""

    epsilon: float
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("bump size must be nonnegative")
        if (self.lo is None) != (self.hi is None):
            raise ValueError("box needs both bounds (or neither, for a global bump)")
        if self.lo is not None and not self.lo < self.hi:
            raise ValueError(f"empty bump box [{self.lo}, {self.hi}]")

    def indicator(self, x: np.ndarray) -> np.ndarray:
        if self.lo is None:
            return np.ones(len(x))
        inside = np.all((x >= self.lo) & (x <= self.hi), axis=1)
        return inside.astype(float)


@dataclass
class ProbeReport:
    lambda_base: float
    lambda_bumped: float
    gap: float
    strict: bool
    threshold: float
    saturation_gap: float


def _check_bump_box(bump: Bump, radii) -> None:
    if bump.lo is not None and (bump.lo <= -min(radii) or bump.hi >= min(radii)):
        raise ValueError("bump box must sit strictly inside the smallest swept radius")


def monotonicity_probe(model: Model, bump: Bump, base: SweepResult, threads: int = 1) -> ProbeReport:
    """Strictness probe: does a small cost bump move the extrapolated eigenvalue?

    Sweeps the bumped cost over the base sweep's radii and spacing, under the
    scheme and tolerances its solves ran with, and calls the increase strict
    when it clears max(10 x saturation gap, 1e-6).
    """
    radii = [row.radius for row in base.rows]
    _check_bump_box(bump, radii)

    def bumped_cost(x, u):
        return model.cost(x, u) + bump.epsilon * bump.indicator(model.points(x))

    bumped_model = model.with_cost(bumped_cost, label=model.label + "+bump")
    sol = base.solutions[0]
    bumped = sweep(
        bumped_model, radii, sol.grid.spacing,
        pi_tol=sol.pi_tol, eigen_tol=sol.eigen_tol, scheme=sol.scheme, threads=threads,
    )

    gap = bumped.lambda_star - base.lambda_star
    sat = base.saturation_gap if math.isfinite(base.saturation_gap) else 0.0
    threshold = max(10.0 * sat, 1e-6)
    return ProbeReport(
        lambda_base=base.lambda_star,
        lambda_bumped=bumped.lambda_star,
        gap=gap,
        strict=bool(gap > threshold),
        threshold=threshold,
        saturation_gap=sat,
    )
