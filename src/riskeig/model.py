"""Problem instances: controlled diffusions with a running cost.

A model bundles the drift b(x, u), the diffusion factor sigma(x) (the noise
covariance is a = sigma sigma^T), a nonnegative running cost c(x, u), and a
finite ordered action set. Uncontrolled problems use a singleton action set,
in which case the cost is just a potential on state space.

Vectorization convention used throughout the package: state arguments are
arrays of points with shape (n, dim); ``drift(x, u) -> (n, dim)``,
``cost(x, u) -> (n,)`` for a single action value ``u``;
``diffusion(x) -> (dim, dim)`` for constant coefficients or ``(n, dim, dim)``
pointwise. All builtin and config-built models follow this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CatalogError, InvalidModelError

ELLIPTICITY_FLOOR = 1e-12
# radial shells of the coefficient scan's drift-decay table
DECAY_SHELLS = 10


def sum_squares(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, adding the squared columns in order.

    For one or two columns, the package's dimensions, this has the bits of
    ``np.sum(x * x, axis=-1)``, and its square root those of
    ``np.linalg.norm(x, axis=-1)``; a reduction over so short an axis costs
    tens of nanoseconds per row, which this does not.
    """
    out = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j] * x[..., j]
    return out


@dataclass(frozen=True)
class Model:
    """A controlled diffusion with running cost on R^dim (dim = 1 or 2).

    Attributes
    ----------
    dim : spatial dimension (1 or 2)
    drift : callable (x, u) -> array of drift vectors
    diffusion : callable x -> sigma matrix (constant or pointwise)
    cost : callable (x, u) -> nonnegative running cost per point
    actions : ordered 1-D array of action values
    label : human-readable name
    """

    dim: int
    drift: Callable[[np.ndarray, float], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    cost: Callable[[np.ndarray, float], np.ndarray]
    actions: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidModelError(f"dim must be 1 or 2, got {self.dim}")
        acts = np.atleast_1d(np.asarray(self.actions, dtype=float))
        if acts.size == 0:
            raise InvalidModelError("action set must be non-empty")
        object.__setattr__(self, "actions", acts)

    @property
    def controlled(self) -> bool:
        return self.actions.size > 1

    def points(self, x) -> np.ndarray:
        """Coerce input to the (n, dim) point-array convention."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1 and self.dim == 1:
            x = x[:, None]
        elif x.ndim == 1 and x.size == self.dim:
            x = x[None, :]
        return x

    def covariance(self, x) -> np.ndarray:
        """a(x) = sigma sigma^T as an (n, dim, dim) array; validates SPD."""
        x = self.points(x)
        sig = np.asarray(self.diffusion(x), dtype=float)
        if sig.ndim == 2:
            sig = np.broadcast_to(sig, (x.shape[0],) + sig.shape)
        a = np.einsum("nij,nkj->nik", sig, sig)
        if not np.all(np.isfinite(a)):
            raise InvalidModelError(f"non-finite diffusion for model {self.label!r}")
        # nondegeneracy: smallest diagonal entry bounds the smallest eigenvalue
        # from above, so it is the cheap necessary check; the 2-D assembly
        # additionally enforces |a12| <= min(a11, a22).
        diag = np.diagonal(a, axis1=1, axis2=2)
        if np.min(diag) < ELLIPTICITY_FLOOR:
            raise InvalidModelError(
                f"diffusion degenerate (a < {ELLIPTICITY_FLOOR}) for model {self.label!r}"
            )
        return a

    def drift_at(self, x, u) -> np.ndarray:
        x = self.points(x)
        b = np.asarray(self.drift(x, u), dtype=float)
        if b.shape != x.shape:
            b = np.broadcast_to(b, x.shape).astype(float)
        if not np.isfinite(b).all():
            raise InvalidModelError(f"non-finite drift for model {self.label!r}")
        return b

    def cost_at(self, x, u) -> np.ndarray:
        x = self.points(x)
        c = np.asarray(self.cost(x, u), dtype=float)
        if c.shape != (x.shape[0],):
            c = np.broadcast_to(c, (x.shape[0],)).astype(float)
        if not np.isfinite(c).all():
            raise InvalidModelError(f"non-finite cost for model {self.label!r}")
        return c

    def min_cost(self, x) -> np.ndarray:
        """Pointwise minimum of the cost over the action set."""
        x = self.points(x)
        out = self.cost_at(x, self.actions[0])
        for u in self.actions[1:]:
            out = np.minimum(out, self.cost_at(x, u))
        return out

    def with_cost(self, cost, label=None) -> "Model":
        """Copy of this model with the running cost replaced."""
        return Model(
            dim=self.dim,
            drift=self.drift,
            diffusion=self.diffusion,
            cost=cost,
            actions=self.actions,
            label=label or self.label,
        )


@dataclass(frozen=True)
class NearMonotoneReport:
    """Result of a sampled compactness check of {min_u c <= lambda_ref + epsilon}.

    ``sublevel_radius`` is the largest sampled |x| still inside the sublevel
    set, or ``inf`` ("unbounded") when the set reaches the scan window edge.
    ``holds`` is true iff the sampled sublevel set is compactly contained in
    the scan window; a larger window may still refute it, which is why the
    window itself is part of the report.
    """

    lambda_ref: float
    epsilon: float
    sublevel_radius: float
    holds: bool
    scan_radius: float
    scan_step: float


@dataclass(frozen=True)
class CoefficientBoundsReport:
    """Sampled coefficient bounds and radial drift decay, per shell.

    ``radial_drift_decay`` rows are (shell |x|, max over sampled x in the
    shell and u of <b(x,u), x>^+ / |x|). The caller judges whether the ratio
    decays toward zero; ``predicate()`` is the concrete judgment this package
    uses for regime flags.
    """

    bounded_coeffs: bool
    radial_drift_decay: tuple
    drift_sup_inner: float
    drift_sup_outer: float
    sigma_sup_inner: float
    sigma_sup_outer: float

    def predicate(self) -> bool:
        """Bounded coefficients plus radial drift ratio decaying to ~0."""
        if not self.bounded_coeffs or not self.radial_drift_decay:
            return False
        ratios = [row[1] for row in self.radial_drift_decay]
        return ratios[-1] <= 1e-2 and ratios[-1] <= ratios[0] + 1e-12


def lattice_points(axis: np.ndarray, dim: int) -> np.ndarray:
    """The points of the product lattice axis^dim, (axis.size**dim, dim), row-major over axes."""
    return np.stack([g.ravel() for g in np.meshgrid(*[axis] * dim, indexing="ij")], axis=1)


def _scan_lattice(dim: int, scan_radius: float, scan_step: float) -> np.ndarray:
    k = int(math.floor(scan_radius / scan_step + 1e-9))
    return lattice_points(scan_step * np.arange(-k, k + 1), dim)


def check_near_monotone(
    model: Model,
    lambda_ref: float,
    epsilon: float,
    scan_radius: float,
    scan_step: float,
) -> NearMonotoneReport:
    """Sample min_u c on a lattice and test sublevel-set compactness.

    The sublevel set {min_u c <= lambda_ref + epsilon} is scanned on the
    lattice of spacing ``scan_step`` out to ``scan_radius``. It counts as
    compactly contained only when it stays at least one step away from the
    window edge.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if scan_step <= 0:
        raise ValueError("scan_step must be > 0")
    pts = _scan_lattice(model.dim, scan_radius, scan_step)
    mc = model.min_cost(pts)
    norms = np.linalg.norm(pts, axis=1)
    inside = mc <= lambda_ref + epsilon
    if not np.any(inside):
        # empty sublevel set is trivially compact
        return NearMonotoneReport(lambda_ref, epsilon, 0.0, True, scan_radius, scan_step)
    rad = float(np.max(norms[inside]))
    holds = rad <= scan_radius - scan_step
    return NearMonotoneReport(
        lambda_ref, epsilon, rad if holds else math.inf, holds, scan_radius, scan_step
    )


def check_coefficient_bounds(
    model: Model, scan_radius: float, scan_step: float
) -> CoefficientBoundsReport:
    """Sample coefficient sup-norms and the outward radial drift ratio.

    Boundedness is judged by comparing sups over the outer half of the window
    against the inner half (growth beyond 5% reads as unbounded). The decay
    table reports max_u <b, x>^+/|x| per radial shell.
    """
    if scan_step <= 0:
        raise ValueError("scan_step must be > 0")
    pts = _scan_lattice(model.dim, scan_radius, scan_step)
    norms = np.linalg.norm(pts, axis=1)
    keep = norms > scan_step / 2  # radial ratio undefined at the origin
    pts, norms = pts[keep], norms[keep]

    drift_sup = np.zeros(len(pts))
    radial = np.full(len(pts), -np.inf)
    for u in model.actions:
        b = model.drift_at(pts, u)
        drift_sup = np.maximum(drift_sup, np.linalg.norm(b, axis=1))
        radial = np.maximum(radial, np.maximum(np.einsum("ni,ni->n", b, pts), 0.0) / norms)

    sig = np.asarray(model.diffusion(pts), dtype=float)
    if sig.ndim == 2:
        sig_norm = np.full(len(pts), float(np.linalg.norm(sig)))
    else:
        sig_norm = np.linalg.norm(sig.reshape(len(pts), -1), axis=1)

    inner = norms <= scan_radius / 2
    outer = ~inner
    b_in = float(drift_sup[inner].max()) if inner.any() else 0.0
    b_out = float(drift_sup[outer].max()) if outer.any() else 0.0
    s_in = float(sig_norm[inner].max()) if inner.any() else 0.0
    s_out = float(sig_norm[outer].max()) if outer.any() else 0.0
    bounded = (b_out <= 1.05 * b_in + 1e-12) and (s_out <= 1.05 * s_in + 1e-12)

    edges = np.linspace(0.0, scan_radius, DECAY_SHELLS + 1)
    table = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = (norms > lo) & (norms <= hi)
        if m.any():
            table.append((float(0.5 * (lo + hi)), float(radial[m].max())))
    return CoefficientBoundsReport(
        bounded_coeffs=bounded,
        radial_drift_decay=tuple(table),
        drift_sup_inner=b_in,
        drift_sup_outer=b_out,
        sigma_sup_inner=s_in,
        sigma_sup_outer=s_out,
    )


# ---------------------------------------------------------------------------
# builtin catalog and JSON config registry


def _unit_sigma(_x):
    return np.array([[1.0]])


def _ou_quadratic(beta=1.0, kappa=0.375):
    def drift(x, u):
        return -beta * x

    def cost(x, u):
        return kappa * sum_squares(x)

    return Model(1, drift, _unit_sigma, cost, np.array([0.0]), label="ou_quadratic")


def _lq_clamped(beta=1.0, kappa=0.375, rho=1.0, clamp=5.0, n_actions=101):
    def drift(x, u):
        return -beta * x + u

    def cost(x, u):
        return kappa * sum_squares(x) + 0.5 * rho * u**2

    actions = np.linspace(-clamp, clamp, n_actions)
    return Model(1, drift, _unit_sigma, cost, actions, label="lq_clamped")


def _double_well():
    def drift(x, u):
        return -(x**3 - x)

    def cost(x, u):
        return 0.5 * sum_squares(x)

    return Model(1, drift, _unit_sigma, cost, np.array([0.0]), label="double_well")


def _bounded_nm(gain=0.1, control_weight=0.05, n_actions=21):
    # bounded drift and bounded cost; the cost saturates at 1 so the sublevel
    # sets {min_u c <= level} are compact for every level < 1
    def drift(x, u):
        return -np.tanh(x) + gain * u

    def cost(x, u):
        r2 = sum_squares(x)
        return r2 / (1.0 + r2) + control_weight * u**2

    actions = np.linspace(-1.0, 1.0, n_actions)
    return Model(1, drift, _unit_sigma, cost, actions, label="bounded_nm")


_CATALOG = {
    "ou_quadratic": _ou_quadratic,
    "lq_clamped": _lq_clamped,
    "double_well": _double_well,
    "bounded_nm": _bounded_nm,
}


def builtin(name: str, **params) -> Model:
    """Return a benchmark model from the catalog by name."""
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise CatalogError(
            f"unknown builtin model {name!r}; available: {sorted(_CATALOG)}"
        ) from None
    return factory(**params)


def _drift_from_config(spec: dict):
    family = spec.get("family")
    if family == "ou":
        beta = float(spec.get("beta", 1.0))
        gain = float(spec.get("control_gain", 0.0))
        return lambda x, u: -beta * x + gain * u
    if family == "affine":
        beta = float(spec.get("beta", 1.0))
        return lambda x, u: -beta * x + u
    if family == "tanh":
        gain = float(spec.get("control_gain", 0.1))
        return lambda x, u: -np.tanh(x) + gain * u
    if family == "double_well":
        return lambda x, u: -(x**3 - x)
    if family == "zero":
        return lambda x, u: np.zeros_like(x)
    raise CatalogError(f"unknown drift family {family!r}")


def _cost_from_config(spec: dict):
    family = spec.get("family")
    if family == "quadratic":
        kappa = float(spec.get("kappa", 1.0))
        rho = float(spec.get("rho", 0.0))
        return lambda x, u: kappa * sum_squares(x) + 0.5 * rho * u**2
    if family == "saturating":
        scale = float(spec.get("scale", 1.0))
        w = float(spec.get("control_weight", 0.0))

        def cost(x, u):
            r2 = sum_squares(x)
            return scale * r2 / (1.0 + r2) + w * u**2

        return cost
    if family == "constant":
        value = float(spec.get("value", 0.0))
        return lambda x, u: np.full(x.shape[0], value)
    raise CatalogError(f"unknown cost family {family!r}")


def model_from_config(cfg: dict) -> Model:
    """Build a Model from a JSON-style config dict.

    Two forms are accepted: ``{"builtin": name, "params": {...}}`` or the
    explicit registry form with ``dim``, ``drift``/``cost`` family specs,
    a constant ``sigma`` matrix, and ``actions`` given either as an explicit
    list or as ``{"interval": [lo, hi], "count": n}``.
    """
    if "builtin" in cfg:
        return builtin(cfg["builtin"], **cfg.get("params", {}))
    try:
        dim = int(cfg["dim"])
        drift = _drift_from_config(cfg["drift"])
        cost = _cost_from_config(cfg["cost"])
        sigma = np.asarray(cfg.get("sigma", np.eye(dim)), dtype=float)
        actions_spec = cfg.get("actions", [0.0])
        if isinstance(actions_spec, dict):
            interval, count = actions_spec["interval"], actions_spec["count"]
    except KeyError as exc:
        raise CatalogError(f"model config missing field {exc}") from None
    if sigma.shape != (dim, dim):
        raise CatalogError(f"sigma must be a {dim}x{dim} matrix")
    if isinstance(actions_spec, dict):
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise CatalogError(f"actions count must be a positive integer, got {count!r}")
        lo, hi = (float(v) for v in interval)
        actions = np.linspace(lo, hi, count)
    else:
        actions = np.asarray(actions_spec, dtype=float)
    return Model(
        dim=dim,
        drift=drift,
        diffusion=lambda _x, _s=sigma: _s,
        cost=cost,
        actions=actions,
        label=str(cfg.get("label", "config")),
    )
