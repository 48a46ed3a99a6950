"""Problem instances: controlled diffusions with a running cost.

A model bundles the drift b(x, u), the diffusion factor sigma(x) (the noise
covariance is a = sigma sigma^T), a nonnegative running cost c(x, u), and an
action set: a finite ordered list, or a compact interval [lo, hi] when the
drift is affine and the cost quadratic in u (``ActionInterval``).
Uncontrolled problems use a singleton action list, in which case the cost is
just a potential on state space.

Vectorization convention used throughout the package: state arguments are
arrays of points with shape (n, dim); ``drift(x, u) -> (n, dim)``,
``cost(x, u) -> (n,)`` for a single action value ``u``;
``diffusion(x) -> (dim, dim)`` for constant coefficients or ``(n, dim, dim)``
pointwise. All builtin and config-built models follow this convention.

Every model the package ships is built by ``model_from_config`` from drift and
cost families; a builtin is a preset, a 1-D config filled in from its parameters.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CatalogError, InvalidModelError

ELLIPTICITY_FLOOR = 1e-12
# radial shells of the coefficient scan's drift-decay table
DECAY_SHELLS = 10


def _degenerate(a: np.ndarray) -> bool:
    """A covariance (or a stack of them) with a diagonal entry below ``ELLIPTICITY_FLOOR``.

    The smallest diagonal entry bounds the smallest eigenvalue from above, so
    this is nondegeneracy's cheap necessary test.
    """
    return bool(np.min(np.diagonal(a, axis1=-2, axis2=-1)) < ELLIPTICITY_FLOOR)


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
class ActionInterval:
    """The compact action set [lo, hi] of a drift b(x, 0) + gain u and a cost c(x, 0) + weight u^2.

    Every catalog family has this form: ``gain`` multiplies u in each drift
    component, and ``weight`` >= 0 makes the cost convex in u, so the cost is
    least at ``cheapest`` = clip(0, lo, hi).
    """

    lo: float
    hi: float
    gain: float
    weight: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise InvalidModelError(f"action interval needs lo <= hi, got [{self.lo}, {self.hi}]")
        if not self.weight >= 0:
            raise InvalidModelError(f"action interval needs a control weight >= 0, got {self.weight}")

    @property
    def cheapest(self) -> float:
        return min(max(0.0, self.lo), self.hi)

    # the drift and the cost at per-point actions u, (..., n), from their values at u = 0

    def drift(self, b0: np.ndarray, u: np.ndarray) -> np.ndarray:
        return b0 + self.gain * u[..., None]

    def cost(self, c0: np.ndarray, u: np.ndarray) -> np.ndarray:
        return c0 + self.weight * u**2


@dataclass(frozen=True)
class Model:
    """A controlled diffusion with running cost on R^dim (dim = 1 or 2).

    Attributes
    ----------
    dim : spatial dimension (1 or 2)
    drift : callable (x, u) -> array of drift vectors
    diffusion : callable x -> sigma matrix (constant or pointwise)
    cost : callable (x, u) -> nonnegative running cost per point
    actions : ordered 1-D array of action values; with ``interval``, its two ends
    label : human-readable name
    interval : when set, the action set is this whole compact interval, not a list
    """

    dim: int
    drift: Callable[[np.ndarray, float], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    cost: Callable[[np.ndarray, float], np.ndarray]
    actions: np.ndarray
    label: str = "custom"
    interval: ActionInterval | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidModelError(f"dim must be 1 or 2, got {self.dim}")
        acts = self.actions
        if self.interval is not None:
            acts = [self.interval.lo, self.interval.hi]
        acts = np.atleast_1d(np.asarray(acts, dtype=float))
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
        # the 2-D assembly additionally enforces |a12| <= min(a11, a22)
        if _degenerate(a):
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

    # the one map from per-point actions u, (n,), to rows: on an interval its
    # terms added to the value at u = 0, on a list one call per action in use

    def drift_rows(self, x, u) -> np.ndarray:
        """The drift b(x_i, u_i) at each point, (n, dim)."""
        if self.interval is not None:
            return self.interval.drift(self.drift_at(x, 0.0), u)
        return self._listed_rows(self.drift_at, x, u, (self.dim,))

    def cost_rows(self, x, u) -> np.ndarray:
        """The running cost c(x_i, u_i) at each point, (n,)."""
        if self.interval is not None:
            return self.interval.cost(self.cost_at(x, 0.0), u)
        return self._listed_rows(self.cost_at, x, u, ())

    def _listed_rows(self, at, x, u, shape: tuple) -> np.ndarray:
        x = self.points(x)
        out = np.empty((len(x),) + shape)
        for ui in np.unique(u):
            mask = u == ui
            out[mask] = at(x[mask], ui)
        return out

    def min_cost(self, x) -> np.ndarray:
        """Pointwise minimum of the cost over the action set."""
        x = self.points(x)
        if self.interval is not None:
            return self.cost_at(x, self.interval.cheapest)
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
            interval=self.interval,
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
    table reports max_u <b, x>^+/|x| per radial shell.  On an action interval
    both sups are convex in u, so the interval's two ends, ``actions``, attain them.
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
# JSON config registry, and the builtin catalog as presets of its families


def is_finite_number(x) -> bool:
    """A finite int or float, not a bool; compared exactly, so a huge int cannot overflow."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _numbers(value, field: str, shape: tuple) -> np.ndarray:
    """Nested lists of finite numbers as a float array; a -1 in ``shape`` takes any length."""
    arr = np.array(value, dtype=object)
    if (arr.ndim != len(shape) or any(s not in (-1, n) for s, n in zip(shape, arr.shape))
            or not all(map(is_finite_number, arr.flat))):
        size = "a list of" if shape == (-1,) else "x".join(map(str, shape))
        raise CatalogError(f"model {field} must be {size} finite numbers, got {value!r}")
    return arr.astype(float)


def _check_keys(spec: dict, known: set, what: str) -> None:
    """Refuse a key outside ``known``: nothing would read it, so its value would be lost."""
    unknown = sorted(set(spec) - known, key=str)
    if unknown:
        raise CatalogError(f"unknown {what} {unknown[0]!r}; allowed: {sorted(known)}")


def _from_family(spec: dict, part: str, build):
    """``build(family, number)``, where ``number(key, default)`` reads one finite parameter.

    A build returns the family's function and its coefficient of u: the drift
    is b(x, 0) + gain u, the cost c(x, 0) + weight u^2.
    """
    read = {"family"}

    def number(key: str, default: float, nonnegative: bool = False) -> float:
        read.add(key)
        value = spec.get(key, default)
        if not is_finite_number(value):
            raise CatalogError(f"model {part} {key} must be a finite number, got {value!r}")
        if nonnegative and value < 0:
            raise CatalogError(f"model {part} {key} must be >= 0 for a nonnegative cost, got {value!r}")
        return float(value)

    built = build(spec.get("family"), number)
    _check_keys(spec, read, f"{part} family {spec['family']!r} key")
    return built


def _drift_family(family, number):
    if family == "ou":
        beta = number("beta", 1.0)
        gain = number("control_gain", 0.0)
        if gain == 0.0:  # uncontrolled: no zero term added on every evaluation
            return (lambda x, u: -beta * x), 0.0
        return (lambda x, u: -beta * x + gain * u), gain
    if family == "affine":
        beta = number("beta", 1.0)
        return (lambda x, u: -beta * x + u), 1.0
    if family == "tanh":
        gain = number("control_gain", 0.1)
        return (lambda x, u: -np.tanh(x) + gain * u), gain
    if family == "double_well":
        return (lambda x, u: -(x * x * x - x)), 0.0
    if family == "zero":
        return (lambda x, u: np.zeros_like(x)), 0.0
    raise CatalogError(f"unknown drift family {family!r}")


def _cost_family(family, number):
    if family == "quadratic":
        kappa = number("kappa", 1.0, nonnegative=True)
        w = 0.5 * number("rho", 0.0)
        if w == 0.0:  # a pure potential: no zero control term on every evaluation
            return (lambda x, u: kappa * sum_squares(x)), 0.0
        return (lambda x, u: kappa * sum_squares(x) + w * u**2), w
    if family == "saturating":
        scale = number("scale", 1.0, nonnegative=True)
        w = number("control_weight", 0.0)

        def cost(x, u):
            r2 = sum_squares(x)
            return scale * r2 / (1.0 + r2) + w * u**2

        return cost, w
    if family == "constant":
        value = number("value", 0.0, nonnegative=True)
        return (lambda x, u: np.full(x.shape[0], value)), 0.0
    raise CatalogError(f"unknown cost family {family!r}")


# a finite action grid over an interval is gone: the interval is the compact set itself
_RETIRED_COUNT = ("is retired: {{'interval': [lo, hi]}} is the compact action set; "
                  "list the actions explicitly for a finite set, got {}")


def _ou_quadratic(beta=1.0, kappa=0.375):
    return {"drift": {"family": "ou", "beta": beta},
            "cost": {"family": "quadratic", "kappa": kappa}}


def _lq_clamped(beta=1.0, kappa=0.375, rho=1.0, clamp=5.0):
    return {"drift": {"family": "affine", "beta": beta},
            "cost": {"family": "quadratic", "kappa": kappa, "rho": rho},
            "actions": {"interval": [-clamp, clamp]}}


def _double_well():
    return {"drift": {"family": "double_well"}, "cost": {"family": "quadratic", "kappa": 0.5}}


def _bounded_nm(gain=0.1, control_weight=0.05):
    # bounded drift and bounded cost; the cost saturates at 1 so the sublevel
    # sets {min_u c <= level} are compact for every level < 1
    return {"drift": {"family": "tanh", "control_gain": gain},
            "cost": {"family": "saturating", "control_weight": control_weight},
            "actions": {"interval": [-1.0, 1.0]}}


# builtin name -> preset: its parameters -> drift, cost and actions of a 1-D, unit-sigma config
_PRESETS = {
    "ou_quadratic": _ou_quadratic,
    "lq_clamped": _lq_clamped,
    "double_well": _double_well,
    "bounded_nm": _bounded_nm,
}


def builtin(name: str, **params) -> Model:
    """Return a benchmark model from the catalog by name: its preset, built as a config."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise CatalogError(f"unknown builtin model {name!r}; available: {sorted(_PRESETS)}")
    if "n_actions" in params:
        raise CatalogError("builtin parameter 'n_actions' " + _RETIRED_COUNT.format(params["n_actions"]))
    preset = _PRESETS[name]
    _check_keys(params, set(inspect.signature(preset).parameters), f"builtin {name!r} parameter")
    return model_from_config({"dim": 1, "label": name, **preset(**params)})


def model_from_config(cfg: dict) -> Model:
    """Build a Model from a JSON-style config dict, checking every field first.

    Two forms are accepted: ``{"builtin": name, "params": {...}}`` or the
    explicit registry form with ``dim`` (1 or 2), ``drift``/``cost`` family
    specs, a constant ``sigma`` matrix, and ``actions`` given either as an
    explicit finite list or as ``{"interval": [lo, hi]}``, the compact
    interval.  A builtin is a preset of the registry form: its parameters
    fill in a 1-D config with unit sigma, so every model is built here. Every
    number must be finite and not a bool, sigma nondegenerate, and a cost's
    level (``kappa``, ``scale``, ``value``) nonnegative; a malformed field
    raises ``CatalogError`` naming it.
    """
    if not isinstance(cfg, dict):
        raise CatalogError(f"model config must be an object, got {cfg!r}")
    if "builtin" in cfg:
        _check_keys(cfg, {"builtin", "params"}, "model key")
        params = cfg.get("params", {})
        if not isinstance(params, dict):
            raise CatalogError(f"model params must be an object, got {params!r}")
        return builtin(cfg["builtin"], **params)
    _check_keys(cfg, {"dim", "drift", "cost", "sigma", "actions", "label"}, "model key")
    actions_spec = cfg.get("actions", [0.0])
    if isinstance(actions_spec, dict) and "count" in actions_spec:
        raise CatalogError("actions 'count' " + _RETIRED_COUNT.format(actions_spec["count"]))
    try:
        dim, specs = cfg["dim"], {key: cfg[key] for key in ("drift", "cost")}
        if isinstance(actions_spec, dict):
            interval = actions_spec["interval"]
    except KeyError as exc:
        raise CatalogError(f"model config missing field {exc}") from None
    if type(dim) is not int or dim not in (1, 2):   # not a bool, a float or a string
        raise CatalogError(f"model dim must be 1 or 2, got {dim!r}")
    for key, spec in specs.items():
        if not isinstance(spec, dict):
            raise CatalogError(f"model {key} must be an object, got {spec!r}")
    drift, gain = _from_family(specs["drift"], "drift", _drift_family)
    cost, weight = _from_family(specs["cost"], "cost", _cost_family)
    sigma = _numbers(cfg["sigma"], "sigma", (dim, dim)) if "sigma" in cfg else np.eye(dim)
    if _degenerate(sigma @ sigma.T):
        raise CatalogError(f"model sigma must be nondegenerate: sigma sigma^T has a diagonal "
                           f"entry below {ELLIPTICITY_FLOOR}, got {cfg['sigma']!r}")
    if isinstance(actions_spec, dict):
        _check_keys(actions_spec, {"interval"}, "actions key")
        lo, hi = _numbers(interval, "actions interval", (2,))
        actions, action_interval = None, ActionInterval(float(lo), float(hi), gain, weight)
    else:
        actions, action_interval = _numbers(actions_spec, "actions", (-1,)), None
    return Model(
        dim=dim,
        drift=drift,
        diffusion=lambda _x, _s=sigma: _s,
        cost=cost,
        actions=actions,
        label=str(cfg.get("label", "config")),
        interval=action_interval,
    )
