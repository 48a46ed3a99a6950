"""Tensor-product grids and monotone finite-difference assembly.

The discrete domain is the box (-R, R)^dim sampled on the lattice h*Z^dim;
only interior nodes are carried, boundary values are pinned to 0 (rows simply
omit neighbors that fall outside). The assembled matrix discretizes
L_v + diag(c_v):

  * second derivatives: central differences; in 2-D the mixed term uses the
    7-point positive splitting, valid only under |a12| <= min(a11, a22)
    (hard error otherwise - a silently non-monotone scheme is worse than none)
  * drift: central differences where the cell Peclet condition
    |b^i| h <= a_ii - |a12| keeps both off-diagonals nonnegative, first-order
    upwind fallback per node/component otherwise ("hybrid", the default), or
    pure upwind ("upwind")

Either way every off-diagonal is >= 0, which is what makes the principal
eigenvector positive and the whole downstream log-transform well defined;
``OperatorMatrix`` checks it, and that every entry is finite, when it is built.
Accuracy is O(h^2) where central applies and O(h) where upwinding kicks in.

A policy is the action value at each node.  ``Model.drift_rows`` and
``cost_rows`` map it to the drift and cost rows that ``assemble`` reads.
Policy iteration's start policy and improvement pass pick the least of some
candidate actions per node (``_action_rows``): on a finite action list, every
listed action's rows, built once; on an action interval, a few candidates per
node that hold its exact minimizer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np
import scipy.sparse as sp

from .errors import InvalidModelError, InvariantError, MonotonicityError, ResourceError
from .model import ActionInterval, Model, lattice_points

NODE_CAP = 4_000_000
_EPS = np.finfo(float).eps
# how many roundings of b0 + g u a breakpoint's side candidates stand off from it
_SWITCH_ROUNDINGS = 8


@dataclass(frozen=True, eq=False)
class Grid:
    """Interior nodes of the lattice h*Z^dim inside the box (-R, R)^dim.

    The lattice is symmetric about the origin and always contains it;
    ``origin_index`` is the (unique) node minimizing |x|. When h does not
    divide R the effective Dirichlet wall sits at the first excluded lattice
    point, within one cell of R.
    """

    dim: int
    radius: float
    spacing: float
    axis: np.ndarray      # 1-D coordinates, shared by both axes in 2-D
    shape: tuple
    nodes: np.ndarray     # (n, dim), row-major over axes
    origin_index: int

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def interior_mask(self) -> np.ndarray:
        """Nodes off the outermost ring, at least one lattice cell from the wall."""
        lim = self.axis[-1] - 0.5 * self.spacing
        return np.all(np.abs(self.nodes) < lim, axis=1)


@dataclass(frozen=True, eq=False)
class Policy:
    """A discretized stationary selector: the action value at each grid node."""

    values: np.ndarray

    @staticmethod
    def uniform(grid: Grid) -> "Policy":
        """u = 0 at every node."""
        return Policy(np.zeros(grid.n))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Sparse discretization of L_v + diag(c_v) over interior nodes."""

    grid: Grid
    entries: sp.csr_matrix

    def __post_init__(self):
        # NaN compares false against 0, so finiteness is checked on its own
        if not np.all(np.isfinite(self.entries.data)) or self.off_diagonal_min() < 0:
            raise InvariantError("operator matrix has a non-finite or negative off-diagonal entry")

    def off_diagonal_min(self) -> float:
        coo = self.entries.tocoo()
        off = coo.data[coo.row != coo.col]
        return float(off.min()) if off.size else 0.0


def make_grid(dim: int, radius: float, spacing: float) -> Grid:
    # a finite radius bounds the spacing too, and the node count below
    if not (np.isfinite(radius) and radius > spacing > 0):
        raise ValueError(f"need finite radius > spacing > 0, got r={radius}, h={spacing}")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    # largest k with k*h strictly below R, robust to radius/spacing float fuzz;
    # the node count is checked before anything of that size is allocated
    k = int(np.ceil(radius / spacing - 1e-9)) - 1
    n_side = 2 * k + 1
    total = n_side**dim
    if total > NODE_CAP:
        raise ResourceError(f"grid would have {total} nodes (cap {NODE_CAP})")
    axis = spacing * np.arange(-k, k + 1)
    shape = (n_side,) * dim
    nodes = lattice_points(axis, dim)
    origin = int(np.ravel_multi_index((k,) * dim, shape))
    # ties broken by lowest index; with a symmetric lattice the origin is exact
    assert np.argmin(np.einsum("ni,ni->n", nodes, nodes)) == origin
    return Grid(dim, float(radius), float(spacing), axis, shape, nodes, origin)


def field_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Nodewise gradient: central differences inside, one-sided at the walls."""
    values = np.asarray(values, dtype=float)
    arr = values.reshape(grid.shape)
    return np.stack([np.gradient(arr, grid.spacing, axis=d).ravel() for d in range(grid.dim)], axis=1)


def _policy_values(model: Model, grid: Grid, policy: Policy) -> np.ndarray:
    """The policy's action per node, checked against the grid and the model's action set."""
    values = np.asarray(policy.values)
    if values.shape != (grid.n,):
        raise ValueError(f"policy has {values.shape} entries for {grid.n} nodes")
    iv = model.interval
    # NaN fails every comparison, and is in no list
    if not (iv.lo <= values.min() <= values.max() <= iv.hi if iv else np.isin(values, model.actions).all()):
        raise ValueError("policy contains actions outside the action set")
    return values


def _drift_weights(b_d, a_edge, h, scheme):
    """Per-node (up, down, diag) drift weights for one component.

    a_edge is the diffusion weight already assigned to each side neighbor
    (times 2h^2); central differencing is used only where it cannot push an
    off-diagonal negative.  ``b_d`` may carry a leading action axis, (k, n)
    against a_edge's (n,): every action's weights then come from one call.
    """
    half = b_d / (2 * h)
    if scheme == "upwind":
        central = np.zeros_like(b_d, dtype=bool)
    else:
        # |b_d| h <= a_edge, tested on the very terms assembly adds, so a
        # central off-diagonal is never negative by rounding
        central = np.abs(half) <= a_edge / (2 * h * h)
    up = np.where(central, half, np.maximum(b_d, 0.0) / h)
    dn = np.where(central, -half, np.maximum(-b_d, 0.0) / h)
    dg = np.where(central, 0.0, -np.abs(b_d) / h)
    return up, dn, dg


def _weights(b: np.ndarray, edges: tuple, h: float, scheme: str) -> tuple:
    """Each axis's (up, dn, dg) drift weights of rows ``b``, (n, dim) or (k, n, dim)."""
    return tuple(_drift_weights(b[..., d], edge, h, scheme) for d, edge in enumerate(edges))


# per step: the slice of an axis that has a neighbour ``step`` cells along
# it, and the slice holding those neighbours
_STEP = {1: (slice(None, -1), slice(1, None)), -1: (slice(1, None), slice(None, -1))}


def _side_slices(axis: int, step: int) -> tuple[tuple, tuple]:
    """Index tuples into ``grid.shape``: the nodes whose neighbour ``step``
    cells along ``axis`` is interior, and those neighbours, in the same order."""
    have, nbr = _STEP[step]
    lead = (slice(None),) * axis
    return lead + (have,), lead + (nbr,)


def diffusion_edges(a: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """Per-axis diffusion weight on the side neighbors, a_ii - |a12|, from covariances ``a``.

    This is the weight the cell Peclet test of the hybrid drift stencil
    compares against; it depends on the diffusion only, not on the action.
    In 2-D it first checks |a12| <= min(a11, a22), without which the
    7-point splitting of the mixed term has a negative weight.
    """
    mixed = 0.0
    if dim == 2:
        mixed = np.abs(a[:, 0, 1])
        bad = mixed > np.minimum(a[:, 0, 0], a[:, 1, 1])
        if np.any(bad):
            i = int(np.argmax(bad))
            raise MonotonicityError(
                "mixed derivative dominates: |a12|={:.3g} > min(a11,a22)={:.3g}; "
                "the 7-point splitting would lose the nonnegative off-diagonal "
                "structure".format(mixed[i], min(a[i, 0, 0], a[i, 1, 1]))
            )
    return tuple(a[:, d, d] - mixed for d in range(dim))


def assemble(model: Model, grid: Grid, policy: Policy, scheme: str = "hybrid") -> OperatorMatrix:
    """Assemble the monotone discretization of L_v + diag(c_v).

    ``scheme`` selects the drift stencil: "hybrid" (central where stable,
    default) or "upwind" (pure first-order upwinding).
    """
    u = _policy_values(model, grid, policy)
    a = model.covariance(grid.nodes)
    b, c = _checked(model.label, model.drift_rows(grid.nodes, u), model.cost_rows(grid.nodes, u))
    return assemble_fields(grid, b, c, a, scheme=scheme)


def assemble_fields(
    grid: Grid,
    b: np.ndarray,
    c: np.ndarray,
    a: np.ndarray,
    scheme: str = "hybrid",
) -> OperatorMatrix:
    """Same stencil, but from raw nodewise coefficient fields.

    Used directly when a field is derived rather than a model evaluated
    under a policy: the ground-state drift, or a cost with a bump removed.
    """
    if scheme not in ("hybrid", "upwind"):
        raise ValueError(f"unknown drift scheme {scheme!r}")
    b = np.asarray(b, dtype=float).reshape(grid.n, grid.dim)
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    h = grid.spacing
    node = np.arange(grid.n).reshape(grid.shape)
    edges = diffusion_edges(a, grid.dim)
    drift = _weights(b, edges, h, scheme)

    # the diagonal's terms are summed in a fixed order: trace, mixed term,
    # drift per axis, cost
    diag = -reduce(np.add, [a[:, d, d] for d in range(grid.dim)]) / (h * h)
    corners = []
    if grid.dim == 2:
        # the mixed derivative: |a12| / 2h^2 on the corner pair whose
        # orientation follows the sign of a12
        a12 = a[:, 0, 1]
        diag += np.abs(a12) / (h * h)
        w = (np.abs(a12) / (2 * h * h)).reshape(grid.shape)
        sign = np.sign(a12).reshape(grid.shape)
        for sgn, (dx, dy) in ((1, (1, 1)), (1, (-1, -1)), (-1, (1, -1)), (-1, (-1, 1))):
            have, nbr = zip(_STEP[dx], _STEP[dy])
            sel = (sign[have] == sgn) & (w[have] > 0)
            corners.append((node[have][sel], node[nbr][sel], w[have][sel]))
    for _, _, dg in drift:
        diag += dg
    diag += c

    entries = [(node.ravel(), node.ravel(), diag)]
    for d, (edge, (up, dn, _)) in enumerate(zip(edges, drift)):
        for step, w_drift in ((1, up), (-1, dn)):
            have, nbr = _side_slices(d, step)
            w = (edge / (2 * h * h) + w_drift).reshape(grid.shape)
            entries.append((node[have].ravel(), node[nbr].ravel(), w[have].ravel()))
    rows, cols, data = (np.concatenate(z) for z in zip(*entries, *corners))
    mat = sp.csr_matrix((data, (rows, cols)), shape=(grid.n, grid.n))
    return OperatorMatrix(grid=grid, entries=mat)


# ---------------------------------------------------------------------------
# comparing actions without a matrix per action: policy improvement needs
# only the action-dependent drift/cost part of every row, b(x,u) . D v +
# c(x,u) v, which reads v at the 2*dim side neighbors (the diffusion part,
# corners included, is the same for every action and lives only in
# assemble_fields).  Each axis's term (up v+ + dn v-) + dg v is summed in one
# scratch array before it joins c v, the same sum for every action.


def _checked(label: str, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if np.min(c) < -1e-12:
        raise InvalidModelError(f"negative running cost sampled for {label!r}")
    return b, c


def _action_values(grid: Grid, v: np.ndarray, b: np.ndarray, c: np.ndarray, weights) -> np.ndarray:
    """The action part of every row at v, for rows b, c with a leading action axis and their weights."""
    vals = c * v
    scratch = np.empty_like(vals)
    for d, (up, dn, dg) in enumerate(weights):
        np.multiply(up, _shifted(v, grid, d, 1), out=scratch)
        scratch += dn * _shifted(v, grid, d, -1)
        scratch += dg * v
        vals += scratch
    return vals


def _least(label: str, values: np.ndarray, u: np.ndarray, b: np.ndarray, c: np.ndarray):
    """The candidate of least ``values`` per node (ties -> first): its policy and rows, the cost checked."""
    k = np.argmin(values, axis=0)
    nodes = np.arange(values.shape[1])
    return Policy(u[k, nodes]), *_checked(label, b[k, nodes], c[k, nodes])


@dataclass(frozen=True, eq=False)
class _ActionRows:
    """A model's candidate actions and their rows at the nodes of one grid, under one drift scheme.

    ``first`` holds the start policy's candidates and ``candidates(v)`` an
    improvement pass's at v: per node k actions, (k, n), with their drift rows
    (k, n, dim), cost rows (k, n) and, for a pass, their drift weights.  On an
    action list both are every listed action's rows, evaluated once; on an
    interval they are its cheapest action, then the few actions of
    ``_interval_candidates``, their rows made from the model's rows at u = 0.
    """

    label: str                 # the model's, for error messages
    a: np.ndarray              # covariance a(x), (n, dim, dim)
    first: tuple               # (u, b, c)
    candidates: Callable       # v -> (u, b, c, weights)

    def start(self):
        """Each node's cheapest candidate (ties -> first), with its rows."""
        u, b, c = self.first
        return _least(self.label, c, u, b, c)

    def improve(self, grid: Grid, v: np.ndarray):
        """The pointwise argmin of the Hamiltonian at v (ties -> first candidate), with its rows.

        Each candidate's value is the sum assembly's row would give, bit for
        bit, so the winner's row of the assembled matrix is the discrete
        Hamiltonian at v; assembly under the policy evaluates nothing more.
        """
        u, b, c, weights = self.candidates(v)
        return _least(self.label, _action_values(grid, v, b, c, weights), u, b, c)


def _action_rows(model: Model, grid: Grid, scheme: str) -> _ActionRows:
    """Evaluate the covariance once, and the drift and cost once per listed action or at u = 0.

    A list's table holds k * n doubles per array, so actions x nodes is
    checked against ``NODE_CAP`` before the model is evaluated at all.
    """
    k, n, iv = model.actions.size, grid.n, model.interval
    if iv is None and k * n > NODE_CAP:
        raise ResourceError(
            f"action table would hold {k} actions x {n} nodes = {k * n} entries "
            f"(cap {NODE_CAP})"
        )
    a = model.covariance(grid.nodes)
    edges = diffusion_edges(a, grid.dim)
    if iv is None:
        b = np.empty((k, n, grid.dim))
        c = np.empty((k, n))
        for ai, u in enumerate(model.actions):
            b[ai] = model.drift_at(grid.nodes, u)
            c[ai] = model.cost_at(grid.nodes, u)
        table = (np.broadcast_to(model.actions[:, None], (k, n)), b, c)
        weights = _weights(b, edges, grid.spacing, scheme)
        return _ActionRows(model.label, a, table, lambda v: (*table, weights))
    b0, c0 = model.drift_at(grid.nodes, 0.0), model.cost_at(grid.nodes, 0.0)

    def at(u: np.ndarray) -> tuple:
        return u, iv.drift(b0, u), iv.cost(c0, u)

    def candidates(v: np.ndarray) -> tuple:
        u, b, c = at(_interval_candidates(iv, b0, edges, scheme, grid, v))
        return u, b, c, _weights(b, edges, grid.spacing, scheme)

    return _ActionRows(model.label, a, at(np.full((1, n), iv.cheapest)), candidates)


def _interval_candidates(iv: ActionInterval, b0: np.ndarray, edges: tuple, scheme: str,
                         grid: Grid, v: np.ndarray) -> np.ndarray:
    """Per node, actions among which the Hamiltonian's minimizer lies, (k, n).

    Each drift component is b0_d + g u.  The stencil's pieces in u end
    where the central and upwind weights switch, |b_d| h = a_edge, or,
    under pure upwinding, at b_d = 0.  On a piece the action part is
    w v u^2 + g (sum_d s_d) u + const, with s_d the piece's difference of v:
    (v+ - v-)/2h central, (v+ - v)/h upwind with b_d > 0, (v - v-)/h with
    b_d < 0.  So the candidates are the interval's ends, each breakpoint
    and an action a few roundings of b to either side of it (a piece need
    not own its end, and the rounded breakpoint may sit on either side),
    and each piece's vertex; all are clipped into [lo, hi].
    """
    h = grid.spacing
    cands = [np.full(grid.n, iv.lo), np.full(grid.n, iv.hi)]
    diffs = []
    for d, edge in enumerate(edges):
        vp, vm = _shifted(v, grid, d, 1), _shifted(v, grid, d, -1)
        upwind = ((vp - v) / h, (v - vm) / h)
        if scheme == "upwind":
            switches = (0.0,)
            diffs.append(upwind)
        else:
            switches = (-edge / h, edge / h)
            diffs.append(((vp - vm) / (2 * h), *upwind))
        if iv.gain != 0.0:
            bd = b0[:, d]
            for b_switch in switches:
                bp = (b_switch - bd) / iv.gain
                # a step of u past the rounding of b0 + g u, which may
                # change b only every many doubles of u
                step = _SWITCH_ROUNDINGS * _EPS * (np.abs(b_switch) + np.abs(bd)) / abs(iv.gain)
                cands += [bp - step, bp, bp + step]
    if iv.weight != 0.0:
        for piece in product(*diffs):
            cands.append(-iv.gain * reduce(np.add, piece) / (2.0 * iv.weight * v))
    # fmax sends a NaN (inf - inf past a tiny gain, 0/0 in an underflowing vertex) to lo
    return np.fmin(np.fmax(np.stack(cands), iv.lo), iv.hi)


def _shifted(v: np.ndarray, grid: Grid, axis: int, step: int) -> np.ndarray:
    """v at the neighbor `step` cells along `axis`, 0 outside the domain."""
    have, nbr = _side_slices(axis, step)
    vv = v.reshape(grid.shape)
    out = np.zeros_like(vv)
    out[have] = vv[nbr]
    return out.ravel()
