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
eigenvector positive and the whole downstream log-transform well defined.
Accuracy is O(h^2) where central applies and O(h) where upwinding kicks in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidModelError, InvariantError, MonotonicityError, ResourceError
from .model import Model

NODE_CAP = 4_000_000


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

    def interior_mask(self, margin_cells: int = 1) -> np.ndarray:
        """Nodes at least ``margin_cells`` lattice cells away from the wall."""
        lim = self.axis[-1] - (margin_cells - 0.5) * self.spacing
        return np.all(np.abs(self.nodes) < lim, axis=1)


@dataclass(frozen=True, eq=False)
class Policy:
    """One action index per grid node (a discretized stationary selector)."""

    indices: np.ndarray

    @staticmethod
    def uniform(grid: Grid, index: int = 0) -> "Policy":
        return Policy(np.full(grid.n, index, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Sparse discretization of L_v + diag(c_v) over interior nodes."""

    grid: Grid
    entries: sp.csr_matrix

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.entries @ vec

    def off_diagonal_min(self) -> float:
        coo = self.entries.tocoo()
        off = coo.data[coo.row != coo.col]
        return float(off.min()) if off.size else 0.0


def make_grid(dim: int, radius: float, spacing: float) -> Grid:
    if not (radius > spacing > 0):
        raise ValueError(f"need radius > spacing > 0, got r={radius}, h={spacing}")
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
    if dim == 1:
        nodes = axis[:, None]
        shape = (n_side,)
        origin = k
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)
        shape = (n_side, n_side)
        origin = k * n_side + k
    # ties broken by lowest index; with a symmetric lattice the origin is exact
    assert np.argmin(np.einsum("ni,ni->n", nodes, nodes)) == origin
    return Grid(dim, float(radius), float(spacing), axis, shape, nodes, origin)


def _policy_indices(model: Model, grid: Grid, policy: Policy) -> np.ndarray:
    """The policy's action indices, checked to give one valid action per node."""
    idx = np.asarray(policy.indices)
    if idx.shape != (grid.n,):
        raise ValueError(f"policy has {idx.shape} entries for {grid.n} nodes")
    if idx.min() < 0 or idx.max() >= model.actions.size:
        raise ValueError("policy contains action indices outside the action set")
    return idx


def _per_action(fn, x: np.ndarray, idx: np.ndarray, actions: np.ndarray, shape: tuple) -> np.ndarray:
    """Rows fn(x_i, actions[idx_i]), with one call of ``fn`` per action in use."""
    out = np.empty((len(x),) + shape)
    for ai in np.unique(idx):
        mask = idx == ai
        out[mask] = fn(x[mask], actions[ai])
    return out


def _nonnegative_cost(model: Model, c: np.ndarray) -> np.ndarray:
    """``c``, the running cost of the actions in use, after checking it is nonnegative."""
    if np.min(c) < -1e-12:
        raise InvalidModelError(f"negative running cost sampled for {model.label!r}")
    return c


def _policy_coefficients(model: Model, grid: Grid, policy: Policy):
    """Evaluate b, c, a at every node under the per-node action of `policy`."""
    idx = _policy_indices(model, grid, policy)
    b = _per_action(model.drift_at, grid.nodes, idx, model.actions, (grid.dim,))
    c = _per_action(model.cost_at, grid.nodes, idx, model.actions, ())
    a = model.covariance(grid.nodes)
    return b, _nonnegative_cost(model, c), a


def _mixed_dominance(a: np.ndarray) -> np.ndarray:
    """|a12| per node after checking |a12| <= min(a11, a22)."""
    a11, a22, a12 = a[:, 0, 0], a[:, 1, 1], a[:, 0, 1]
    bad = np.abs(a12) > np.minimum(a11, a22)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise MonotonicityError(
            "mixed derivative dominates: |a12|={:.3g} > min(a11,a22)={:.3g}; "
            "the 7-point splitting would lose the nonnegative off-diagonal "
            "structure".format(abs(a[i, 0, 1]), min(a[i, 0, 0], a[i, 1, 1]))
        )
    return a12


def _drift_weights(b_d, a_edge, h, scheme):
    """Per-node (up, down, diag) drift weights for one component.

    a_edge is the diffusion weight already assigned to each side neighbor
    (times 2h^2); central differencing is used only where it cannot push an
    off-diagonal negative.
    """
    if scheme == "upwind":
        central = np.zeros_like(b_d, dtype=bool)
    else:
        central = np.abs(b_d) * h <= a_edge
    up = np.where(central, b_d / (2 * h), np.maximum(b_d, 0.0) / h)
    dn = np.where(central, -b_d / (2 * h), np.maximum(-b_d, 0.0) / h)
    dg = np.where(central, 0.0, -np.abs(b_d) / h)
    return up, dn, dg


def assemble(model: Model, grid: Grid, policy: Policy, scheme: str = "hybrid") -> OperatorMatrix:
    """Assemble the monotone discretization of L_v + diag(c_v).

    ``scheme`` selects the drift stencil: "hybrid" (central where stable,
    default) or "upwind" (pure first-order upwinding).
    """
    b, c, a = _policy_coefficients(model, grid, policy)
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
    n = grid.n

    rows, cols, data = [], [], []

    def put(r, cc, vals):
        rows.append(r)
        cols.append(cc)
        data.append(vals)

    if grid.dim == 1:
        a11 = a[:, 0, 0]
        up_b, dn_b, dg_b = _drift_weights(b[:, 0], a11, h, scheme)
        up = a11 / (2 * h * h) + up_b
        dn = a11 / (2 * h * h) + dn_b
        diag = -a11 / (h * h) + dg_b + c
        i = np.arange(n)
        put(i, i, diag)
        put(i[:-1], i[:-1] + 1, up[:-1])
        put(i[1:], i[1:] - 1, dn[1:])
    else:
        m = grid.shape[0]
        a11, a22 = a[:, 0, 0], a[:, 1, 1]
        a12 = _mixed_dominance(a)
        abs_a12 = np.abs(a12)
        # diffusion weight left on each side neighbor after the mixed split
        edge_x = a11 - abs_a12
        edge_y = a22 - abs_a12

        upx_b, dnx_b, dgx_b = _drift_weights(b[:, 0], edge_x, h, scheme)
        upy_b, dny_b, dgy_b = _drift_weights(b[:, 1], edge_y, h, scheme)

        w_xp = edge_x / (2 * h * h) + upx_b
        w_xm = edge_x / (2 * h * h) + dnx_b
        w_yp = edge_y / (2 * h * h) + upy_b
        w_ym = edge_y / (2 * h * h) + dny_b
        diag = -(a11 + a22) / (h * h) + abs_a12 / (h * h) + dgx_b + dgy_b + c
        w_corner = abs_a12 / (2 * h * h)

        i = np.arange(n)
        ix, iy = np.divmod(i, m)
        put(i, i, diag)
        for (dx, dy), w in (
            ((1, 0), w_xp),
            ((-1, 0), w_xm),
            ((0, 1), w_yp),
            ((0, -1), w_ym),
        ):
            ok = ((ix + dx >= 0) & (ix + dx < m) & (iy + dy >= 0) & (iy + dy < m))
            put(i[ok], i[ok] + dx * m + dy, w[ok])
        # corner pair orientation follows the sign of a12
        for sgn, (dx, dy) in ((1, (1, 1)), (1, (-1, -1)), (-1, (1, -1)), (-1, (-1, 1))):
            sel = (np.sign(a12) == sgn) & (w_corner > 0)
            ok = sel & (ix + dx >= 0) & (ix + dx < m) & (iy + dy >= 0) & (iy + dy < m)
            put(i[ok], i[ok] + dx * m + dy, w_corner[ok])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    op = OperatorMatrix(grid=grid, entries=mat)
    if op.off_diagonal_min() < 0:
        raise InvariantError("assembled matrix has a negative off-diagonal entry")
    return op


# ---------------------------------------------------------------------------
# pieces for comparing actions without assembling a matrix per action: policy
# improvement needs only the action-dependent drift/cost part of every row,
# which reads v at the 2*dim side neighbors (the diffusion part, corners
# included, is the same for every action and lives only in assemble_fields)


def _shifted(v: np.ndarray, grid: Grid, axis: int, step: int) -> np.ndarray:
    """v at the neighbor `step` cells along `axis`, 0 outside the domain."""
    if grid.dim == 1:
        out = np.zeros_like(v)
        if step == 1:
            out[:-1] = v[1:]
        else:
            out[1:] = v[:-1]
        return out
    m = grid.shape[0]
    vv = v.reshape(m, m)
    out = np.zeros_like(vv)
    src = slice(1, None) if step == 1 else slice(None, -1)
    dst = slice(None, -1) if step == 1 else slice(1, None)
    if axis == 0:
        out[dst, :] = vv[src, :]
    else:
        out[:, dst] = vv[:, src]
    return out.ravel()


def diffusion_edges(a: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """Per-axis diffusion weight on the side neighbors, a_ii - |a12|, from covariances ``a``.

    This is the weight the cell Peclet test of the hybrid drift stencil
    compares against; it depends on the diffusion only, not on the action.
    """
    if dim == 1:
        return (a[:, 0, 0],)
    abs_a12 = np.abs(_mixed_dominance(a))
    return (a[:, 0, 0] - abs_a12, a[:, 1, 1] - abs_a12)
