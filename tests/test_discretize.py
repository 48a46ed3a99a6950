"""Grid construction and monotone finite-difference assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from riskeig import (
    Grid,
    InvalidModelError,
    InvariantError,
    Model,
    MonotonicityError,
    OperatorMatrix,
    Policy,
    ResourceError,
    assemble,
    assemble_fields,
    builtin,
    make_grid,
)
from riskeig.discretize import _drift_weights


def _uncontrolled(drift, cost, dim=1, sigma=None):
    sig = sigma if sigma is not None else (lambda x: np.eye(dim))
    return Model(dim, drift, sig, cost, np.array([0.0]))


def _zero_cost(x, u):
    return np.zeros(len(x))


# ------------------------------------------------------------------------ grids

def test_make_grid_three_nodes():
    g = make_grid(1, 1.0, 0.5)
    np.testing.assert_allclose(g.nodes[:, 0], [-0.5, 0.0, 0.5])
    assert g.origin_index == 1


def test_make_grid_2d_interior_count():
    g = make_grid(2, 1.0, 0.5)
    assert g.n == 9
    assert g.shape == (3, 3)
    np.testing.assert_allclose(g.nodes[g.origin_index], [0.0, 0.0])


def test_make_grid_nondividing_spacing():
    """h = 0.3 does not divide 2r = 2; lattice stays symmetric with 0 present."""
    g = make_grid(1, 1.0, 0.3)
    np.testing.assert_allclose(
        g.nodes[:, 0], [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9], atol=1e-12
    )
    assert g.n == 7
    assert g.nodes[g.origin_index, 0] == 0.0


def test_make_grid_node_cap():
    with pytest.raises(ResourceError):
        make_grid(2, 10.0, 1e-3)
    # far beyond the address space: the count is checked before any allocation
    with pytest.raises(ResourceError):
        make_grid(1, 8.0, 1e-15)


def test_make_grid_validates_radius_vs_spacing():
    with pytest.raises(ValueError):
        make_grid(1, 0.1, 0.5)
    # a non-finite size is refused, not passed on to the node count's int()
    for r, h in ((np.inf, 0.1), (np.nan, 0.1), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError, match="finite radius"):
            make_grid(2, r, h)


def test_origin_is_unique_minimizer():
    for r, h in ((1.0, 0.5), (2.0, 0.3), (4.0, 0.17)):
        g = make_grid(1, r, h)
        norms = np.abs(g.nodes[:, 0])
        assert g.origin_index == int(np.argmin(norms))


# --------------------------------------------------------------------- stencils

def test_assemble_pure_second_difference_row():
    """b=0, sigma=1, c=0, h=0.1: interior row is [50, -100, 50]."""
    m = _uncontrolled(lambda x, u: np.zeros_like(x), _zero_cost)
    g = make_grid(1, 0.3, 0.1)
    op = assemble(m, g, Policy.uniform(g))
    row = op.entries.toarray()[2]
    np.testing.assert_allclose(row[1:4], [50.0, -100.0, 50.0])


def test_assemble_upwind_drift_row():
    """b=2 everywhere with the upwind scheme: row [50, -120, 70]."""
    m = _uncontrolled(lambda x, u: np.full_like(x, 2.0), _zero_cost)
    g = make_grid(1, 0.3, 0.1)
    op = assemble(m, g, Policy.uniform(g), scheme="upwind")
    row = op.entries.toarray()[2]
    np.testing.assert_allclose(row[1:4], [50.0, -120.0, 70.0])


def test_assemble_hybrid_central_drift_row():
    """Same drift under the hybrid scheme: |b| h = 0.2 <= a, so central wins."""
    m = _uncontrolled(lambda x, u: np.full_like(x, 2.0), _zero_cost)
    g = make_grid(1, 0.3, 0.1)
    op = assemble(m, g, Policy.uniform(g))
    row = op.entries.toarray()[2]
    np.testing.assert_allclose(row[1:4], [50.0 - 10.0, -100.0, 50.0 + 10.0])


def test_assemble_cost_on_diagonal():
    """c(x) = x^2 adds 0.25 to the diagonal at the node x = 0.5."""
    m = _uncontrolled(
        lambda x, u: np.zeros_like(x), lambda x, u: np.sum(x * x, axis=-1)
    )
    g = make_grid(1, 1.0, 0.5)
    op = assemble(m, g, Policy.uniform(g))
    a = op.entries.toarray()
    assert a[2, 2] == pytest.approx(-1.0 / 0.25 + 0.25)


def test_assemble_rejects_negative_cost():
    m = _uncontrolled(lambda x, u: np.zeros_like(x), lambda x, u: -np.ones(len(x)))
    g = make_grid(1, 1.0, 0.5)
    with pytest.raises(InvalidModelError):
        assemble(m, g, Policy.uniform(g))


def test_assemble_rejects_nan_coefficient():
    m = _uncontrolled(lambda x, u: np.full_like(x, np.nan), _zero_cost)
    g = make_grid(1, 1.0, 0.5)
    with pytest.raises(InvalidModelError):
        assemble(m, g, Policy.uniform(g))


def test_assemble_fields_rejects_a_nan_field():
    """A NaN compares false against 0; the matrix is refused when it is built."""
    m = builtin("ou_quadratic")
    g = make_grid(1, 2.0, 0.5)
    u = m.actions[0]
    b = m.drift_at(g.nodes, u)
    b[1] = np.nan
    with pytest.raises(InvariantError, match="non-finite"):
        assemble_fields(g, b, m.cost_at(g.nodes, u), m.covariance(g.nodes))


@pytest.mark.parametrize("values", [[0.0, 0.0], [0.0, 0.5, 0.0], [0.0, -1.0, 0.0], [0.0, np.nan, 0.0]],
                         ids=["short", "not-listed", "negative", "nan"])
def test_assemble_checks_the_policy_before_evaluating_the_model(monkeypatch, values):
    """On an action list a policy's every value must be a listed action: -5, -2.5, 0, 2.5 or 5."""
    m = oracles.listed_actions(builtin("lq_clamped"), 5)
    g = make_grid(1, 1.0, 0.5)
    assert g.n == 3
    calls = _count_model_calls(monkeypatch)
    with pytest.raises(ValueError):
        assemble(m, g, Policy(np.array(values)))
    assert calls == []


def _count_model_calls(monkeypatch) -> list:
    calls = []
    for name in ("drift_at", "cost_at", "covariance"):
        real = getattr(Model, name)
        monkeypatch.setattr(Model, name, lambda self, *args, _f=real: calls.append(1) or _f(self, *args))
    return calls


@pytest.mark.parametrize("policy", [
    Policy(values=np.zeros(2)),
    Policy(values=np.array([0.0, 5.5, 0.0])),
    Policy(values=np.array([0.0, np.nan, 0.0])),
    Policy(np.array([0.0, -5.5, 0.0])),
], ids=["short", "above-hi", "nan", "below-lo"])
def test_assemble_checks_an_interval_policy_before_evaluating_the_model(monkeypatch, policy):
    m = builtin("lq_clamped")
    g = make_grid(1, 1.0, 0.5)
    calls = _count_model_calls(monkeypatch)
    with pytest.raises(ValueError):
        assemble(m, g, policy)
    assert calls == []


def test_uniform_policy_is_u_zero():
    """Policy.uniform takes u = 0 at every node, on an interval and on a list holding 0."""
    m = builtin("lq_clamped")
    g = make_grid(1, 2.0, 0.1)
    want = assemble(m, g, Policy(np.full(g.n, 0.0))).entries
    for got in (assemble(m, g, Policy.uniform(g)).entries,
                assemble(oracles.listed_actions(m, 3), g, Policy.uniform(g)).entries):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


def test_central_drift_weights_never_round_an_off_diagonal_negative():
    """|b| h = a to rounding: a row taken central keeps a / 2h^2 + up and + dn nonnegative.

    Testing |b| h <= a instead rounds one of them below zero in about one case in
    twenty of these; an exact improvement pass picks actions right on that switch.
    """
    rng = np.random.default_rng(1)
    for h in (0.3, 0.01, 1.7):
        a = rng.uniform(0.1, 2.0, 20000)
        b = a / h
        b = np.concatenate([np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)])
        b = np.concatenate([b, -b])
        edge = np.tile(a, 6)
        up, dn, dg = _drift_weights(b, edge, h, "hybrid")
        side = edge / (2 * h * h)
        assert np.all(side + up >= 0.0) and np.all(side + dn >= 0.0)
        # central at some of them, upwind at others
        assert 0 < np.count_nonzero(dg) < b.size


# -------------------------------------------------------------------- kernel

def test_constant_vector_in_kernel_interior():
    """Pure second difference annihilates constants away from the wall."""
    m = _uncontrolled(lambda x, u: np.zeros_like(x), _zero_cost)
    g = make_grid(1, 1.0, 0.1)
    op = assemble(m, g, Policy.uniform(g))
    out = op.entries @ np.ones(g.n)
    inner = g.interior_mask()
    np.testing.assert_allclose(out[inner], 0.0, atol=1e-10)


# ------------------------------------------------------------------- invariants

@pytest.mark.parametrize("i, j, value", [(1, 0, np.inf), (1, 1, np.nan)], ids=["inf-off", "nan-diag"])
def test_operator_matrix_refuses_a_bad_entry_when_built(i, j, value):
    g = Grid(1, 1.0, 1.0, np.array([0.0, 1.0]), (2,), np.array([[0.0], [1.0]]), 0)
    a = np.array([[-1.0, 0.3], [0.3, -1.0]])
    OperatorMatrix(g, sp.csr_matrix(a))
    a[i, j] = value
    with pytest.raises(InvariantError):
        OperatorMatrix(g, sp.csr_matrix(a))


def test_off_diagonals_nonnegative_on_benchmarks():
    for name in ("ou_quadratic", "double_well", "bounded_nm"):
        m = builtin(name)
        for scheme in ("hybrid", "upwind"):
            g = make_grid(1, 4.0, 0.1)
            op = assemble(m, g, Policy(np.full(g.n, m.actions[0])), scheme=scheme)
            assert op.off_diagonal_min() >= 0.0


def test_off_diagonals_nonnegative_2d_mixed():
    sigma = np.array([[1.0, 0.3], [0.0, 0.8]])  # a12 = 0.24 < min(a11, a22)
    m = _uncontrolled(
        lambda x, u: -x, lambda x, u: np.sum(x * x, axis=-1), dim=2,
        sigma=lambda x: sigma,
    )
    g = make_grid(2, 2.0, 0.25)
    op = assemble(m, g, Policy.uniform(g))
    assert op.off_diagonal_min() >= 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_pointwise_diffusion_sets_each_nodes_side_weights(dim):
    """With no drift, node i weighs each side neighbour along axis d by (a_dd - |a12|)(x_i) / 2h^2."""
    m = _uncontrolled(lambda x, u: np.zeros_like(x), _zero_cost, dim=dim,
                      sigma=oracles.pointwise_sigma)
    g = make_grid(dim, 2.0, 0.25)
    A = assemble(m, g, Policy.uniform(g)).entries.toarray()
    sig = oracles.pointwise_sigma(g.nodes)
    a = sig @ sig.transpose(0, 2, 1)
    mixed = np.abs(a[:, 0, 1]) if dim == 2 else 0.0
    for d in range(dim):
        want = (a[:, d, d] - mixed) / (2 * g.spacing**2)
        assert np.ptp(want) > 0.1   # the weights do vary from node to node
        stride = g.shape[0] ** (dim - 1 - d)   # row-major over axes
        up = np.flatnonzero(g.nodes[:, d] < g.axis[-1])
        down = np.flatnonzero(g.nodes[:, d] > g.axis[0])
        np.testing.assert_allclose(A[up, up + stride], want[up], rtol=1e-14)
        np.testing.assert_allclose(A[down, down - stride], want[down], rtol=1e-14)


def test_mixed_dominance_violation_errors():
    # a = sigma sigma^T = [[1, 1.2], [1.2, 1.53]]: |a12| = 1.2 > min diag = 1
    sigma = np.array([[1.0, 0.0], [1.2, 0.3]])
    m = _uncontrolled(
        lambda x, u: np.zeros_like(x), _zero_cost, dim=2, sigma=lambda x: sigma
    )
    g = make_grid(2, 1.0, 0.25)
    with pytest.raises(MonotonicityError):
        assemble(m, g, Policy.uniform(g))


def test_discrete_maximum_principle():
    """With c = 0: A 1 = 0 deep inside, <= 0 next to the Dirichlet wall."""
    m = _uncontrolled(lambda x, u: -x, _zero_cost)
    g = make_grid(1, 2.0, 0.1)
    op = assemble(m, g, Policy.uniform(g))
    out = op.entries @ np.ones(g.n)
    inner = g.interior_mask()
    np.testing.assert_allclose(out[inner], 0.0, atol=1e-9)
    assert np.all(out[~inner] <= 1e-9)


def test_2d_seven_point_row_sums():
    """2-D correlated diffusion, c = 0: rows away from the wall sum to 0."""
    sigma = np.array([[1.0, 0.4], [0.0, 1.0]])
    m = _uncontrolled(
        lambda x, u: 0.3 * x, _zero_cost, dim=2, sigma=lambda x: sigma
    )
    g = make_grid(2, 1.5, 0.25)
    op = assemble(m, g, Policy.uniform(g))
    sums = np.asarray(op.entries.sum(axis=1)).ravel()
    inner = g.interior_mask()
    np.testing.assert_allclose(sums[inner], 0.0, atol=1e-9)


@pytest.mark.parametrize("scheme", ["hybrid", "upwind"])
def test_separable_2d_stencil_is_the_kronecker_sum_of_1d_stencils(scheme):
    """sigma = I, b = (-x, -2y), c = x^2 + y^2: A = kron(A1, I) + kron(I, A2).

    r = 6, h = 0.3 puts nodes on both sides of each axis' cell Peclet
    threshold (|x| = 10/3 and |y| = 5/3), so the hybrid scheme mixes central
    and upwind rows; no node sits on a threshold, where an entry would be 0.
    """
    def square(x, u):
        return np.sum(x * x, axis=-1)

    g1 = make_grid(1, 6.0, 0.3)
    a1 = assemble(_uncontrolled(lambda x, u: -x, square), g1, Policy.uniform(g1), scheme=scheme)
    a2 = assemble(_uncontrolled(lambda x, u: -2.0 * x, square), g1, Policy.uniform(g1), scheme=scheme)
    g = make_grid(2, 6.0, 0.3)
    m = _uncontrolled(lambda x, u: -x * np.array([1.0, 2.0]), square, dim=2)
    op = assemble(m, g, Policy.uniform(g), scheme=scheme)
    eye = sp.identity(g1.n)
    expected = (sp.kron(a1.entries, eye) + sp.kron(eye, a2.entries)).tocsr()
    got = op.entries.tocsr()
    got.sort_indices()
    expected.sort_indices()
    np.testing.assert_array_equal(got.indptr, expected.indptr)
    np.testing.assert_array_equal(got.indices, expected.indices)
    np.testing.assert_allclose(got.data, expected.data, rtol=1e-13, atol=1e-13 * np.abs(expected.data).max())


# ---------------------------------------------------------------- consistency

def _stencil_error(scheme: str, h: float) -> float:
    """Max nodal error of A phi vs the exact L phi for phi = x^2."""
    beta = 1.0
    m = _uncontrolled(lambda x, u: -beta * x, lambda x, u: np.sum(x * x, axis=-1))
    g = make_grid(1, 1.0, h)
    op = assemble(m, g, Policy.uniform(g), scheme=scheme)
    x = g.nodes[:, 0]
    phi = x**2
    exact = 1.0 - beta * x * (2.0 * x) + x**2 * phi
    approx = op.entries @ phi
    inner = g.interior_mask()
    return float(np.max(np.abs(approx - exact)[inner]))


def test_consistency_order_upwind():
    e1, e2 = _stencil_error("upwind", 0.02), _stencil_error("upwind", 0.01)
    order = np.log2(e1 / e2)
    assert order >= 0.9


def test_consistency_order_central():
    """phi = x^2 is quadratic: the central stencil is exact up to roundoff."""
    assert _stencil_error("hybrid", 0.01) < 1e-9

