"""Radius continuation, saturation detection, and tail extrapolation."""

import numpy as np
import pytest

import oracles
from riskeig import (
    InvalidModelError,
    InvariantError,
    Model,
    SweepRow,
    builtin,
    estimate_lambda_star,
    sweep,
)


def _brownian():
    return Model(
        1,
        lambda x, u: np.zeros_like(x),
        lambda x: np.eye(1),
        lambda x, u: np.zeros(len(x)),
        np.array([0.0]),
    )


def _rows(lams):
    return [SweepRow(float(r), 0.1, float(l), 1e-11, 1) for r, l in enumerate(lams, 2)]


# ----------------------------------------------------------------------- sweeps

def test_ou_sweep_monotone_and_capped():
    res = sweep(builtin("ou_quadratic"), (2.0, 3.0, 4.0), 0.05)
    lams = [row.lam for row in res.rows]
    assert np.all(np.diff(lams) > 0.0)
    _, lam_limit = oracles.ou_quadratic_rate(1.0, 0.375)
    assert all(l < lam_limit for l in lams)
    assert res.lambda_star >= lams[-1]
    assert res.regime == "Dirichlet limit lambda*"


def test_brownian_sweep_matches_laplacian_rates():
    """f=0, no drift: each radius reproduces the closed-form Dirichlet rate."""
    res = sweep(_brownian(), (1.0, 2.0, 4.0), 0.01)
    for row in res.rows:
        want = oracles.dirichlet_half_laplacian_rate(row.radius)
        assert row.lam == pytest.approx(want, abs=5e-3)
    lams = [row.lam for row in res.rows]
    assert np.all(np.diff(lams) > 0.0)
    assert lams[-1] < 0.0


def test_single_radius_cannot_saturate():
    res = sweep(builtin("ou_quadratic"), (2.0,), 0.05)
    assert res.saturation_gap == np.inf
    assert not res.converged


def test_sweep_requires_increasing_radii():
    with pytest.raises(ValueError):
        sweep(builtin("ou_quadratic"), (4.0, 2.0), 0.05)


@pytest.mark.parametrize("threads", [0, -1])
def test_sweep_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads"):
        sweep(builtin("ou_quadratic"), (2.0, 4.0), 0.05, threads=threads)


def test_sweep_converged_flag_tracks_gap():
    res = sweep(builtin("ou_quadratic"), (2.0, 4.0, 6.0, 8.0), 0.02, tol=1e-6)
    assert res.converged
    assert res.saturation_gap < 1e-6
    assert res.saturation_gap >= 0.0


def test_sweep_raises_the_smallest_failing_radius_and_solves_no_larger_one():
    """Radii 4 and 6 would fail; the sweep raises radius 4's error and never reaches radius 6.

    At h = 0.05 the radii have 79, 159 and 239 nodes, and the cost refuses
    more than 100.
    """
    sizes = []

    def cost(x, u):
        sizes.append(len(x))
        if len(x) > 100:
            raise InvalidModelError("grid too large for this cost", payload={"nodes": len(x)})
        return np.zeros(len(x))

    m = _brownian().with_cost(cost)
    with pytest.raises(InvalidModelError) as err:
        sweep(m, (2.0, 4.0, 6.0), 0.05)
    assert err.value.payload == {"nodes": 159}
    assert 79 in sizes and 239 not in sizes


def test_bounded_model_gets_whole_space_label():
    res = sweep(builtin("bounded_nm"), (2.0, 3.0, 4.0), 0.05)
    assert res.regime == "Lambda*"


def test_rows_carry_solver_metadata():
    res = sweep(builtin("lq_clamped"), (2.0, 3.0), 0.1)
    for row in res.rows:
        assert row.residual <= 1e-9
        assert row.policy_sweeps >= 1
        assert row.spacing == 0.1


# --------------------------------------------------------------- extrapolation

def test_extrapolation_recovers_geometric_limit():
    est = estimate_lambda_star(_rows([0.2, 0.24, 0.248]))
    assert est == pytest.approx(0.25, abs=1e-12)
    # agreement with the series oracle, not just the frozen number
    assert est == pytest.approx(oracles.geometric_tail_limit(0.2, 0.24, 0.248), abs=1e-12)


def test_extrapolation_constant_rows():
    assert estimate_lambda_star(_rows([0.1, 0.1, 0.1])) == 0.1


def test_extrapolation_nonmonotone_tail_falls_back():
    assert estimate_lambda_star(_rows([0.2, 0.25, 0.24])) == 0.24


def test_extrapolation_growing_tail_falls_back():
    # ratio >= 1 means no geometric saturation; the last value is the answer
    assert estimate_lambda_star(_rows([0.2, 0.3, 0.45])) == 0.45


def test_extrapolation_needs_three_rows():
    with pytest.raises(ValueError):
        estimate_lambda_star(_rows([0.1, 0.2]))


def test_extrapolation_never_below_last_row():
    rng = np.random.default_rng(9)
    for _ in range(20):
        lams = np.sort(rng.uniform(-1.0, 1.0, size=4))
        est = estimate_lambda_star(_rows(lams))
        assert est >= lams[-1]


# ------------------------------------------------------------------ invariants

def test_sweep_rejects_decreasing_eigenvalues():
    """The non-decrease guard trips when a (rigged) model breaks monotonicity.

    No honest model can decrease across radii, so the potential is made
    stateful: the first assembly (radius 2) sees a large constant, later ones
    see zero.  Single-threaded, so radii are assembled in schedule order.
    """
    state = {"calls": 0}

    def shrinking_cost(x, u):
        state["calls"] += 1
        level = 1.0 if state["calls"] == 1 else 0.0
        return np.full(len(x), level)

    m = Model(
        1,
        lambda x, u: np.zeros_like(x),
        lambda x: np.eye(1),
        shrinking_cost,
        np.array([0.0]),
    )
    with pytest.raises(InvariantError):
        sweep(m, (2.0, 3.0), 0.05)


def test_h_refinement_consistency():
    """Estimates at h and h/2 differ by no more than a first-order constant."""
    res_h = sweep(builtin("ou_quadratic"), (2.0, 4.0), 0.04)
    res_h2 = sweep(builtin("ou_quadratic"), (2.0, 4.0), 0.02)
    for row_h, row_h2 in zip(res_h.rows, res_h2.rows):
        assert abs(row_h.lam - row_h2.lam) <= 1.0 * 0.04
