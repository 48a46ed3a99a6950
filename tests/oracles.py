"""Closed-form reference values for the test suite.

Every function here recomputes a known quantity from scratch (quadratic
ansatz, Dirichlet sine eigenfunctions, Gaussian moments, dense and
tridiagonal linear algebra) so that the solver under test is never its own
oracle.  Expected numbers frozen into tests are produced by these helpers,
not copied from solver output.
"""

import numpy as np
import scipy.linalg


def ou_quadratic_rate(beta: float, kappa: float) -> tuple[float, float]:
    """Growth rate and ansatz coefficient for drift -beta*x, potential kappa*x^2.

    Substituting v = exp(a x^2) into (1/2)v'' - beta x v' + kappa x^2 v = lam v
    and matching powers of x gives 2a^2 - 2 a beta + kappa = 0 (quadratic term)
    and lam = a (constant term).  The ground state is the smaller root, which
    keeps v integrable against the Gaussian tail.
    """
    if beta * beta < 2.0 * kappa:
        raise ValueError("no quadratic ground state: beta^2 < 2*kappa")
    a = 0.5 * (beta - np.sqrt(beta * beta - 2.0 * kappa))
    return a, a


def ou_twisted_slope(beta: float, kappa: float) -> float:
    """Slope of the ground-state drift: -beta*x + (2a)x = -sqrt(beta^2-2kappa)*x."""
    a, _ = ou_quadratic_rate(beta, kappa)
    return 2.0 * a - beta


def lq_clamped_rate(beta: float, kappa: float, rho: float) -> tuple[float, float]:
    """Rate and per-x control slope for b=-beta*x+u, c=kappa*x^2+rho*u^2/2.

    With v = exp(a x^2) the pointwise minimum over u of u v' + (rho/2) u^2 v
    sits at u* = -v'/(rho v) = -(2a/rho) x.  Matching x^2 coefficients leaves
    2(1 - 1/rho) a^2 - 2 beta a + kappa = 0; rho=1 degenerates to a linear
    equation a = kappa/(2 beta).  Valid while |u*| stays inside the clamp.
    """
    coef = 2.0 * (1.0 - 1.0 / rho)
    if abs(coef) < 1e-15:
        a = kappa / (2.0 * beta)
    else:
        disc = beta * beta - coef * kappa
        if disc < 0.0:
            raise ValueError("no quadratic ansatz for these parameters")
        a = (beta - np.sqrt(disc)) / coef
    return a, -2.0 * a / rho


def dirichlet_half_laplacian_rate(radius: float) -> float:
    """Principal eigenvalue of (1/2) d^2/dx^2 on (-r, r), zero boundary.

    Eigenfunction cos(pi x / (2r)), eigenvalue -(1/2)(pi/(2r))^2.
    """
    return -0.5 * (np.pi / (2.0 * radius)) ** 2


def dirichlet_half_laplacian_rate_discrete(n_interior: int, spacing: float) -> float:
    """Exact principal eigenvalue of the discrete (1/2) second difference.

    The tridiagonal matrix (1/(2h^2)) tridiag(1, -2, 1) on k interior nodes
    has eigenvalues -(2/h^2) sin^2(j pi / (2(k+1))); the principal one is j=1.
    """
    k = n_interior
    return -(2.0 / spacing**2) * np.sin(np.pi / (2.0 * (k + 1))) ** 2


def ou_identity_terms(beta: float, kappa: float) -> tuple[float, float, float]:
    """Occupation averages (mu_f, half_mu_G, lam) for the quadratic benchmark.

    The base diffusion dX = -beta X dt + dW has invariant law N(0, 1/(2 beta)).
    f = kappa x^2 averages to kappa/(2 beta).  G = |grad psi|^2 = (2a x)^2
    averages to 4a^2/(2 beta); half of that plus mu_f recovers lam = a.
    """
    a, lam = ou_quadratic_rate(beta, kappa)
    var = 1.0 / (2.0 * beta)
    mu_f = kappa * var
    half_mu_g = 0.5 * (4.0 * a * a) * var
    return mu_f, half_mu_g, lam


def ou_plateau(beta: float, kappa: float, x0: float) -> float:
    """Large-time limit of E[exp(integral of f - lam)] started at x0.

    The limit is v(x0) * m(1/v) where m is the invariant law of the twisted
    diffusion: N(0, s2) with s2 = 1/(2 sqrt(beta^2 - 2 kappa)).  For
    X ~ N(0, s2), E[exp(-a X^2)] = (1 + 2 a s2)^(-1/2).
    """
    a, _ = ou_quadratic_rate(beta, kappa)
    s2 = 1.0 / (2.0 * np.sqrt(beta * beta - 2.0 * kappa))
    return np.exp(a * x0 * x0) / np.sqrt(1.0 + 2.0 * a * s2)


def geometric_tail_limit(l1: float, l2: float, l3: float) -> float:
    """Limit of a geometric sequence l_n = L - C q^n from its last three terms."""
    q = (l3 - l2) / (l2 - l1)
    return l3 + (l3 - l2) * q / (1.0 - q)


def dense_principal_eigenpair(a_dense: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenvalue of maximal real part and its eigenvector, by full dense solve."""
    vals, vecs = np.linalg.eig(a_dense)
    i = int(np.argmax(vals.real))
    vec = vecs[:, i].real
    if vec.sum() < 0.0:
        vec = -vec
    return float(vals[i].real), vec


def tridiagonal_principal_eigenvalue(a_dense: np.ndarray) -> float:
    """Largest eigenvalue of a tridiagonal matrix with a[i,i+1] a[i+1,i] >= 0.

    The characteristic polynomial of a tridiagonal matrix depends on its
    off-diagonals only through the products a[i,i+1] a[i+1,i], so the
    symmetric tridiagonal matrix with off-diagonals sqrt(a[i,i+1] a[i+1,i])
    has the same eigenvalues.  A symmetric solver finds them to near machine
    accuracy however far the original is from normal, where a dense
    nonsymmetric eig loses digits.
    """
    assert not np.triu(a_dense, 2).any() and not np.tril(a_dense, -2).any(), "not tridiagonal"
    products = np.diag(a_dense, 1) * np.diag(a_dense, -1)
    assert (products >= 0.0).all(), "an off-diagonal pair of opposite signs"
    return float(scipy.linalg.eigvalsh_tridiagonal(np.diag(a_dense), np.sqrt(products))[-1])


def random_m_structured(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense random matrix with nonnegative off-diagonals and an irreducible band.

    Sub- and super-diagonals are bounded away from zero so the matrix is
    irreducible and the principal eigenvalue is simple with a positive
    eigenvector; extra sparse off-diagonal mass and a random diagonal
    perturbation vary the spectrum.
    """
    a = np.zeros((n, n))
    band = rng.uniform(0.1, 1.0, size=n - 1)
    a[np.arange(n - 1), np.arange(1, n)] = band
    a[np.arange(1, n), np.arange(n - 1)] = rng.uniform(0.1, 1.0, size=n - 1)
    extra = rng.random((n, n)) < 0.05
    np.fill_diagonal(extra, False)
    a[extra] += rng.uniform(0.0, 1.0, size=int(extra.sum()))
    off_row_sum = a.sum(axis=1)
    a[np.arange(n), np.arange(n)] = -off_row_sum - rng.uniform(0.0, 1.0, size=n)
    return a


def quadratic_action_minimizer(lo: float, hi: float, dv_over_v: float, rho: float) -> float:
    """The action minimizing u * (v'/v) + (rho/2) u^2 over the interval [lo, hi].

    The quadratic is convex, so its minimizer is the vertex -(v'/v) / rho
    clipped into the interval.
    """
    return float(np.clip(-dv_over_v / rho, lo, hi))


def listed_actions(model, k: int):
    """The model with its action interval replaced by k equally spaced listed actions.

    A listed action set is finite, so the solver minimizes over exactly these
    k actions, as it once did for every interval.
    """
    return type(model)(model.dim, model.drift, model.diffusion, model.cost,
                       np.linspace(model.actions[0], model.actions[-1], k), model.label)


def pointwise_sigma(x: np.ndarray) -> np.ndarray:
    """A state-dependent diffusion factor sigma(x), (n, dim, dim), in 1-D or 2-D.

    sigma_11 = 1 + 0.5 tanh^2(x1), and in 2-D sigma_21 = 0.2 tanh(x2) and
    sigma_22 = 1, so a = sigma sigma^T has |a12| <= 0.3 < 1 <= min(a11, a22)
    and the 7-point stencil stays monotone.
    """
    x = np.asarray(x, dtype=float)
    sig = np.zeros((len(x), x.shape[1], x.shape[1]))
    sig[:, 0, 0] = 1.0 + 0.5 * np.tanh(x[:, 0]) ** 2
    if x.shape[1] == 2:
        sig[:, 1, 0] = 0.2 * np.tanh(x[:, 1])
        sig[:, 1, 1] = 1.0
    return sig


def multilinear_interpolation(axis: np.ndarray, spacing: float, values: np.ndarray,
                              x: np.ndarray) -> np.ndarray:
    """Clamped interpolation of a row-major lattice field at non-NaN points, written out per dimension.

    The cell is the floor of the cell coordinate f = (x - axis[0]) / h, capped
    at the last cell, and t = f - floor.  In 1-D the value is v0 (1 - t) + v1 t;
    in 2-D it is the four corners in the order (0,0), (1,0), (0,1), (1,1), each
    corner value times its two weights.
    """
    m = axis.size
    f = (np.clip(x, axis[0], axis[-1]) - axis[0]) / spacing
    i = np.minimum(np.floor(f), m - 2).astype(np.int64)
    t = f - i
    if x.shape[1] == 1:
        return values[i[:, 0]] * (1 - t[:, 0]) + values[i[:, 0] + 1] * t[:, 0]
    v = values.reshape(m, m)
    (ix, iy), (tx, ty) = i.T, t.T
    return (
        v[ix, iy] * (1 - tx) * (1 - ty)
        + v[ix + 1, iy] * tx * (1 - ty)
        + v[ix, iy + 1] * (1 - tx) * ty
        + v[ix + 1, iy + 1] * tx * ty
    )
